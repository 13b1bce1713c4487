"""Wind-driven double gyre: run MiniPOP and render the circulation.

Spins up the simplified ocean for a season with the double-gyre wind
pattern and prints ASCII maps of sea surface height and temperature
anomaly -- a qualitative look at the dynamics all the verification
experiments ride on, plus per-step solver statistics.

Run:  python examples/gyre_simulation.py
"""

import numpy as np

from repro.barotropic import MiniPOP
from repro.grid import test_config
from repro.precond.evp import evp_for_config
from repro.solvers import ChronGearSolver, SerialContext

GLYPHS = " .:-=+*#%@"


def ascii_map(field, mask, title):
    """Render a masked field as a coarse ASCII intensity map."""
    lines = [title]
    lo = field[mask].min()
    hi = field[mask].max()
    span = max(hi - lo, 1e-30)
    for j in range(field.shape[0] - 1, -1, -1):  # north at the top
        row = []
        for i in range(field.shape[1]):
            if not mask[j, i]:
                row.append("█")
            else:
                level = int((field[j, i] - lo) / span * (len(GLYPHS) - 1))
                row.append(GLYPHS[level])
        lines.append("".join(row))
    lines.append(f"range: [{lo:.3g}, {hi:.3g}]")
    return "\n".join(lines)


def main():
    config = test_config(28, 44, seed=11, dt=10800.0)
    print(config.describe())

    pre = evp_for_config(config)
    solver = ChronGearSolver(SerialContext(config.stencil, pre), tol=1e-13,
                             max_iterations=4000, raise_on_failure=False)
    model = MiniPOP(config, solver)

    print("\nspinning up 60 days...")
    model.run_days(60)

    print(ascii_map(model.state.eta, config.mask,
                    "\nsea surface height (land = █):"))
    anomaly = model.state.temperature - model._t_star
    print(ascii_map(anomaly, config.mask, "\ntemperature anomaly:"))

    u, v = model.velocities()
    speed = np.sqrt(u * u + v * v)
    print(f"\nmax current speed: {speed.max():.2f} m/s")

    from repro.barotropic import health_report
    report = health_report(model)
    print(f"kinetic energy: {report['kinetic_energy_J']:.3e} J, "
          f"gyre transport: {report['gyre_transport_Sv']:.2f} Sv")
    print(f"barotropic solver: {model.stepper.mean_iterations():.0f} "
          f"iterations/step average over {model.state.step} steps "
          f"({solver.name}+{pre.name})")


if __name__ == "__main__":
    main()
