"""MiniPOP: a simplified ocean model around the barotropic solver.

The paper's section-6 verification needs a *chaotic* ocean whose
solution feels the barotropic solver's round-off: "due to the chaotic
nature of the ocean dynamics, even a round-off difference from the
barotropic solver may potentially result in distinct model solutions".
CESM-POP itself is out of scope, so MiniPOP couples the real implicit
free-surface barotropic mode (the system under test) to a minimal
nonlinear "baroclinic" stand-in:

* SSH ``eta`` evolves through the implicit free-surface solve (the
  exact solver/preconditioner combination under test);
* a temperature field ``T`` is advected by the SSH-derived geostrophic
  flow (first-order upwind), diffused, and restored toward a latitude
  profile;
* ``T`` feeds back into the barotropic forcing (a crude steric/thermal
  wind effect), closing the nonlinear loop ``eta -> u -> T -> F -> eta``.

The feedback makes the coupled system sensitive to initial conditions:
an O(1e-14) temperature perturbation grows to saturation within a few
simulated months (measured by the test suite), which is exactly the
regime the RMSE/RMSZ comparison of Figures 12-13 requires.

All state updates are pure ``numpy``; the only iteration happens inside
the linear solver.
"""

from dataclasses import dataclass

import numpy as np

from repro.barotropic.forcing import double_gyre_wind, seasonal_factor
from repro.barotropic.stepper import BarotropicStepper
from repro.core.constants import GRAVITY_M_S2, SECONDS_PER_DAY
from repro.core.errors import ConfigurationError
from repro.core.rng import make_rng


@dataclass
class ModelState:
    """The prognostic fields of MiniPOP."""

    eta: np.ndarray
    eta_prev: np.ndarray
    temperature: np.ndarray
    step: int = 0

    def copy(self):
        return ModelState(self.eta.copy(), self.eta_prev.copy(),
                          self.temperature.copy(), self.step)


class MiniPOP:
    """Simplified POP-like ocean model (see module docstring).

    Parameters
    ----------
    config:
        :class:`~repro.grid.config.GridConfig`.
    solver:
        The barotropic :class:`~repro.solvers.base.IterativeSolver`.
    wind_amplitude:
        Peak wind forcing (m/s^2 equivalent); drives the gyres.
    gamma_feedback:
        Thermal feedback coefficient coupling ``T`` anomalies back into
        the barotropic forcing (the chaos knob).
    kappa:
        Temperature diffusivity (m^2/s).
    restore_days:
        Relaxation time toward the latitudinal profile ``T*`` (days).
    drag:
        Rayleigh-type damping factor on the free-surface memory terms
        (keeps the wave energy bounded).
    coriolis_min:
        Lower clamp on ``|sin(lat)|`` in the geostrophic velocity (keeps
        the equatorial band finite).
    """

    def __init__(self, config, solver, wind_amplitude=4.0e-9,
                 gamma_feedback=2.0e-9, kappa=1.5e3, restore_days=90.0,
                 drag=0.05, coriolis_min=0.15, seasonal_amplitude=0.3,
                 velocity_gain=1.0, surface_drag=5.0e-10, max_cfl=0.4):
        self.config = config
        self.solver = solver
        self.stepper = BarotropicStepper(config, solver)
        self.mask = config.mask.astype(np.float64)
        self.dt = config.dt
        if self.dt <= 0:
            raise ConfigurationError("config.dt must be positive")
        self.wind_amplitude = float(wind_amplitude)
        self.gamma_feedback = float(gamma_feedback)
        self.kappa = float(kappa)
        self.restore_seconds = float(restore_days) * SECONDS_PER_DAY
        self.drag = float(drag)
        self.surface_drag = float(surface_drag)
        self.seasonal_amplitude = float(seasonal_amplitude)

        ny, nx = config.shape
        self._wind = double_gyre_wind(ny, nx, amplitude=self.wind_amplitude)
        self._wind *= self.mask
        # Latitudinal restoring profile: warm equator, cold poles.
        lat = config.metrics.lat
        self._t_star = (25.0 * np.cos(np.deg2rad(lat)) ** 2) * self.mask
        # Geostrophic factor g / f with clamped |f|.
        f0 = 1.458e-4  # 2*Omega
        sinlat = np.sin(np.deg2rad(lat))
        f = f0 * np.sign(sinlat + 1e-30) * np.maximum(np.abs(sinlat),
                                                      coriolis_min)
        # ``velocity_gain`` scales the diagnosed currents: the barotropic
        # SSH alone under-represents the eddying surface flow a full
        # baroclinic model would produce, and the chaotic-sensitivity
        # experiments need realistic O(1 m/s) currents.
        self._g_over_f = velocity_gain * GRAVITY_M_S2 / f
        self._dx = config.metrics.dxt
        self._dy = config.metrics.dyt
        # Velocity clamp keeping the explicit upwind advection inside
        # ``max_cfl`` regardless of the SSH state (a safety rail, not a
        # physics term: a well-tuned configuration never hits it).
        self._u_max = max_cfl * self._dx / self.dt
        self._v_max = max_cfl * self._dy / self.dt

        # Connected ocean basins, for per-basin mass conservation.
        from repro.grid.topography import ocean_basins
        labels, n_basins = ocean_basins(config.mask)
        self._basin_areas = []
        tarea = config.metrics.tarea
        for basin in range(1, n_basins + 1):
            sel = labels == basin
            self._basin_areas.append((sel, tarea[sel]))

        self.state = ModelState(
            eta=np.zeros((ny, nx)),
            eta_prev=np.zeros((ny, nx)),
            temperature=self._t_star.copy(),
        )

    # ------------------------------------------------------------------
    # physics pieces
    # ------------------------------------------------------------------
    def _neighbors_no_flux(self, field):
        """N/S/E/W neighbor values with land and domain edges replaced
        by the center value (no gradient across coasts)."""
        m = self.mask
        fm = field * m
        pad_f = np.pad(fm, 1)
        pad_m = np.pad(m, 1)
        out = {}
        for name, (dj, di) in (("n", (1, 0)), ("s", (-1, 0)),
                               ("e", (0, 1)), ("w", (0, -1))):
            ny, nx = field.shape
            neigh = pad_f[1 + dj:1 + dj + ny, 1 + di:1 + di + nx]
            nmask = pad_m[1 + dj:1 + dj + ny, 1 + di:1 + di + nx]
            out[name] = np.where(nmask > 0, neigh, field)
        return out

    def velocities(self):
        """SSH-derived geostrophic velocities at T-points (masked)."""
        eta = self.state.eta
        nb = self._neighbors_no_flux(eta)
        u = -self._g_over_f * (nb["n"] - nb["s"]) / (2.0 * self._dy)
        v = self._g_over_f * (nb["e"] - nb["w"]) / (2.0 * self._dx)
        np.clip(u, -self._u_max, self._u_max, out=u)
        np.clip(v, -self._v_max, self._v_max, out=v)
        return u * self.mask, v * self.mask

    def _advect_diffuse_temperature(self):
        """Upwind advection + diffusion + restoring for ``T``."""
        t = self.state.temperature
        u, v = self.velocities()
        nb = self._neighbors_no_flux(t)
        # First-order upwind gradients.
        dtdx = np.where(u > 0, (t - nb["w"]) / self._dx,
                        (nb["e"] - t) / self._dx)
        dtdy = np.where(v > 0, (t - nb["s"]) / self._dy,
                        (nb["n"] - t) / self._dy)
        adv = u * dtdx + v * dtdy
        lap = ((nb["e"] - 2 * t + nb["w"]) / self._dx ** 2
               + (nb["n"] - 2 * t + nb["s"]) / self._dy ** 2)
        restore = (self._t_star - t) / self.restore_seconds
        t_new = t + self.dt * (-adv + self.kappa * lap + restore)
        self.state.temperature = t_new * self.mask

    def _forcing(self):
        """Explicit barotropic forcing: seasonal wind + thermal feedback.

        The area-weighted ocean mean is removed each step: the forcing
        must not project on the operator's constant (Neumann null) mode,
        or total ocean volume would drift secularly -- the discrete
        analogue of POP's global mass conservation.
        """
        day = self.state.step * self.dt / SECONDS_PER_DAY
        season = seasonal_factor(day, amplitude=self.seasonal_amplitude)
        t = self.state.temperature
        anomaly = (t - self._t_star) * self.mask
        forcing = season * self._wind + self.gamma_feedback * anomaly
        # Linear surface drag: damps the basin modes whose stiffness is
        # nearly null (volume modes, flow through narrow straits) that
        # would otherwise accumulate forcing without bound.  Acts like a
        # uniform positive shift of the elliptic operator's spectrum.
        forcing = forcing - GRAVITY_M_S2 * self.surface_drag * self.state.eta
        # Per-basin mean removal: every connected basin has its own
        # volume (Neumann null) mode.
        for sel, area in self._basin_areas:
            mean = float(np.sum(forcing[sel] * area) / np.sum(area))
            forcing[sel] -= mean
        return forcing * self.mask

    # ------------------------------------------------------------------
    # time integration
    # ------------------------------------------------------------------
    def begin_step(self):
        """Pre-solve half of :meth:`step`; returns ``(psi, guess)``.

        Computes the forcing, applies the Rayleigh drag blend to the
        free-surface memory and assembles this step's linear system.
        The caller must solve it (alone or as one column of a multi-RHS
        batch covering several lockstepped models) and hand the solution
        to :meth:`finish_step`.
        """
        forcing = self._forcing()
        # Rayleigh drag on the free-surface memory (stability): blend the
        # stepper's history toward the current level before the solve.
        st = self.stepper
        st.eta_nm1 = ((1.0 - self.drag) * st.eta_nm1
                      + self.drag * st.eta_n)
        return st.prepare_step(forcing)

    def finish_step(self, x, iterations, residual_norm, converged):
        """Post-solve half of :meth:`step`: accept the barotropic
        solution and run the temperature physics."""
        eta = self.stepper.apply_solution(x, iterations, residual_norm,
                                          converged)
        self._advect_diffuse_temperature()
        self.state.eta_prev = self.stepper.eta_nm1
        self.state.eta = eta
        self.state.step += 1
        return self.state

    def step(self):
        """Advance one model time step (one barotropic solve)."""
        psi, guess = self.begin_step()
        result = self.solver.solve(psi, x0=guess)
        return self.finish_step(result.x, result.iterations,
                                result.residual_norm, result.converged)

    def run_days(self, days):
        """Run ``days`` simulated days; returns the final state."""
        steps = int(round(days * SECONDS_PER_DAY / self.dt))
        for _ in range(steps):
            self.step()
        return self.state

    def run_months(self, months, days_per_month=30):
        """Run and collect monthly-mean temperature fields.

        Returns a list of ``months`` arrays (the diagnostic the paper's
        RMSE/RMSZ verification evaluates).
        """
        return self.run_months_fields(
            months, days_per_month=days_per_month,
            fields=("temperature",))["temperature"]

    def run_months_fields(self, months, days_per_month=30,
                          fields=("temperature", "eta")):
        """Run and collect monthly means of several diagnostic fields.

        ``fields`` may contain ``"temperature"`` and/or ``"eta"`` (SSH).
        Returns ``{field: [monthly mean arrays]}``.  The paper evaluated
        SSH, velocity and temperature and "found [temperature] to be the
        most useful diagnostic variable for revealing differences"
        (section 6); the diagnostic-field ablation quantifies that
        choice on this model.
        """
        getters = {
            "temperature": lambda: self.state.temperature,
            "eta": lambda: self.state.eta,
        }
        for name in fields:
            if name not in getters:
                raise ConfigurationError(
                    f"unknown diagnostic field {name!r}; "
                    f"known: {sorted(getters)}"
                )
        steps_per_month = int(round(days_per_month * SECONDS_PER_DAY / self.dt))
        monthly = {name: [] for name in fields}
        for _ in range(months):
            acc = {name: np.zeros_like(getters[name]())
                   for name in fields}
            for _ in range(steps_per_month):
                self.step()
                for name in fields:
                    acc[name] += getters[name]()
            for name in fields:
                monthly[name].append(acc[name] / steps_per_month)
        return monthly

    # ------------------------------------------------------------------
    def perturb_temperature(self, magnitude=1.0e-14, seed=0):
        """Apply an O(``magnitude``) *relative* perturbation to ``T``.

        This is the paper's ensemble-generation device (section 6, "an
        order 1e-14 perturbation in the initial ocean temperature"),
        implemented CESM-style (the ``pertlim`` mechanism the referenced
        Baker et al. 2014 methodology uses): ``T <- T * (1 + eps * r)``
        with uniform ``r`` in [-1, 1] -- a relative perturbation, so an
        O(10 K) temperature receives an O(1e-13 K) absolute kick.
        """
        rng = make_rng(seed)
        noise = rng.uniform(-1.0, 1.0, self.state.temperature.shape)
        self.state.temperature = (
            self.state.temperature * (1.0 + magnitude * noise)
        ) * self.mask
        return self
