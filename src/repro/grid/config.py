"""Named grid configurations.

The paper evaluates the two most used POP horizontal resolutions
(section 5): the nominal 1-degree grid, ``320 x 384`` (nx x ny), and the
eddy-resolving 0.1-degree grid, ``3600 x 2400``.  This module packages a
grid's metrics, topography, stencil and time step into a single
:class:`GridConfig`, and provides *scaled* variants (same anisotropy and
land-mask statistics, proportionally fewer points) so tests and default
benchmarks run in seconds while full-size runs remain available.

Key conditioning facts reproduced here (paper section 4.3):

* the 1-degree grid's zonal spacing is ~2.4x its meridional spacing at
  low latitudes, while the 0.1-degree grid's ratio is ~1.5 -- hence the
  high-resolution operator has a *smaller* condition number and needs
  fewer solver iterations;
* the 0.1-degree time step is much shorter (500 steps/day vs ~45), which
  raises ``phi`` and further improves conditioning.
"""

from dataclasses import dataclass

import numpy as np

from repro.core.cache import digest_of
from repro.core.constants import SECONDS_PER_DAY
from repro.core.errors import ConfigurationError
from repro.grid.metrics import GridMetrics, dipole_metrics, uniform_metrics
from repro.grid.stencil import StencilCoeffs, build_stencil, mass_coefficient
from repro.grid.topography import (
    Topography,
    aquaplanet_topography,
    earthlike_topography,
)


@dataclass
class GridConfig:
    """A fully assembled grid: metrics + topography + operator + stepping.

    Attributes
    ----------
    name:
        Configuration name (e.g. ``"pop_1deg"``).
    metrics, topo:
        The grid metrics and topography.
    stencil:
        The assembled barotropic operator ``A``.
    dt:
        Baroclinic time step in seconds (the ``tau`` of ``phi(tau)``).
    steps_per_day:
        Number of barotropic solves per simulated day.
    """

    name: str
    metrics: GridMetrics
    topo: Topography
    stencil: StencilCoeffs
    dt: float
    steps_per_day: int

    @property
    def shape(self):
        """Grid shape ``(ny, nx)``."""
        return self.metrics.shape

    @property
    def ny(self):
        return self.metrics.shape[0]

    @property
    def nx(self):
        return self.metrics.shape[1]

    @property
    def mask(self):
        """Boolean ocean mask."""
        return self.topo.mask

    @property
    def n_ocean(self):
        """Ocean point count."""
        return self.topo.n_ocean

    def content_digest(self):
        """SHA-256 digest of the grid *content* (memoized).

        Combines the stencil digest (coefficients + mask + ``phi``) with
        the topography depths, grid metrics and time stepping, so two
        configurations that merely share a ``name`` -- e.g. ``pop_1deg``
        built from two different seeds -- can never collide in a cache
        key.  The instance is treated as immutable after assembly.
        """
        cached = getattr(self, "_content_digest", None)
        if cached is None:
            cached = digest_of(
                "grid-config",
                self.stencil.content_digest(),
                np.asarray(self.topo.depth, dtype=np.float64),
                self.metrics.dxt, self.metrics.dyt,
                self.metrics.dxu, self.metrics.dyu,
                float(self.dt), int(self.steps_per_day),
            )
            object.__setattr__(self, "_content_digest", cached)
        return cached

    def describe(self):
        """One-line human-readable summary."""
        return (
            f"{self.name}: {self.ny}x{self.nx}, "
            f"{self.topo.land_fraction:.0%} land, dt={self.dt:.0f}s, "
            f"{self.steps_per_day} solves/day, "
            f"mean anisotropy {self.metrics.mean_anisotropy():.2f}"
        )


def _assemble(name, ny, nx, seed, dt, steps_per_day, zonal_res_deg,
              merid_res_deg, land_fraction=0.34, theta_c=1.0):
    """Shared constructor for the POP-like configurations.

    ``zonal_res_deg / merid_res_deg`` sets the low-latitude anisotropy;
    the dipole metrics generator is then scaled so its mean spacing
    matches the nominal resolutions.
    """
    metrics = dipole_metrics(ny, nx)
    # Rescale dx so the equatorial dx/dy ratio matches the target.
    current = metrics.dxt[ny // 2, :].mean() / metrics.dyt[ny // 2, :].mean()
    target = zonal_res_deg / merid_res_deg
    factor = target / current
    metrics = GridMetrics(
        dxt=metrics.dxt * factor, dyt=metrics.dyt,
        dxu=metrics.dxu * factor, dyu=metrics.dyu,
        lat=metrics.lat, lon=metrics.lon,
    )
    topo = earthlike_topography(ny, nx, seed=seed,
                                land_fraction=land_fraction, lat=metrics.lat)
    phi = mass_coefficient(dt, theta_c=theta_c)
    stencil = build_stencil(metrics, topo, phi)
    return GridConfig(name=name, metrics=metrics, topo=topo, stencil=stencil,
                      dt=dt, steps_per_day=steps_per_day)


def pop_1deg(seed=20150101, scale=1.0):
    """The nominal 1-degree configuration: 320 x 384 (nx x ny).

    1-degree POP uses ~45 barotropic solves per day (dt ~ 1920 s) and a
    zonal/meridional spacing ratio of ~2.4 at low latitudes (1.125
    degrees of longitude vs ~0.47 degrees of latitude on average).
    ``scale < 1`` shrinks the grid proportionally while preserving both
    ratios; the time step is stretched by ``1/scale`` (a coarser grid
    takes a longer stable step), which keeps ``phi * area`` relative to
    the stencil -- and hence the operator's conditioning and the EVP
    marching stability -- invariant across scales.  ``steps_per_day``
    always describes the *full-resolution* production cadence the timing
    experiments model.
    """
    ny, nx = _scaled_shape(384, 320, scale)
    steps = 45
    return _assemble(
        name=_scaled_name("pop_1deg", scale), ny=ny, nx=nx, seed=seed,
        dt=(SECONDS_PER_DAY / steps) / scale, steps_per_day=steps,
        zonal_res_deg=1.125, merid_res_deg=0.47,
    )


def pop_0p1deg(seed=20150102, scale=1.0):
    """The 0.1-degree eddy-resolving configuration: 3600 x 2400.

    500 barotropic solves per day (paper section 5.2: ``dt_count = 500``)
    and near-isotropic cells (ratio ~1.5 at the equator, closer to 1 in
    mid-latitudes).  The full grid is 8.6M points; pass ``scale`` to get
    a proportionally smaller grid with the same conditioning character
    (e.g. ``scale = 0.25`` -> 900 x 600): as in :func:`pop_1deg`, the
    time step stretches by ``1/scale`` so ``phi * area`` stays invariant,
    while ``steps_per_day`` keeps the full-resolution cadence.
    """
    ny, nx = _scaled_shape(2400, 3600, scale)
    steps = 500
    return _assemble(
        name=_scaled_name("pop_0.1deg", scale), ny=ny, nx=nx, seed=seed,
        dt=(SECONDS_PER_DAY / steps) / scale, steps_per_day=steps,
        zonal_res_deg=0.1, merid_res_deg=0.0664,
    )


def _scaled_shape(ny, nx, scale):
    if scale <= 0 or scale > 1:
        raise ConfigurationError(f"scale must lie in (0, 1], got {scale}")
    return max(int(round(ny * scale)), 16), max(int(round(nx * scale)), 16)


def _scaled_name(base, scale):
    return base if scale == 1.0 else f"{base}@{scale:g}"


def scaled_config(base_name, scale, seed=None):
    """A proportionally scaled variant of a named configuration."""
    if base_name == "pop_1deg":
        return pop_1deg(scale=scale, **({} if seed is None else {"seed": seed}))
    if base_name in ("pop_0.1deg", "pop_0p1deg"):
        return pop_0p1deg(scale=scale, **({} if seed is None else {"seed": seed}))
    raise ConfigurationError(f"unknown base configuration {base_name!r}")


def test_config(ny=48, nx=64, seed=7, land_fraction=0.3, dt=1800.0,
                aquaplanet=False, dx=1.0e5, dy=1.0e5):
    """A small uniform-metric configuration for unit tests and examples.

    Uniform spacing makes analytic reasoning easy (e.g. edge stencil
    coefficients vanish exactly when ``dx == dy``).
    """
    metrics = uniform_metrics(ny, nx, dx=dx, dy=dy)
    if aquaplanet:
        topo = aquaplanet_topography(ny, nx)
    else:
        topo = earthlike_topography(ny, nx, seed=seed,
                                    land_fraction=land_fraction,
                                    lat=metrics.lat)
    phi = mass_coefficient(dt)
    stencil = build_stencil(metrics, topo, phi)
    return GridConfig(name=f"test_{ny}x{nx}", metrics=metrics, topo=topo,
                      stencil=stencil, dt=dt,
                      steps_per_day=int(SECONDS_PER_DAY / dt))


#: Registry of named configurations (callables, so nothing heavy is
#: built at import time).
NAMED_CONFIGS = {
    "pop_1deg": pop_1deg,
    "pop_0.1deg": pop_0p1deg,
    "pop_0p1deg": pop_0p1deg,
    "test": test_config,
}


def get_config(name, **kwargs):
    """Instantiate a configuration from :data:`NAMED_CONFIGS` by name."""
    if name not in NAMED_CONFIGS:
        raise ConfigurationError(
            f"unknown configuration {name!r}; known: {sorted(NAMED_CONFIGS)}"
        )
    return NAMED_CONFIGS[name](**kwargs)
