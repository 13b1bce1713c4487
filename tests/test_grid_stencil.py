"""Unit and property tests for the nine-point operator assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import GridError
from repro.grid import test_config as make_test_config
from repro.grid.metrics import uniform_metrics
from repro.grid.stencil import build_stencil, mass_coefficient
from repro.grid.topography import (
    aquaplanet_topography,
    earthlike_topography,
)
from repro.operators import extreme_eigenvalues, ocean_submatrix


class TestMassCoefficient:
    def test_value(self):
        # phi = 1/(g tau^2)
        assert mass_coefficient(100.0, gravity=10.0) == \
            pytest.approx(1.0 / (10.0 * 1e4))

    def test_theta_scaling(self):
        assert mass_coefficient(100.0, theta_c=2.0) == \
            pytest.approx(mass_coefficient(100.0) / 2.0)

    def test_invalid_inputs(self):
        with pytest.raises(GridError):
            mass_coefficient(0.0)
        with pytest.raises(GridError):
            mass_coefficient(100.0, theta_c=-1.0)


class TestAssembledStructure:
    @given(seed=st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_exact_symmetry_for_any_topography(self, seed):
        cfg = make_test_config(20, 28, seed=seed)
        assert cfg.stencil.symmetry_error() == 0.0

    def test_spd_on_ocean(self, small_config):
        matrix, idx = ocean_submatrix(small_config.stencil)
        lo, hi = extreme_eigenvalues(matrix)
        assert lo > 0.0 and hi > lo

    def test_edge_coeffs_vanish_when_isotropic(self, aqua_config):
        st_ = aqua_config.stencil
        for name in ("n", "s", "e", "w"):
            assert np.all(getattr(st_, name) == 0.0)
        assert st_.edge_to_corner_ratio() == 0.0

    def test_edge_coeffs_nonzero_when_anisotropic(self, aniso_config):
        assert aniso_config.stencil.edge_to_corner_ratio() > 0.0

    def test_corner_coeffs_negative_on_interior_ocean(self, aqua_config):
        ne = aqua_config.stencil.ne
        assert np.all(ne[:-1, :-1] < 0.0)

    def test_land_rows_identity(self, small_config):
        st_ = small_config.stencil
        land = ~small_config.mask
        assert np.all(st_.c[land] == 1.0)
        for name in ("n", "s", "e", "w", "ne", "nw", "se", "sw"):
            assert np.all(getattr(st_, name)[land] == 0.0)

    def test_no_coupling_into_land(self, small_config):
        """Ocean rows never reference land neighbors."""
        st_ = small_config.stencil
        mask = small_config.mask
        ny, nx = mask.shape
        offsets = {"n": (1, 0), "e": (0, 1), "ne": (1, 1), "nw": (1, -1)}
        for name, (dj, di) in offsets.items():
            coeff = getattr(st_, name)
            for j in range(ny):
                for i in range(nx):
                    jn, in_ = j + dj, i + di
                    if 0 <= jn < ny and 0 <= in_ < nx:
                        if mask[j, i] and not mask[jn, in_]:
                            assert coeff[j, i] == 0.0

    def test_stiffness_rows_sum_to_mass(self, aqua_config):
        """Away from boundaries, row sums equal phi * area (the
        stiffness part annihilates constants)."""
        st_ = aqua_config.stencil
        total = st_.c.copy()
        for name in ("n", "s", "e", "w", "ne", "nw", "se", "sw"):
            total += getattr(st_, name)
        inner = total[2:-2, 2:-2]
        expected = st_.phi * st_.area[2:-2, 2:-2]
        assert np.allclose(inner, expected, rtol=1e-12)

    def test_planes_are_read_only(self, small_config):
        """The digest memo and the kernel backends' cached operators
        snapshot the planes: a write raises instead of leaving a stale
        operator behind."""
        stencil = small_config.stencil
        for name in stencil.arrays():
            with pytest.raises(ValueError, match="read-only"):
                getattr(stencil, name)[0, 0] = 1.0

    def test_ocean_subspace_invariant(self, small_config):
        """A maps masked vectors to masked vectors."""
        from repro.operators import apply_stencil

        rng = np.random.default_rng(0)
        x = rng.standard_normal(small_config.shape) * small_config.mask
        y = apply_stencil(small_config.stencil, x)
        assert np.all(y[~small_config.mask] == 0.0)


class TestExtractBlock:
    def test_edge_couplings_zeroed(self, small_config):
        sub = small_config.stencil.extract_block(4, 12, 8, 20)
        assert np.all(sub.n[-1, :] == 0.0)
        assert np.all(sub.s[0, :] == 0.0)
        assert np.all(sub.e[:, -1] == 0.0)
        assert np.all(sub.w[:, 0] == 0.0)
        assert np.all(sub.ne[-1, :] == 0.0)
        assert np.all(sub.ne[:, -1] == 0.0)

    def test_diagonal_unchanged(self, small_config):
        sub = small_config.stencil.extract_block(4, 12, 8, 20)
        assert np.array_equal(sub.c, small_config.stencil.c[4:12, 8:20])

    def test_out_of_range_raises(self, small_config):
        with pytest.raises(GridError):
            small_config.stencil.extract_block(0, 100, 0, 4)

    def test_extracted_block_is_spd(self, small_config):
        from repro.operators import ocean_submatrix as subm

        sub = small_config.stencil.extract_block(4, 16, 8, 24)
        if sub.mask.any():
            matrix, _ = subm(sub)
            lo, _ = extreme_eigenvalues(matrix)
            assert lo > 0.0


class TestSimplified:
    def test_simplified_drops_edges_keeps_corners(self, aniso_config):
        simp = aniso_config.stencil.simplified()
        for name in ("n", "s", "e", "w"):
            assert np.all(getattr(simp, name) == 0.0)
        assert np.array_equal(simp.ne, aniso_config.stencil.ne)
        assert np.array_equal(simp.c, aniso_config.stencil.c)


class TestBuildErrors:
    def test_phi_must_be_positive(self):
        metrics = uniform_metrics(8, 8)
        topo = aquaplanet_topography(8, 8)
        with pytest.raises(GridError):
            build_stencil(metrics, topo, phi=0.0)

    def test_shape_mismatch(self):
        metrics = uniform_metrics(8, 8)
        topo = aquaplanet_topography(6, 8)
        with pytest.raises(GridError):
            build_stencil(metrics, topo, phi=1e-8)

    def test_depth_floor_requires_mass_rows(self):
        metrics = uniform_metrics(12, 12)
        topo = earthlike_topography(12, 12, seed=1)
        with pytest.raises(GridError):
            build_stencil(metrics, topo, phi=1e-8, depth_floor=10.0,
                          land_rows="identity")

    def test_unknown_land_rows(self):
        metrics = uniform_metrics(8, 8)
        topo = aquaplanet_topography(8, 8)
        with pytest.raises(GridError):
            build_stencil(metrics, topo, phi=1e-8, land_rows="zero")

    def test_mass_rows_embedding_symmetric(self):
        metrics = uniform_metrics(16, 16)
        topo = earthlike_topography(16, 16, seed=2)
        st_ = build_stencil(metrics, topo, phi=1e-8, land_rows="mass",
                            depth_floor=100.0)
        assert st_.symmetry_error() == 0.0
        # embedding makes every interior NE coupling nonzero
        assert np.all(st_.ne[:-1, :-1] != 0.0)
