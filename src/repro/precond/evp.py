"""The block Error-Vector-Propagation (EVP) preconditioner (paper §4).

Idea
----
Block-Jacobi preconditioning solves ``B_i x_i = y_i`` independently on
every block, where ``B_i`` is the diagonal sub-block of ``A``.  Solving
those small elliptic systems by LU costs ``O(n^4)``; the EVP *marching*
method (Roache 1995) does it in ``O(n^2)`` per solve after an
``O(n^3)`` one-time setup -- "one of the least costly algorithms for
solving elliptic equations in serial" (paper section 4.2).

Marching.  The nine-point equation centered at ``(j, i)`` can be solved
for its northeast unknown ``x[j+1, i+1]`` (paper Eq. 4).  Guessing the
values on the block's south row and west column (the *ring* ``e``, size
``k = my + mx - 1``) lets one sweep northeastward and fill the whole
block.  The equations centered on the north and east edges (also ``k``
of them) remain unsatisfied; their residuals ``F`` depend *linearly* on
the ring-guess error, ``F = W (e - e_true)``.  The influence matrix
``W`` is built once by marching the ``k`` unit ring vectors (paper
Algorithm 3); afterwards every solve is march -> correct ring by
``-W^-1 F`` -> march again.

Stability and tiling.  Marching amplifies round-off roughly by
``|c / ne|`` per step, so EVP is only usable on small domains -- the
paper quotes ~1e-8 round-off at 12x12 in double precision.  Larger
process blocks are therefore *tiled* into sub-blocks of at most
``tile_size`` points per side, each solved exactly; the preconditioner
is then block-Jacobi at tile granularity.  Tiles never cross process
boundaries, so application remains communication-free.

Land.  Marching divides by the NE coupling, which is exactly zero
wherever land interrupts the stencil.  Following the porous-land device
of elliptic marching codes (Roache 1995; Dietrich's DieCAST family), the
preconditioner is built from an *epsilon-land embedded* operator: land
cells are assigned a small fictitious depth (``land_epsilon`` times the
maximum depth), making every coupling nonzero while leaving the
preconditioner a close approximation of ``A`` on ocean points.  Output
is masked, so the preconditioner remains SPD on the ocean subspace.
DESIGN.md section 6 records this substitution; the ``land_epsilon``
ablation bench measures its effect.

Simplified stencil.  On near-isotropic cells the N/S/E/W coefficients
are an order of magnitude smaller than the corner ones; dropping them
halves the marching cost (5 vs 9 coefficient MACs per point) "without
any significant impact on the convergence rate" (paper section 4.3).
``simplified=True`` (the default, as in the paper) does exactly that.
"""

import numpy as np

from repro.core.cache import CACHE_FORMAT_VERSION, decomp_signature, digest_of
from repro.core.errors import SolverError
from repro.grid.stencil import build_stencil
from repro.kernels import resolve_kernels
from repro.kernels.base import EvpLayout
from repro.parallel.decomposition import _split_extent
from repro.precond.base import Preconditioner

#: Default maximum tile side, per the paper's 12x12 stability bound.
DEFAULT_TILE_SIZE = 12

#: Default fictitious relative depth for land cells in the embedded
#: operator (fraction of the maximum ocean depth).
DEFAULT_LAND_EPSILON = 0.1

# Marching terms: coefficient name -> (dj, di) neighbor offset.  The NE
# term is the one solved for and is excluded.
_ALL_TERMS = (
    ("c", 0, 0),
    ("n", 1, 0),
    ("s", -1, 0),
    ("e", 0, 1),
    ("w", 0, -1),
    ("nw", 1, -1),
    ("se", -1, 1),
    ("sw", -1, -1),
)


class EVPTileEngine:
    """Batched EVP solver for a group of same-shape tiles.

    Parameters
    ----------
    coeffs:
        Dict mapping the nine coefficient names to stacked arrays of
        shape ``(B, my, mx)`` -- one slice per tile, couplings crossing
        the tile edge already zeroed (see
        :meth:`StencilCoeffs.extract_block`).
    influence:
        Optional ``(w, r)`` pair of precomputed ``(B, k, k)`` influence
        matrices and their inverses (from a previous engine's
        :attr:`influence_matrix` / :attr:`correction_matrix`, typically
        via the artifact cache).  Skips the ``O(n^3)`` construction;
        mismatched shapes fall back to a fresh build.
    kernels:
        Kernels (``"numpy"``, ``"fused"``, an instance or ``None`` for
        the fused default) that execute :meth:`solve`.
        Setup -- influence-matrix construction and the ring-correction
        factors -- always runs the deterministic reference sweep, so
        the matrices (and anything cached from them) are identical
        under every backend.

    The engine marches all ``B`` tiles in lockstep along anti-diagonals,
    so the Python-level loop is ``O(my + mx)`` regardless of the batch
    size.
    """

    def __init__(self, coeffs, influence=None, kernels=None):
        self.kernels = resolve_kernels(kernels)
        self.coeffs = {name: np.ascontiguousarray(arr, dtype=np.float64)
                       for name, arr in coeffs.items()}
        batch, my, mx = self.coeffs["c"].shape
        self.batch = batch
        self.my = my
        self.mx = mx
        self.k = my + mx - 1

        ne = self.coeffs["ne"]
        # Interior centers (the marched equations) must have a nonzero
        # NE coupling; tile-edge NE couplings are zeroed by extraction.
        if my > 1 and mx > 1 and np.any(ne[:, :-1, :-1] == 0.0):
            raise SolverError(
                "EVP marching requires nonzero NE couplings at interior "
                "centers; build the preconditioner from the epsilon-land "
                "embedded operator (see EVPBlockPreconditioner)"
            )
        # Skip terms whose coefficients vanish identically (the
        # simplified stencil drops n/s/e/w, halving the marching work).
        self.terms = [
            (name, dj, di) for name, dj, di in _ALL_TERMS
            if np.any(self.coeffs[name] != 0.0) or name == "c"
        ]
        self._diagonals = self._build_diagonals()
        self._ring_rows, self._ring_cols = self._ring_indices()
        self._march_steps = self._build_march_steps()
        #: Reference-sweep scratch by length, for one batch width.
        self._march_scratch = (None, {})
        self._w = None
        self._r = None
        if influence is not None:
            w, r = influence
            expect = (self.batch, self.k, self.k)
            if (getattr(w, "shape", None) == expect
                    and getattr(r, "shape", None) == expect):
                self._w = np.ascontiguousarray(w, dtype=np.float64)
                self._r = np.ascontiguousarray(r, dtype=np.float64)
        if self._w is None:
            self._build_influence()
        # Pre-transposed correction factors: the ring update is one
        # batched BLAS matmul ``f @ R^T`` (see :meth:`ring_rows`).
        self._rT = np.ascontiguousarray(np.swapaxes(self._r, 1, 2))
        self._plan = self.kernels.prepare_evp(self)

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def _build_diagonals(self):
        """Per anti-diagonal, the interior-center index arrays."""
        my, mx = self.my, self.mx
        diagonals = []
        # Interior centers: ty in [0, my-2], tx in [0, mx-2].
        for d in range(0, (my - 2) + (mx - 2) + 1):
            ty = np.arange(max(0, d - (mx - 2)), min(my - 2, d) + 1)
            tx = d - ty
            if ty.size:
                diagonals.append((ty, tx))
        return diagonals

    def _ring_indices(self):
        """Padded-frame coordinates of the ring ``e`` in canonical order.

        Order: south tile row (west to east), then west tile column
        (second row northward).
        """
        my, mx = self.my, self.mx
        rows = [1] * mx + list(range(2, my + 1))
        cols = list(range(1, mx + 1)) + [1] * (my - 1)
        return np.asarray(rows), np.asarray(cols)

    # ------------------------------------------------------------------
    # marching
    # ------------------------------------------------------------------
    def _build_march_steps(self):
        """Precompute, per anti-diagonal, flat indices and pre-gathered
        coefficient values.

        Marching is the preconditioner's hot path; doing the
        two-dimensional fancy indexing once at setup and flattening the
        state to 1-D gathers cuts the per-application cost severalfold.
        Each step is ``(y_src, inv_ne, target, [(coeff_vals, p_src),...])``
        where flat indices address the padded ``(my+2)*(mx+2)`` state and
        ``coeff_vals``/``inv_ne`` have shape ``(B, L)``.
        """
        my, mx = self.my, self.mx
        width = mx + 2
        steps = []
        ne = self.coeffs["ne"]
        for ty, tx in self._diagonals:
            y_src = ty * mx + tx
            target = (ty + 2) * width + (tx + 2)
            inv_ne = 1.0 / ne[:, ty, tx]
            terms = []
            for name, dj, di in self.terms:
                vals = np.ascontiguousarray(self.coeffs[name][:, ty, tx])
                if not np.any(vals):
                    continue
                p_src = (ty + 1 + dj) * width + (tx + 1 + di)
                terms.append((vals, p_src))
            steps.append((y_src, np.ascontiguousarray(inv_ne), target, terms))
        return steps

    def _march(self, p, y):
        """Fill ``p`` northeastward from its ring values.

        ``p`` is ``(B, my+2, mx+2, n)`` and ``y`` ``(B, my, mx, n)``:
        ``n`` columns -- one for a single right-hand side, ``nrhs`` for a
        batch, the ``k`` unit ring vectors while the influence matrix is
        built.  The ``(B, L)`` coefficients broadcast over the columns,
        so every column runs the single-RHS elementwise sequence.  The
        ring must already be set and everything else zero.  Each step
        gathers into a reused ``(B, L, n)`` scratch buffer per
        anti-diagonal length and updates it in place.
        """
        n = p.shape[3]
        pf = p.reshape(self.batch, (self.my + 2) * (self.mx + 2), n)
        yf = y.reshape(self.batch, self.my * self.mx, n)
        for y_src, inv_ne, target, terms in self._march_steps:
            rhs = self._rhs_scratch(y_src.shape[0], n)
            np.take(yf, y_src, axis=1, out=rhs)
            for vals, p_src in terms:
                np.subtract(rhs, vals[..., None] * pf[:, p_src], out=rhs)
            np.multiply(rhs, inv_ne[..., None], out=rhs)
            pf[:, target] = rhs
        return p

    def _rhs_scratch(self, length, n):
        """The reused ``(B, length, n)`` right-hand-side buffer."""
        if self._march_scratch[0] != n:
            # Widths only shrink within a solve: keep the current one.
            self._march_scratch = (n, {})
        pool = self._march_scratch[1]
        buf = pool.get(length)
        if buf is None:
            buf = pool[length] = np.empty((self.batch, length, n))
        return buf

    def _edge_residuals(self, p, y):
        """Residuals of the unmarched (north/east edge) equations of the
        states ``p`` (see :meth:`_march`): ``(B, k, n)``.

        Order: north edge west-to-east (``mx`` values), then east edge
        south-to-north excluding the NE corner (``my - 1`` values); per
        equation ``-y`` plus each term's product, NE last, the
        coefficients broadcast over the columns.
        """
        my, mx = self.my, self.mx
        f = np.empty((self.batch, self.k, p.shape[3]))
        terms = list(self.terms) + [("ne", 1, 1)]

        # north edge: centers (my-1, tx) for tx in [0, mx)
        ty = my - 1
        acc = -y[:, ty]
        for name, dj, di in terms:
            acc = acc + (self.coeffs[name][:, ty, :, None]
                         * p[:, ty + 1 + dj, 1 + di:1 + di + mx])
        f[:, :mx] = acc

        if my > 1:
            # east edge: centers (ty, mx-1) for ty in [0, my-1)
            tx = mx - 1
            acc = -y[:, :my - 1, tx]
            for name, dj, di in terms:
                acc = acc + (self.coeffs[name][:, :my - 1, tx, None]
                             * p[:, 1 + dj:my + dj, tx + 1 + di])
            f[:, mx:] = acc
        return f

    # ------------------------------------------------------------------
    # influence matrix
    # ------------------------------------------------------------------
    def _build_influence(self):
        """March the ``k`` unit ring vectors and factor the response.

        The unit vectors are ``k`` columns of one march (see
        :meth:`_march`), so the memory cost is one ``(B, my+2, mx+2, k)``
        state, and their edge residuals are ``W``: row ``i`` an edge
        equation, column ``j`` its response to unit ring vector ``j``.

        The correction operator is obtained by LU-solving ``W X = I``
        (``np.linalg.solve`` runs one batched getrf/getrs -- a Doolittle
        factorization plus two triangular sweeps per tile) rather than
        the old explicit ``np.linalg.inv``.  The result is still stored
        as the dense ``correction_matrix`` so cached influence payloads
        keep their ``(W, W^-1)`` layout; singular responses (possible
        only on degenerate embedded operators) fall back to the
        pseudo-inverse as before.
        """
        b, k, my, mx = self.batch, self.k, self.my, self.mx
        p = np.zeros((b, my + 2, mx + 2, k))
        p[:, self._ring_rows, self._ring_cols, np.arange(k)] = 1.0
        y = np.zeros((b, my, mx, k))
        self._march(p, y)
        self._w = self._edge_residuals(p, y)
        # Solves march at their own widths: keep no k-wide scratch.
        self._march_scratch = (None, {})
        # (k, k) would be read as a stack of vectors under numpy's
        # solve broadcasting; expand to an explicit (B, k, k) identity.
        identity = np.broadcast_to(np.eye(k), (b, k, k))
        try:
            self._r = np.linalg.solve(self._w, identity)
        except np.linalg.LinAlgError:
            self._r = np.linalg.pinv(self._w)

    @property
    def influence_matrix(self):
        """The ``(B, k, k)`` influence matrices ``W`` (read-only)."""
        return self._w

    @property
    def correction_matrix(self):
        """The ``(B, k, k)`` inverses ``W^-1`` used by :meth:`solve`."""
        return self._r

    def influence_condition(self):
        """Per-tile condition number of ``W`` -- the round-off driver."""
        return np.linalg.cond(self._w)

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def ring_rows(self, f, out):
        """``out[c, i, 0] = f[c, i] @ R_i^T`` for every column ``c`` and
        tile ``i``: the ring correction before its negation.

        ``f`` is a C-contiguous ``(n, B, k)`` array of edge residuals and
        ``out`` an ``(n, B, 1, k)`` array.  One gufunc matmul over the
        ``(n, B)`` batch of ``(1, k) @ (k, k)`` slices against the
        pre-transposed LU-derived factors; each slice is the contiguous
        row vector a single right-hand side's tile gives the same inner
        kernel, so every column's ring is bit-identical to its
        standalone solve.  (One fused ``(k, k) @ (k, n)`` gemm would be
        faster still but could legally reorder the per-element
        accumulation.)  Shared by every kernel backend -- the correction
        is part of the engine's backend-independent setup, which is what
        keeps solver iterates bit-identical across the deterministic
        backends and cached influence payloads valid under all of them.
        """
        np.matmul(f[:, :, None, :], self._rT, out=out)
        return out

    def ring_correction(self, f):
        """The ring update ``-W^-1 F`` from the ``(B, k, n)`` edge
        residuals ``F`` of :meth:`_edge_residuals`: a fresh array of the
        same layout, :meth:`ring_rows` negated (exactly)."""
        cols = np.ascontiguousarray(np.moveaxis(f, 2, 0))
        ring = -self.ring_rows(cols, np.empty(cols.shape[:2] + (1, self.k)))
        return np.moveaxis(ring[:, :, 0], 0, 2)

    def solve(self, y, out=None):
        """Solve ``B_i x_i = y_i`` for every tile in the batch.

        ``y`` has shape ``(B, my, mx)``; returns ``x`` of the same
        shape (written into ``out`` when given), exact up to marching
        round-off.  Executed by the engine's kernel backend: march ->
        edge residuals -> :meth:`ring_correction` -> march again.
        """
        return self.kernels.evp_solve(self, self._plan, y, out=out)

    def slots(self):
        """The backend's cell layout (:meth:`KernelBackend.evp_slots`)."""
        return self.kernels.evp_slots(self, self._plan)

    def solve_slots(self, y, x, nrhs):
        """:meth:`solve` on buffers laid out as :meth:`slots` says."""
        self.kernels.evp_run(self, self._plan, y, x, nrhs)

    # ------------------------------------------------------------------
    # cost accounting (paper section 4.2 / 4.3)
    # ------------------------------------------------------------------
    @property
    def stencil_terms(self):
        """Coefficient MACs per marched point (9 full, 5 simplified)."""
        return len(self.terms) + 1  # + the NE divide

    def solve_flops_per_tile(self):
        """Flop units per tile per solve: ``2 * nnz * n^2 + k^2``.

        Matches the paper's ``C_evp = 2 * 9 n^2 + (2n-5)^2`` for the full
        stencil and ``T'_p = 14 n^2`` for the simplified one.
        """
        return 2 * self.stencil_terms * self.my * self.mx + self.k * self.k

    def setup_flops_per_tile(self):
        """One-time cost per tile: ``k * nnz * n^2 + k^3`` (paper C_pre)."""
        return (self.k * self.stencil_terms * self.my * self.mx
                + self.k ** 3)


class EVPBlockPreconditioner(Preconditioner):
    """Block-Jacobi preconditioner with EVP tile solves (paper §4.3).

    Parameters
    ----------
    stencil:
        The true operator ``A`` (used for the mask and shape).
    decomp:
        Block decomposition; tiles never cross block boundaries so the
        preconditioner needs no communication.  ``None`` treats the whole
        grid as one process block.
    metrics, topo:
        Grid metrics and topography, required to build the epsilon-land
        embedded operator whenever the mask contains land.  (Convenience:
        :func:`evp_for_config` wires these from a ``GridConfig``.)
    tile_size:
        Maximum tile side (default 12, the paper's stability bound).
    land_epsilon:
        Fictitious relative land depth for the embedded operator.
    simplified:
        Drop the N/S/E/W coefficients in the marching operator (paper
        section 4.3; halves the cost, default True).
    embedded_stencil:
        Pre-built embedded operator; overrides ``metrics``/``topo``.
    influence_state:
        Optional dict of precomputed influence arrays (as returned by
        :meth:`influence_state`, typically loaded from the artifact
        cache); shape groups found in it skip their ``O(n^3)``
        influence-matrix construction.
    kernels:
        Kernels executing the tile solves (``"numpy"``, ``"fused"``, an
        instance or ``None`` for the fused default); resolved once
        and shared by every shape group's engine.  Not part of
        :meth:`cache_token`: backends change execution strategy, not
        the operator ``M``.
    """

    name = "evp"

    def __init__(self, stencil, decomp=None, *, metrics=None, topo=None,
                 tile_size=DEFAULT_TILE_SIZE,
                 land_epsilon=DEFAULT_LAND_EPSILON, simplified=True,
                 embedded_stencil=None, influence_state=None,
                 kernels=None):
        super().__init__(stencil, decomp=decomp, kernels=kernels)
        if tile_size < 1:
            raise SolverError(f"tile_size must be >= 1, got {tile_size}")
        self.tile_size = int(tile_size)
        self.simplified = bool(simplified)
        self.land_epsilon = float(land_epsilon)

        if embedded_stencil is None:
            if self.mask.all():
                embedded_stencil = stencil
            elif metrics is not None and topo is not None:
                max_depth = float(np.max(topo.depth))
                embedded_stencil = build_stencil(
                    metrics, topo, stencil.phi, land_rows="mass",
                    depth_floor=self.land_epsilon * max_depth,
                )
            else:
                raise SolverError(
                    "the mask contains land, so the EVP preconditioner needs "
                    "metrics and topo (or a pre-built embedded_stencil) to "
                    "construct its epsilon-land embedded operator"
                )
        if self.simplified:
            embedded_stencil = embedded_stencil.simplified()
        self.embedded_stencil = embedded_stencil

        self._tiles = self._make_tiles()
        self._engines, self._groups = self._build_engines(influence_state)
        self._mask_f = self.mask.astype(np.float64)
        # Every group's right-hand sides share one buffer and every
        # group's solutions another (row ``_x_size`` is never written:
        # the zero that cells outside all tiles read back).
        self._layout = []
        self._y_size = self._x_size = 0
        for shape, engine in self._engines.items():
            x_size = engine.slots()[2]
            y_size = engine.batch * shape[0] * shape[1]
            self._layout.append((
                shape, engine,
                slice(self._y_size, self._y_size + y_size),
                slice(self._x_size, self._x_size + x_size)))
            self._y_size += y_size
            self._x_size += x_size
        #: Per layout (global, stack, a rank's block): where the tiles
        #: sit (:meth:`_compile`) and, once a take needs them, its cell
        #: maps (:meth:`_cell_maps`).
        self._maps = {}
        self._takes = {}
        #: The buffers and each engine's views of them, for one width.
        self._work = None
        #: The last mask :meth:`span_operands` was handed, and whether it
        #: is this preconditioner's.
        self._ocean = (None, False)
        self._rank_solve_flops = self._accumulate_rank_flops(
            EVPTileEngine.solve_flops_per_tile)
        self._rank_setup_flops = self._accumulate_rank_flops(
            EVPTileEngine.setup_flops_per_tile)

    # ------------------------------------------------------------------
    # tiling
    # ------------------------------------------------------------------
    def _make_tiles(self):
        """Split every process block into tiles of side <= tile_size.

        Returns a list of ``(rank, j0, j1, i0, i1)`` tuples.
        """
        tiles = []
        if self.decomp is None:
            ny, nx = self.stencil.shape
            blocks = [(0, 0, ny, 0, nx)]
        else:
            blocks = [
                (rank, b.j0, b.j1, b.i0, b.i1)
                for rank, b in enumerate(self.decomp.active_blocks)
            ]
        for rank, j0, j1, i0, i1 in blocks:
            ny = j1 - j0
            nx = i1 - i0
            nty = max(1, -(-ny // self.tile_size))
            ntx = max(1, -(-nx // self.tile_size))
            for tj0, tj1 in _split_extent(ny, nty):
                for ti0, ti1 in _split_extent(nx, ntx):
                    tiles.append((rank, j0 + tj0, j0 + tj1, i0 + ti0, i0 + ti1))
        return tiles

    def _build_engines(self, influence_state=None):
        """Group tiles by shape and build one batched engine per group.

        ``influence_state`` (see :meth:`influence_state`) supplies
        precomputed influence matrices per shape group; groups found in
        it skip the ``O(n^3)`` construction.  Tile enumeration and the
        within-group stacking order are deterministic functions of the
        grid shape, decomposition and ``tile_size``, so the batch axis
        lines up across processes with the same inputs.
        """
        by_shape = {}
        for tidx, (rank, j0, j1, i0, i1) in enumerate(self._tiles):
            by_shape.setdefault((j1 - j0, i1 - i0), []).append(tidx)

        engines = {}
        groups = {}
        for shape, tile_indices in by_shape.items():
            stacked = {name: [] for name in
                       ("c", "n", "s", "e", "w", "ne", "nw", "se", "sw")}
            for tidx in tile_indices:
                _, j0, j1, i0, i1 = self._tiles[tidx]
                sub = self.embedded_stencil.extract_block(j0, j1, i0, i1)
                for name in stacked:
                    stacked[name].append(getattr(sub, name))
            coeffs = {name: np.stack(arrs) for name, arrs in stacked.items()}
            engines[shape] = EVPTileEngine(
                coeffs, influence=_influence_for_shape(influence_state, shape),
                kernels=self.kernels)
            groups[shape] = tile_indices
        return engines, groups

    def influence_state(self):
        """Per shape-group influence arrays, ready for npz persistence.

        Keys are ``w_<my>x<mx>`` / ``r_<my>x<mx>``.  Feeding the dict
        back through the ``influence_state`` constructor argument skips
        every group's ``O(n^3)`` influence build and reproduces
        ``apply_global``/``apply_stack`` output bit-identically: the
        marching coefficients are rebuilt from the stencil either way,
        and ``(W, W^-1)`` fully determine the ring correction.
        """
        arrays = {}
        for (my, mx), engine in self._engines.items():
            arrays[f"w_{my}x{mx}"] = engine.influence_matrix
            arrays[f"r_{my}x{mx}"] = engine.correction_matrix
        return arrays

    def cache_token(self):
        """Parameters that shape ``M`` (see :meth:`Preconditioner.cache_token`).

        The embedded-stencil digest subsumes ``land_epsilon`` and
        ``simplified`` (both change its content); the explicit fields
        keep the token readable and guard the degenerate all-ocean case.
        """
        return ("evp", self.tile_size, self.land_epsilon, self.simplified,
                self.embedded_stencil.content_digest())

    @property
    def n_tiles(self):
        """Number of EVP tiles across the whole grid."""
        return len(self._tiles)

    def _accumulate_rank_flops(self, per_tile):
        totals = {}
        for tidx, (trank, j0, j1, i0, i1) in enumerate(self._tiles):
            engine = self._engines[(j1 - j0, i1 - i0)]
            totals[trank] = totals.get(trank, 0) + per_tile(engine)
        return totals

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def _compile(self, key):
        """Where every tile cell sits in one layout.

        ``key`` is ``None`` (the global grid), ``"stack"`` (stacked rank
        interiors) or a rank (its block interior).  Returns ``(layout,
        engines, windows)``: the :class:`EvpLayout` the kernels move
        cells by -- without ``groups`` for a rank, whose map names only
        its own tiles (the others solve zeros) --, the engines with a
        tile in it and, per buffer group, the ``(pos, window)`` of those
        tiles.
        """
        blocks = None if self.decomp is None else self.decomp.active_blocks
        if key is None:
            shape, mask = self.stencil.shape, self._mask_f
        elif key == "stack":
            shape = (len(blocks),) + self.decomp.max_block_shape()
            mask = self.decomp.stack_interiors(self._mask_f)
        else:
            shape = (blocks[key].ny, blocks[key].nx)
            mask = self._mask_f[blocks[key].slices]
        covered = np.zeros(shape, dtype=bool)
        engines, groups, windows = [], [], []
        for (my, mx), engine, y_rows, x_rows in self._layout:
            picked, origins = [], []
            for pos, tidx in enumerate(self._groups[(my, mx)]):
                rank, j0, _, i0, _ = self._tiles[tidx]
                if key is None:
                    origin = (0, j0, i0)
                elif key == "stack" or key == rank:
                    b = blocks[rank]
                    origin = (rank if key == "stack" else 0,
                              j0 - b.j0, i0 - b.i0)
                else:
                    continue
                window = (slice(origin[1], origin[1] + my),
                          slice(origin[2], origin[2] + mx))
                if key == "stack":
                    window = (rank,) + window
                covered[window] = True
                picked.append((pos, window))
                origins.append(origin)
            if picked:
                engines.append(engine)
            windows.append(picked)
            groups.append((engine, np.array(origins, dtype=np.int64),
                           y_rows, x_rows))
        whole = all(len(origins) == engine.batch
                    for engine, origins, _, _ in groups)
        layout = EvpLayout(shape, np.ascontiguousarray(mask),
                           groups if whole else None, _runs(~covered))
        return layout, engines, windows

    def _cell_maps(self, key):
        """The cell maps of a layout, for numpy's takes: ``(y_dst,
        y_src, x_idx)``.  The solve reads layout cell ``y_src[i]`` into
        right-hand-side row ``y_dst[i]`` (``None``: row ``i``, every row
        is some tile's) and cell ``c`` reads its solution back from row
        ``x_idx[c]``, the zero row when no tile covers it (eliminated
        land blocks, pad cells of ragged stacks).  Built on first use:
        a layout the kernels gather and scatter never needs them.
        """
        maps = self._takes.get(key)
        if maps is not None:
            return maps
        layout, _, windows = self._maps[key]
        cell = np.arange(int(np.prod(layout.shape)),
                         dtype=np.intp).reshape(layout.shape)
        x_idx = np.full(layout.shape, self._x_size, dtype=np.intp)
        dst, src = [], []
        for (_, engine, y_rows, x_rows), picked in zip(self._layout, windows):
            y_slot, x_slot, _ = engine.slots()
            for pos, window in picked:
                x_idx[window] = x_rows.start + x_slot[pos]
                dst.append(y_rows.start + y_slot[pos].ravel())
                src.append(cell[window].ravel())
        dst, src = np.concatenate(dst), np.concatenate(src)
        if dst.size == self._y_size:
            y_src = np.empty_like(src)
            y_src[dst] = src
            dst, src = None, y_src
        maps = self._takes[key] = (dst, src, x_idx)
        return maps

    def span_operands(self, stacked, n, mask=None):
        """``("evp", layout, (y, x), dots)``: the
        :class:`~repro.kernels.base.EvpLayout` of the global grid or,
        with ``stacked``, of the stacked rank interiors (which needs a
        decomposition), the buffers of :meth:`_working_set` at width
        ``n``, and -- for a span whose dots weigh cells by ``mask`` --
        their ``(weights, extents)``: the layout's 0.0 / 1.0 mask, which
        is ``mask``'s weights where ``mask`` is this preconditioner's
        (checked once per mask; another declines), and every rank's
        ``(ny, nx)`` window on a ragged stack (``None``: whole blocks).
        ``dots`` is ``None`` without a ``mask``."""
        if stacked and self.decomp is None:
            return None
        if mask is not None and self._ocean[0] is not mask:
            self._ocean = (mask, np.array_equal(mask, self.mask))
        if mask is not None and not self._ocean[1]:
            return None
        y, x, _ = self._working_set(n)
        layout = self._mapped("stack" if stacked else None)[0]
        dots = None
        if mask is not None:
            extents = None
            if stacked and not self.decomp.is_uniform:
                extents = np.array([(b.ny, b.nx)
                                    for b in self.decomp.active_blocks],
                                   dtype=np.int64)
            dots = (layout.mask, extents)
        return "evp", layout, (y, x), dots

    def _mapped(self, key):
        """:meth:`_compile` of ``key``, once."""
        if key not in self._maps:
            self._maps[key] = self._compile(key)
        return self._maps[key]

    def _working_set(self, n):
        """Buffers ``(y, x)`` of width ``n`` plus each engine's views.

        One width at a time (a batch only narrows within a solve); the
        engines rebuild their programs when handed new views.
        """
        if self._work is None or self._work[0].shape[1] != n:
            y = np.empty((self._y_size, n))
            x = np.zeros((self._x_size + 1, n))
            views = {engine: (y[y_rows], x[x_rows])
                     for _, engine, y_rows, x_rows in self._layout}
            self._work = (y, x, views)
        return self._work

    def _apply(self, key, r, out):
        """Gather ``r`` into the engines' layout, solve, scatter the
        masked solutions into ``out`` -- where the kernels cannot (no
        library, a rank's own block), take the cells in and out with
        the layout's cell maps and multiply by the mask."""
        layout, engines, _ = self._mapped(key)
        boundary = layout.groups is not None
        nrhs = r.shape[-1] if r.ndim > len(layout.shape) else None
        y, x, views = self._working_set(nrhs or 1)
        if not (boundary and self.kernels.evp_gather(layout, r, y)):
            y_dst, y_src, _ = self._cell_maps(key)
            rows = r.reshape(-1, nrhs or 1)
            if y_dst is None:
                np.take(rows, y_src, axis=0, out=y, mode="clip")
            else:
                y.fill(0.0)
                y[y_dst] = rows[y_src]
        for engine in engines:
            engine.solve_slots(*views[engine], nrhs)
        if out is None:
            out = np.empty(r.shape)
        if boundary and self.kernels.evp_scatter(layout, x, out):
            return out
        np.take(x if nrhs else x[:, 0], self._cell_maps(key)[2], axis=0,
                out=out, mode="clip")
        return self._times(out, layout.mask, out, key)

    def apply_global(self, r, out=None):
        return self._apply(None, r, out)

    def apply_block(self, rank, r_interior, out=None):
        if self._rank_block(rank) is None:
            rank = None
        return self._apply(rank, r_interior, out)

    def apply_stack(self, r_stack, out=None):
        """Batched application over stacked rank interiors.

        Every tile of every rank is solved in one pass -- no per-rank
        loop.  Bit-identical to the per-rank path: tile solves are
        elementwise-independent along the batch axis, so solving all
        tiles at once matches solving each rank's subset with the rest
        zeroed.
        """
        if self.decomp is None:
            return super().apply_stack(r_stack, out=out)
        return self._apply("stack", r_stack, out)

    # ------------------------------------------------------------------
    # cost accounting
    # ------------------------------------------------------------------
    def apply_flops(self, rank=None):
        """Flop units per application (paper: ``14 n^2`` simplified).

        ``rank=None`` returns the critical-path (maximum per-rank) cost.
        """
        if rank is not None:
            return self._rank_solve_flops.get(rank, 0)
        return max(self._rank_solve_flops.values())

    def setup_flops(self, rank=None):
        """One-time preprocessing cost (paper ``C_pre``, section 4.2)."""
        if rank is not None:
            return self._rank_setup_flops.get(rank, 0)
        return max(self._rank_setup_flops.values())

    # ------------------------------------------------------------------
    def roundoff_estimate(self, seed=0):
        """Empirical marching round-off: relative error of a known solve.

        Draws a random ``x`` per tile, computes ``y = B x`` densely from
        the tile coefficients, EVP-solves, and returns the worst relative
        max-norm error across tiles.  The paper quotes ~1e-8 at 12x12.
        """
        rng = np.random.default_rng(seed)
        worst = 0.0
        for shape, tile_indices in self._groups.items():
            my, mx = shape
            engine = self._engines[shape]
            x_true = rng.standard_normal((engine.batch, my, mx))
            y = _dense_tile_apply(engine.coeffs, x_true)
            x = engine.solve(y)
            num = np.abs(x - x_true).max(axis=(1, 2))
            den = np.abs(x_true).max(axis=(1, 2))
            worst = max(worst, float((num / den).max()))
        return worst


def _dense_tile_apply(coeffs, x):
    """Nine-point apply on stacked tiles with zero exterior (reference)."""
    b, my, mx = x.shape
    xp = np.zeros((b, my + 2, mx + 2))
    xp[:, 1:-1, 1:-1] = x
    out = coeffs["c"] * x
    offsets = {"n": (1, 0), "s": (-1, 0), "e": (0, 1), "w": (0, -1),
               "ne": (1, 1), "nw": (1, -1), "se": (-1, 1), "sw": (-1, -1)}
    for name, (dj, di) in offsets.items():
        out = out + coeffs[name] * xp[:, 1 + dj:1 + dj + my, 1 + di:1 + di + mx]
    return out


def _runs(cells):
    """Runs of ``True`` along the last axis of a 2-D or 3-D boolean
    array, as an int64 ``(m, 4)`` array of ``(block, j, i, cells)``
    (block 0 for 2-D)."""
    rows = cells.reshape(-1, cells.shape[-1])
    edges = np.diff(np.pad(rows, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    row, start = np.nonzero(edges == 1)
    _, stop = np.nonzero(edges == -1)
    block, j = divmod(row, cells.shape[-2])
    return np.stack([block, j, start, stop - start], axis=1).astype(np.int64)


def _influence_for_shape(state, shape):
    """The ``(w, r)`` pair for one shape group, or ``None``."""
    if not state:
        return None
    my, mx = shape
    w = state.get(f"w_{my}x{mx}")
    r = state.get(f"r_{my}x{mx}")
    if w is None or r is None:
        return None
    return (w, r)


def evp_influence_key(config, decomp=None, tile_size=DEFAULT_TILE_SIZE,
                      land_epsilon=DEFAULT_LAND_EPSILON, simplified=True):
    """Artifact-cache key for a configuration's EVP influence matrices.

    Keyed on grid *content* (not name), decomposition geometry and every
    parameter that changes the tiling or the embedded operator, salted
    with the cache format version.
    """
    return digest_of(
        CACHE_FORMAT_VERSION, "evp-influence",
        config.content_digest(), decomp_signature(decomp),
        int(tile_size), float(land_epsilon), bool(simplified),
    )


def evp_for_config(config, decomp=None, cache=None, **kwargs):
    """Build an :class:`EVPBlockPreconditioner` from a ``GridConfig``.

    With ``cache`` (an :class:`~repro.core.cache.ArtifactCache`), the
    per-shape-group influence matrices -- the ``O(n^3)`` part of setup
    -- are loaded from the cache's disk tier when present and stored
    after a fresh build otherwise.  ``cache=None`` (the default)
    preserves plain construction; a pre-built ``embedded_stencil`` in
    ``kwargs`` also bypasses the cache, since its content is not part
    of the key.
    """
    def build(**extra):
        return EVPBlockPreconditioner(
            config.stencil, decomp=decomp,
            metrics=config.metrics, topo=config.topo, **kwargs, **extra,
        )

    if cache is None or "embedded_stencil" in kwargs:
        return build()
    key = evp_influence_key(
        config, decomp=decomp,
        tile_size=kwargs.get("tile_size", DEFAULT_TILE_SIZE),
        land_epsilon=kwargs.get("land_epsilon", DEFAULT_LAND_EPSILON),
        simplified=kwargs.get("simplified", True),
    )
    loaded = cache.load("evp-influence", key)
    if loaded is not None:
        arrays, _meta = loaded
        return build(influence_state=arrays)
    precond = build()
    cache.store(
        "evp-influence", key, arrays=precond.influence_state(),
        meta={"config": config.name, "shape": list(config.shape),
              "n_tiles": precond.n_tiles},
    )
    return precond
