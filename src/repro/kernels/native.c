/*
 * The loops numpy and scipy run in many passes, each as one pass.
 *
 * Every function reproduces its reference's IEEE operation sequence
 * per element -- same products, same adds, same order -- so results are
 * bit-identical as long as the compiler neither contracts a*b+c into a
 * fused multiply-add nor reassociates: build with -ffp-contract=off and
 * never -ffast-math (repro/kernels/native.py does, and self-tests every
 * entry point against numpy before adopting it).
 *
 * Vectors are float64 in one *row geometry*: `blocks` x `rows` runs of
 * `run` contiguous doubles, a block `block_stride` and a row
 * `row_stride` doubles after the previous one, addressed from the first
 * run.  A whole contiguous vector is (1, 1, size); the interior of a
 * (p, bny + 2h, bnx + 2h[, n]) stack is (p, bny, bnx * n) with strides
 * (bny + 2h) * (bnx + 2h) * n and (bnx + 2h) * n, so halo and pad cells
 * are neither read nor written.  `ncols` is the trailing batch width
 * (columns interleaved inside a run).  Counts, strides and offsets are
 * int64 in elements; a geometry travels as one pointer to its int64
 * values (a ctypes call pays per argument).  Nothing here allocates or
 * keeps state.
 */
#include <stddef.h>
#include <stdint.h>

/* Elements an elementwise chain handles before moving on: every operand
 * of a chain (a few arrays x 8 kB) stays in L1 across its steps. */
#define CHUNK 1024

/* ------------------------------------------------------------------
 * 1. The DIA stencil sweep: y = A x in one pass over y.
 *
 * scipy's dia_matvec starts from y = 0.0 and runs one
 * `y[i] += data[k, i + off_k] * x[i + off_k]` loop per diagonal; the
 * same terms are added here per cell, from 0.0, in diagonal order.
 * `data` / `offsets` are those of *one* right-hand side over `n` cells.
 * A batch keeps its `ncols` columns interleaved per cell
 * (x[i * ncols + c]); each column runs that sequence with the one
 * coefficient data[k, i + off_k], W accumulators per cell, W fixed at
 * compile time (a run-time loop over the columns is 2.3x slower at
 * eight) and wider batches taken in column groups of at most eight.
 * The cells to compute are the rows of a row geometry over the cell
 * index and `y` points at the first row's output, with strides of its
 * own in elements: g = {ncols, blocks, rows, cells per row, first
 * cell, block_stride, row_stride, y_block_stride, y_row_stride}.  One
 * row is sweep_row, which chebyshev_span, chrongear_span and evp_step
 * (sections 6, 8 and 9) call too.
 * ------------------------------------------------------------------ */

/* Cells where some diagonal leaves the vector: one pass per diagonal
 * over the cells it reaches (scipy's own loop order; per cell still
 * 0.0 plus the terms in diagonal order). */
static void sweep_checked(int64_t lo, int64_t hi, int64_t n, int64_t ndiag,
                          const double *data, int64_t stride,
                          const int64_t *offsets, int64_t ncols,
                          const double *x, double *restrict y)
{
    for (int64_t e = 0; e < (hi - lo) * ncols; e++)
        y[e] = 0.0;
    for (int64_t k = 0; k < ndiag; k++) {
        int64_t off = offsets[k];
        int64_t from = lo > -off ? lo : -off, to = hi < n - off ? hi : n - off;
        const double *d = data + k * stride + off, *xs = x + off * ncols;
        if (ncols == 1)     /* the global form: vectorized along i */
            for (int64_t i = from; i < to; i++)
                y[i - lo] += d[i] * xs[i];
        else
            for (int64_t i = from; i < to; i++)
                for (int64_t c = 0; c < ncols; c++)
                    y[(i - lo) * ncols + c] += d[i] * xs[i * ncols + c];
    }
}

/* One column, every diagonal in reach: nine coefficient streams (row
 * i's coefficient of diagonal k at streams[k][i]) and nine shifted
 * source streams, no branches, vectorized along the row. */
static void sweep_single(int64_t lo, int64_t hi,
                         const double *const *streams,
                         const int64_t *offsets, const double *x,
                         double *restrict y)
{
    const int64_t o0 = offsets[0], o1 = offsets[1], o2 = offsets[2],
                  o3 = offsets[3], o4 = offsets[4], o5 = offsets[5],
                  o6 = offsets[6], o7 = offsets[7], o8 = offsets[8];
    const double *d0 = streams[0], *d1 = streams[1], *d2 = streams[2],
                 *d3 = streams[3], *d4 = streams[4], *d5 = streams[5],
                 *d6 = streams[6], *d7 = streams[7], *d8 = streams[8];
#define STREAM(k) acc += d##k[i] * x[i + o##k];
    for (int64_t i = lo; i < hi; i++) {
        double acc = 0.0;
        STREAM(0) STREAM(1) STREAM(2) STREAM(3) STREAM(4)
        STREAM(5) STREAM(6) STREAM(7) STREAM(8)
        y[i - lo] = acc;
    }
}

/* W columns of a batch (x and y already point at the group's first
 * column), every diagonal in reach. */
#define SWEEP_WIDTH(W)                                                     \
static void sweep_##W(int64_t lo, int64_t hi, const double *data,          \
                      int64_t stride, const int64_t *offsets,              \
                      int64_t ncols, const double *x, double *restrict y)  \
{                                                                          \
    for (int64_t i = lo; i < hi; i++, y += ncols) {                        \
        double acc[W];                                                     \
        for (int c = 0; c < W; c++)                                        \
            acc[c] = 0.0;                                                  \
        for (int k = 0; k < 9; k++) {                                      \
            const double d = data[k * stride + i + offsets[k]];            \
            const double *xs = x + (i + offsets[k]) * ncols;               \
            for (int c = 0; c < W; c++)                                    \
                acc[c] += d * xs[c];                                       \
        }                                                                  \
        for (int c = 0; c < W; c++)                                        \
            y[c] = acc[c];                                                 \
    }                                                                      \
}
SWEEP_WIDTH(1) SWEEP_WIDTH(2) SWEEP_WIDTH(3) SWEEP_WIDTH(4)
SWEEP_WIDTH(5) SWEEP_WIDTH(6) SWEEP_WIDTH(7) SWEEP_WIDTH(8)

/* Two columns that are the whole batch: four cells x two columns are
 * one vector of eight, each cell's coefficient duplicated across its
 * pair -- per element still 0.0 plus the nine products in diagonal
 * order, at 1.6x the speed of sweep_2's two lanes, which takes the
 * remaining cells and a pair inside a wider batch. */
typedef double cells4x2 __attribute__((vector_size(64)));

static void sweep_pairs(int64_t lo, int64_t hi, const double *data,
                        int64_t stride, const int64_t *offsets,
                        int64_t ncols, const double *x, double *restrict y)
{
    for (; ncols == 2 && lo + 4 <= hi; lo += 4, y += 8) {
        cells4x2 acc = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0}, xs;
        for (int k = 0; k < 9; k++) {
            const double *d = data + k * stride + lo + offsets[k];
            cells4x2 c = {d[0], d[0], d[1], d[1], d[2], d[2], d[3], d[3]};
            __builtin_memcpy(&xs, x + (lo + offsets[k]) * 2, sizeof xs);
            acc += c * xs;
        }
        __builtin_memcpy(y, &acc, sizeof acc);
    }
    sweep_2(lo, hi, data, stride, offsets, ncols, x, y);
}

typedef void sweep_fn(int64_t, int64_t, const double *, int64_t,
                      const int64_t *, int64_t, const double *, double *);
static sweep_fn *const SWEEPS[] = {sweep_1, sweep_pairs, sweep_3, sweep_4,
                                   sweep_5, sweep_6, sweep_7, sweep_8};

/* A DIA matrix over n cells; between lo and hi every diagonal reaches,
 * and a single column reads row i's coefficient of diagonal k at
 * streams[k][i]: data[k, i + off_k]. */
typedef struct {
    int64_t n, ndiag, stride, lo, hi;
    const double *data;
    const int64_t *offsets;
    const double *streams[9];
} dia_matrix;

static dia_matrix dia_of(int64_t n, int64_t ndiag, const double *data,
                         int64_t stride, const int64_t *offsets)
{
    dia_matrix a = {n, ndiag, stride, 0, n, data, offsets, {0}};
    for (int64_t k = 0; k < ndiag; k++) {
        if (-offsets[k] > a.lo) a.lo = -offsets[k];
        if (n - offsets[k] < a.hi) a.hi = n - offsets[k];
    }
    if (ndiag != 9 || a.lo >= a.hi)
        a.lo = a.hi = n;
    for (int64_t k = 0; ndiag == 9 && k < 9; k++)
        a.streams[k] = data + k * stride + offsets[k];
    return a;
}

/* A symmetric matrix read from half its planes: row i's coefficient on
 * a diagonal -o < 0 is A[i, i - o] = A[i - o, i], diagonal +o's at
 * column i, data[k', i] -- the same value, so the same products, when A
 * is symmetric bit for bit, which the caller has checked.  The single
 * column's interior then streams five planes instead of nine. */
static void dia_mirror(dia_matrix *a)
{
    for (int64_t k = 0; a->lo < a->hi && k < 9; k++)
        for (int64_t m = 0; a->offsets[k] < 0 && m < 9; m++)
            if (a->offsets[m] == -a->offsets[k])
                a->streams[k] = a->data + m * a->stride;
}

/* y = A x on cells [start, end), written from y: the row code. */
static void sweep_row(const dia_matrix *a, int64_t start, int64_t end,
                      int64_t ncols, const double *x, double *y)
{
    int64_t from = a->lo < start ? start : a->lo < end ? a->lo : end;
    int64_t to = a->hi < from ? from : a->hi < end ? a->hi : end;
    if (start < from)
        sweep_checked(start, from, a->n, a->ndiag, a->data, a->stride,
                      a->offsets, ncols, x, y);
    y += (from - start) * ncols;
    if (ncols == 1 && from < to)
        sweep_single(from, to, a->streams, a->offsets, x, y);
    else if (from < to)
        for (int64_t c = 0; c < ncols; c += 8)
            SWEEPS[ncols - c < 8 ? ncols - c - 1 : 7](
                from, to, a->data, a->stride, a->offsets, ncols, x + c,
                y + c);
    if (to < end)
        sweep_checked(to, end, a->n, a->ndiag, a->data, a->stride,
                      a->offsets, ncols, x, y + (to - from) * ncols);
}

void dia_sweep(int64_t n, int64_t ndiag, const double *data, int64_t stride,
               const int64_t *offsets, const int64_t *g, const double *x,
               double *y)
{
    const int64_t ncols = g[0], blocks = g[1], rows = g[2], cells = g[3],
                  first = g[4], block_stride = g[5], row_stride = g[6],
                  y_block_stride = g[7], y_row_stride = g[8];
    const dia_matrix a = dia_of(n, ndiag, data, stride, offsets);
    for (int64_t b = 0; b < blocks; b++)
        for (int64_t r = 0; r < rows; r++) {
            int64_t start = first + b * block_stride + r * row_stride;
            sweep_row(&a, start, start + cells, ncols, x,
                      y + b * y_block_stride + r * y_row_stride);
        }
}

/* ------------------------------------------------------------------
 * 2. A chain of vector updates, chunk by chunk, row by row.
 *
 * Step s is one of (numpy's roundings, in numpy's order):
 *   axpy    (0)  t = a*x;          y = y + t
 *   xpay    (1)  t = b*y;          y = t + x
 *   combine (2)  t = b*y; u = a*x; y = t + u
 * Element i of a step reads only element i of its operands, so running
 * every step on one chunk of one row before moving on is the same
 * arithmetic as running every step on the whole vector, and what lies
 * between the rows of the geometry is never touched.  Operands of
 * different steps may be the same array (x of a later step is y of an
 * earlier one in ChronGear); they must not overlap at an offset.  A
 * step is `struct.pack("qddPPPP", kind, a, b, pa, pb, x, y)`: the
 * coefficients are the doubles a, b or -- where pa / pb is not NULL --
 * one value per column (`ncols` of them: a batch whose columns run
 * their own recurrences), tiled along one chunk once per call.  Chunks
 * start at a multiple of `ncols`, so one tiling serves them all; the
 * caller keeps ncols <= CHUNK.  The whole call is one packed program:
 * the geometry, ncols, the step count ("7q"), then the steps.
 * ------------------------------------------------------------------ */
typedef struct {
    int64_t kind;
    double a, b;
    const double *pa, *pb;
    const double *x;
    double *y;
} update_step;

typedef struct {
    int64_t blocks, rows, run, block_stride, row_stride, ncols, nsteps;
    update_step steps[];
} update_program;

/* Steps whose tiled coefficients fit the stack at once; a longer chain
 * runs in groups of this many. */
#define MAX_STEPS 8

#define STEP_LOOPS(A, B)                                                   \
    if (kind == 0) {                                                       \
        for (int64_t i = 0; i < m; i++) {                                  \
            double t = (A) * xs[i];                                        \
            ys[i] = ys[i] + t;                                             \
        }                                                                  \
    } else if (kind == 1) {                                                \
        for (int64_t i = 0; i < m; i++) {                                  \
            double t = (B) * ys[i];                                        \
            ys[i] = t + xs[i];                                             \
        }                                                                  \
    } else {                                                               \
        for (int64_t i = 0; i < m; i++) {                                  \
            double t = (B) * ys[i];                                        \
            double u = (A) * xs[i];                                        \
            ys[i] = t + u;                                                 \
        }                                                                  \
    }

static void chain_group(const update_program *p, int64_t nsteps,
                        const update_step *steps)
{
    const int64_t blocks = p->blocks, rows = p->rows, run = p->run,
                  block_stride = p->block_stride, row_stride = p->row_stride,
                  ncols = p->ncols;
    int tiled = 0;
    for (int64_t s = 0; s < nsteps; s++)
        tiled |= steps[s].pa || steps[s].pb;
    double tiles[tiled ? 2 * MAX_STEPS : 1][CHUNK];
    int64_t chunk = run < CHUNK ? run : CHUNK - CHUNK % ncols;
    for (int64_t s = 0; s < nsteps; s++) {
        if (!steps[s].pa && !steps[s].pb)
            continue;
        for (int64_t i = 0; i < chunk; i++) {
            tiles[2 * s][i] = steps[s].pa ? steps[s].pa[i % ncols]
                                          : steps[s].a;
            tiles[2 * s + 1][i] = steps[s].pb ? steps[s].pb[i % ncols]
                                              : steps[s].b;
        }
    }
    for (int64_t b = 0; b < blocks; b++)
        for (int64_t r = 0; r < rows; r++)
            for (int64_t c = 0; c < run; c += chunk) {
                int64_t at = b * block_stride + r * row_stride + c;
                int64_t m = run - c < chunk ? run - c : chunk;
                for (int64_t s = 0; s < nsteps; s++) {
                    const double *xs = steps[s].x + at;
                    double *ys = steps[s].y + at;
                    int64_t kind = steps[s].kind;
                    if (steps[s].pa || steps[s].pb) {
                        const double *va = tiles[2 * s],
                                     *vb = tiles[2 * s + 1];
                        STEP_LOOPS(va[i], vb[i])
                    } else {
                        const double a = steps[s].a, bb = steps[s].b;
                        STEP_LOOPS(a, bb)
                    }
                }
            }
}

void update_chain(const update_program *p)
{
    for (int64_t s = 0; s < p->nsteps; s += MAX_STEPS)
        chain_group(p, p->nsteps - s < MAX_STEPS ? p->nsteps - s : MAX_STEPS,
                    p->steps + s);
}

/* ------------------------------------------------------------------
 * 3. Masked dots of windows: out[c, k] = sum over block k's window of
 *    (a * b) * w in column c, with numpy's pairwise blocking.
 *
 * a and b share a row geometry of `cols * ncols` doubles per row, g =
 * {blocks, rows, cols, ncols, block_stride, row_stride}; w is the land
 * mask as 0.0 / 1.0, contiguous (blocks, rows, cols); block
 * k's window is its first extents[2k] rows x extents[2k + 1] cells
 * (all of them when `extents` is NULL), so no pad cell of a ragged
 * stack is read.  A window's products -- numpy's `a * b * w`: the
 * product rounded, then multiplied by the weight -- are reduced in
 * row-major cell order as numpy's float add.reduce reduces them stored
 * contiguously: fewer than 8 terms in order; up to 128 through 8
 * interleaved accumulators combined as
 * ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) plus an in-order tail; anything
 * longer split at n/2 rounded down to a multiple of 8, the halves
 * added; and 0.0 (the reduction's identity) plus that.  A leaf (<= 128
 * cells) gathers its products column by column into a buffer in L1, up
 * to eight columns a pass over the cells, and sums it there; one
 * column of contiguous cells forms them on the fly.  Returns
 * out[0, 0]; `out` may be NULL when that is all there is.
 * ------------------------------------------------------------------ */
#define LEAF 128

typedef struct {
    const double *a, *b, *w;   /* the window's first cell / mask value */
    int64_t nx;                /* cells per window row */
    int64_t row_stride;        /* of a and b, in elements */
    int64_t w_stride;          /* of w, in cells */
    int64_t ncols;
} window;

/* numpy's sum of n <= 128 terms. */
#define LEAF_SUM(TERM)                                                     \
    if (n < 8) {                                                           \
        double res = -0.0;                                                 \
        for (int64_t i = 0; i < n; i++)                                    \
            res += TERM(i);                                                \
        return res;                                                        \
    }                                                                      \
    double r[8], res;                                                      \
    int64_t i;                                                             \
    for (int j = 0; j < 8; j++)                                            \
        r[j] = TERM(j);                                                    \
    for (i = 8; i < n - (n % 8); i += 8)                                   \
        for (int j = 0; j < 8; j++)                                        \
            r[j] += TERM(i + j);                                           \
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])); \
    for (; i < n; i++)                                                     \
        res += TERM(i);                                                    \
    return res;

/* Products gathered into a buffer ... */
static double leaf_sum(const double *p, int64_t n)
{
#define BUFFERED(i) (p[i])
    LEAF_SUM(BUFFERED)
}

/* ... or, for one column of cells that follow each other, formed on
 * the fly. */
static double leaf_dot(const double *a, const double *b, const double *w,
                       int64_t n)
{
#define PRODUCT(i) (a[i] * b[i] * w[i])
    LEAF_SUM(PRODUCT)
}

/* One column of n cells that follow each other. */
static double pairwise_row(const double *a, const double *b, const double *w,
                           int64_t n)
{
    if (n <= LEAF)
        return leaf_dot(a, b, w, n);
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_row(a, b, w, n2)
           + pairwise_row(a + n2, b + n2, w + n2, n - n2);
}

/* res[c] = pairwise sum of cells [i0, i0 + n) for nc <= 8 columns. */
static void pairwise(const window *v, int64_t i0, int64_t n, int nc,
                     double *res)
{
    if (n > LEAF) {
        double right[8];
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        pairwise(v, i0, n2, nc, res);
        pairwise(v, i0 + n2, n - n2, nc, right);
        for (int c = 0; c < nc; c++)
            res[c] = res[c] + right[c];
        return;
    }
    double buf[8 * LEAF];
    int64_t r = i0 / v->nx, q = i0 % v->nx;
    for (int64_t t = 0; t < n; r++, q = 0) {
        int64_t take = v->nx - q < n - t ? v->nx - q : n - t;
        const double *a = v->a + r * v->row_stride + q * v->ncols,
                     *b = v->b + r * v->row_stride + q * v->ncols,
                     *w = v->w + r * v->w_stride + q;
        if (nc == 1)    /* a loop of one costs a width-1 stack 2x */
            for (int64_t j = 0; j < take; j++)
                buf[t + j] = a[j * v->ncols] * b[j * v->ncols] * w[j];
        else
            for (int64_t j = 0; j < take; j++, a += v->ncols, b += v->ncols)
                for (int c = 0; c < nc; c++)
                    buf[c * LEAF + t + j] = a[c] * b[c] * w[j];
        t += take;
    }
    for (int c = 0; c < nc; c++)
        res[c] = leaf_sum(buf + c * LEAF, n);
}

double pairwise_dot(const int64_t *g, const double *a, const double *b,
                    const double *w, const int64_t *extents, double *out)
{
    const int64_t blocks = g[0], rows = g[1], cols = g[2], ncols = g[3],
                  block_stride = g[4], row_stride = g[5];
    double first = 0.0;
    for (int64_t k = 0; k < blocks; k++) {
        int64_t ny = extents ? extents[2 * k] : rows;
        int64_t nx = extents ? extents[2 * k + 1] : cols;
        window v = {a + k * block_stride, b + k * block_stride,
                    w + k * rows * cols, nx, row_stride, cols, ncols};
        if (nx == cols && row_stride == cols * ncols) {
            v.nx = ny * nx;    /* rows follow each other: one long row */
            ny = 1;
        }
        for (int64_t c = 0; c < ncols; c += 8, v.a += 8, v.b += 8) {
            double res[8];
            int nc = ncols - c < 8 ? (int)(ncols - c) : 8;
            if (ncols == 1 && ny == 1)
                res[0] = pairwise_row(v.a, v.b, v.w, v.nx);
            else
                pairwise(&v, 0, ny * v.nx, nc, res);
            for (int j = 0; j < nc; j++) {
                res[j] = 0.0 + res[j];
                if (out)
                    out[(c + j) * blocks + k] = res[j];
            }
            if (k == 0 && c == 0)
                first = res[0];
        }
    }
    return first;
}

/* ------------------------------------------------------------------
 * 4. One EVP march over the skewed state S[J + I, J, tile, column].
 *
 * Everything is counted in *equations*: equation q is tile q % B of
 * packed row q / B, with one coefficient per term and one 1/ne, and
 * `ncols` interleaved columns of right-hand side and state
 * (rhs[q * ncols + c], state[q * ncols + c]).  `prog` holds
 *     B, nsteps, k, the k ring rows, then per anti-diagonal step
 *     count, row, target, nterms, (coef_off, src_off) x nterms
 * First the ring -- the south row west to east, then the west column
 * northward, each a state row of B equations -- is set: to 0.0 where
 * `ring` is NULL, else to -ring[(c * B + tile) * k + e], the ring
 * correction's (ncols, B, k) product negated (exact).  A step then
 * solves `count` equations whose right-hand sides (and 1/ne) start at
 * `row`, reading term t's coefficients at coef + coef_off and its
 * sources at state + src_off, and writes the north-east unknowns at
 * state + target:
 *     cur = rhs; cur = cur - coef_t * src_t (t in order); out = cur/ne
 * as multiply-then-subtract and one multiply by the stored 1/ne, the
 * reference's sequence.  One column: terms are taken four at a time
 * with `cur` in a register, vectorized along the equations (a loop
 * over the terms inside the equation loop does not vectorize; one pass
 * per term is bound by its loads and stores of `cur`); the simplified
 * stencil's four terms are one pass.  More columns: per equation every
 * coefficient is read once for all of them, the columns in
 * compile-time groups of at most eight held in registers across the
 * terms.  A step's target diagonal lies beyond all its sources, so its
 * equations are independent.
 * ------------------------------------------------------------------ */
#define TERM_POINTERS(t)                                                   \
    const double *c0 = coef + terms[2 * (t)] + c,                          \
                 *s0 = state + terms[2 * (t) + 1] + c,                     \
                 *c1 = coef + terms[2 * (t) + 2] + c,                      \
                 *s1 = state + terms[2 * (t) + 3] + c,                     \
                 *c2 = coef + terms[2 * (t) + 4] + c,                      \
                 *s2 = state + terms[2 * (t) + 5] + c,                     \
                 *c3 = coef + terms[2 * (t) + 6] + c,                      \
                 *s3 = state + terms[2 * (t) + 7] + c
#define FOUR_TERMS(op) (((v op c0[i] * s0[i]) op c1[i] * s1[i])            \
                        op c2[i] * s2[i]) op c3[i] * s3[i]

/* One column: the step's equations in chunks, four terms a pass. */
static void march_single(int64_t count, int64_t row, int64_t target,
                         int64_t nterms, const int64_t *terms,
                         const double *coef, const double *inv_ne,
                         const double *rhs, double *state)
{
    double acc[CHUNK];
    for (int64_t c = 0; c < count; c += CHUNK) {
        int64_t m = count - c < CHUNK ? count - c : CHUNK;
        const double *cur = rhs + row + c;
        const double *inv = inv_ne + row + c;
        double *restrict out = state + target + c;
        int64_t t = 0;
        for (; t + 4 < nterms; t += 4) {
            TERM_POINTERS(t);
            for (int64_t i = 0; i < m; i++) {
                double v = cur[i];
                acc[i] = FOUR_TERMS(-);
            }
            cur = acc;
        }
        if (t + 4 == nterms) {
            TERM_POINTERS(t);
            for (int64_t i = 0; i < m; i++) {
                double v = cur[i];
                v = FOUR_TERMS(-);
                out[i] = v * inv[i];
            }
            continue;
        }
        for (; t < nterms; t++) {
            const double *c0 = coef + terms[2 * t] + c;
            const double *s0 = state + terms[2 * t + 1] + c;
            for (int64_t i = 0; i < m; i++)
                acc[i] = cur[i] - c0[i] * s0[i];
            cur = acc;
        }
        for (int64_t i = 0; i < m; i++)
            out[i] = cur[i] * inv[i];
    }
}

/* W columns of a batch (rhs and state already point at the group's
 * first column; rhs and inv_ne at the step's first equation): per
 * chunk of equations, four terms a pass with the running values of the
 * W columns in `acc`, each coefficient broadcast over them. */
#define COLUMN_TERMS(t)                                                    \
    const double *c0 = coef + terms[2 * (t)] + i0,                         \
                 *c1 = coef + terms[2 * (t) + 2] + i0,                     \
                 *c2 = coef + terms[2 * (t) + 4] + i0,                     \
                 *c3 = coef + terms[2 * (t) + 6] + i0,                     \
                 *s0 = state + (terms[2 * (t) + 1] + i0) * ncols,          \
                 *s1 = state + (terms[2 * (t) + 3] + i0) * ncols,          \
                 *s2 = state + (terms[2 * (t) + 5] + i0) * ncols,          \
                 *s3 = state + (terms[2 * (t) + 7] + i0) * ncols
#define COLUMN_FOUR(i, c)                                                  \
    ((((cur[(i) * stride + (c)] - c0[i] * s0[(i) * ncols + (c)])           \
       - c1[i] * s1[(i) * ncols + (c)]) - c2[i] * s2[(i) * ncols + (c)])   \
     - c3[i] * s3[(i) * ncols + (c)])
#define MARCH_WIDTH(W)                                                     \
static void march_##W(int64_t count, int64_t target, int64_t nterms,      \
                      const int64_t *terms, int64_t ncols,                \
                      const double *coef, const double *inv_ne,           \
                      const double *rhs, double *state)                   \
{                                                                          \
    double acc[CHUNK];                                                     \
    for (int64_t i0 = 0; i0 < count; i0 += CHUNK / W) {                   \
        const int64_t m = count - i0 < CHUNK / W ? count - i0 : CHUNK / W; \
        const double *cur = rhs + i0 * ncols, *inv = inv_ne + i0;         \
        double *out = state + (target + i0) * ncols;                       \
        int64_t stride = ncols, t = 0;                                     \
        for (; t + 4 < nterms; t += 4) {                                   \
            COLUMN_TERMS(t);                                               \
            for (int64_t i = 0; i < m; i++)                                \
                for (int c = 0; c < W; c++)                                \
                    acc[i * W + c] = COLUMN_FOUR(i, c);                    \
            cur = acc;                                                     \
            stride = W;                                                    \
        }                                                                  \
        if (t + 4 == nterms) {                                             \
            COLUMN_TERMS(t);                                               \
            for (int64_t i = 0; i < m; i++)                                \
                for (int c = 0; c < W; c++)                                \
                    out[i * ncols + c] = COLUMN_FOUR(i, c) * inv[i];       \
            continue;                                                      \
        }                                                                  \
        for (; t < nterms; t++) {                                          \
            const double *c0 = coef + terms[2 * t] + i0;                   \
            const double *s0 = state + (terms[2 * t + 1] + i0) * ncols;    \
            for (int64_t i = 0; i < m; i++)                                \
                for (int c = 0; c < W; c++)                                \
                    acc[i * W + c] = cur[i * stride + c]                   \
                                     - c0[i] * s0[i * ncols + c];          \
            cur = acc;                                                     \
            stride = W;                                                    \
        }                                                                  \
        for (int64_t i = 0; i < m; i++)                                    \
            for (int c = 0; c < W; c++)                                    \
                out[i * ncols + c] = cur[i * stride + c] * inv[i];         \
    }                                                                      \
}
MARCH_WIDTH(1) MARCH_WIDTH(2) MARCH_WIDTH(3) MARCH_WIDTH(4)
MARCH_WIDTH(5) MARCH_WIDTH(6) MARCH_WIDTH(7) MARCH_WIDTH(8)

typedef void march_fn(int64_t, int64_t, int64_t, const int64_t *, int64_t,
                      const double *, const double *, const double *,
                      double *);
static march_fn *const MARCHES[] = {march_1, march_2, march_3, march_4,
                                    march_5, march_6, march_7, march_8};

void evp_march(const int64_t *prog, int64_t ncols, const double *coef,
               const double *inv_ne, const double *rhs, double *state,
               const double *ring)
{
    const int64_t b = prog[0], nsteps = prog[1], k = prog[2];
    const int64_t *lines = prog + 3;
    for (int64_t e = 0; e < k; e++) {
        double *line = state + lines[e] * b * ncols;
        if (!ring)
            for (int64_t i = 0; i < b * ncols; i++)
                line[i] = 0.0;
        else
            for (int64_t c = 0; c < ncols; c++)
                for (int64_t pos = 0; pos < b; pos++)
                    line[pos * ncols + c] = -ring[(c * b + pos) * k + e];
    }
    prog = lines + k;
    for (int64_t s = 0; s < nsteps; s++) {
        int64_t count = prog[0], row = prog[1], target = prog[2];
        int64_t nterms = prog[3];
        const int64_t *terms = prog + 4;
        prog = terms + 2 * nterms;
        if (ncols == 1) {
            march_single(count, row, target, nterms, terms, coef, inv_ne,
                         rhs, state);
            continue;
        }
        for (int64_t c = 0; c < ncols; c += 8)
            MARCHES[ncols - c < 8 ? ncols - c - 1 : 7](
                count, target, nterms, terms, ncols, coef, inv_ne + row,
                rhs + row * ncols + c, state + c);
    }
}

/* ------------------------------------------------------------------
 * 5. Residuals of the k unmarched (north/east edge) equations:
 *     f = -rhs; f = f + coef_t * src_t (t in order, NE last)
 * g = {k, B, ncols, nterms}; counted in equations as in the march.
 * Edge equation e of tile `pos` reads term t's coefficient at
 * coef + coef_off[t] + e * B + pos and its sources in state row
 * src_rows[t * k + e] (rows of B equations); its right-hand side is
 * rhs row e.  f is written as (ncols, B, k) -- f[(c * B + pos) * k + e]
 * -- the order the ring correction's matmul reads.  One column: four
 * terms a pass along a chunk of tiles, as in the march, every edge
 * equation of the chunk before it is written out; more: the columns in
 * compile-time groups of at most eight, one coefficient read for all.
 * ------------------------------------------------------------------ */
static void edges_single(int64_t k, int64_t b, int64_t nterms,
                         const int64_t *coef_off, const int64_t *src_rows,
                         const double *coef, const double *rhs,
                         const double *state, double *restrict f)
{
    /* A chunk of tiles at a time, every edge equation of them in acc
     * (acc[e * per + i]), then written out tile by tile. */
    double acc[CHUNK];
    const int64_t per = CHUNK / k;
    for (int64_t p = 0; p < b; p += per) {
        const int64_t m = b - p < per ? b - p : per;
        for (int64_t e = 0; e < k; e++) {
            const int64_t at = e * b + p;
            double *restrict a = acc + e * per;
            for (int64_t i = 0; i < m; i++)
                a[i] = -rhs[at + i];
            int64_t t = 0;
            for (; t + 4 <= nterms; t += 4) {
                const double *c0 = coef + coef_off[t] + at,
                             *c1 = coef + coef_off[t + 1] + at,
                             *c2 = coef + coef_off[t + 2] + at,
                             *c3 = coef + coef_off[t + 3] + at,
                             *s0 = state + src_rows[t * k + e] * b + p,
                             *s1 = state + src_rows[(t + 1) * k + e] * b + p,
                             *s2 = state + src_rows[(t + 2) * k + e] * b + p,
                             *s3 = state + src_rows[(t + 3) * k + e] * b + p;
                for (int64_t i = 0; i < m; i++) {
                    double v = a[i];
                    a[i] = FOUR_TERMS(+);
                }
            }
            for (; t < nterms; t++) {
                const double *c0 = coef + coef_off[t] + at;
                const double *s0 = state + src_rows[t * k + e] * b + p;
                for (int64_t i = 0; i < m; i++)
                    a[i] = a[i] + c0[i] * s0[i];
            }
        }
        for (int64_t i = 0; i < m; i++)
            for (int64_t e = 0; e < k; e++)
                f[(p + i) * k + e] = acc[e * per + i];
    }
}

/* W columns (rhs, state and f already at the group's first column):
 * per edge equation, a chunk of tiles at a time, four terms a pass. */
#define EDGE_TERMS(t)                                                      \
    const double *c0 = coef + coef_off[t] + at,                            \
                 *c1 = coef + coef_off[(t) + 1] + at,                      \
                 *c2 = coef + coef_off[(t) + 2] + at,                      \
                 *c3 = coef + coef_off[(t) + 3] + at,                      \
                 *s0 = state + (src_rows[(t) * k + e] * b + p) * ncols,    \
                 *s1 = state + (src_rows[((t) + 1) * k + e] * b + p) * ncols, \
                 *s2 = state + (src_rows[((t) + 2) * k + e] * b + p) * ncols, \
                 *s3 = state + (src_rows[((t) + 3) * k + e] * b + p) * ncols
#define EDGES_WIDTH(W)                                                     \
static void edges_##W(int64_t k, int64_t b, int64_t nterms,               \
                      const int64_t *coef_off, const int64_t *src_rows,   \
                      int64_t ncols, const double *coef,                  \
                      const double *rhs, const double *state,             \
                      double *restrict f)                                 \
{                                                                          \
    double acc[CHUNK];                                                     \
    for (int64_t e = 0; e < k; e++)                                        \
        for (int64_t p = 0; p < b; p += CHUNK / W) {                       \
            const int64_t m = b - p < CHUNK / W ? b - p : CHUNK / W;       \
            const int64_t at = e * b + p;                                  \
            for (int64_t i = 0; i < m; i++)                                \
                for (int c = 0; c < W; c++)                                \
                    acc[i * W + c] = -rhs[(at + i) * ncols + c];           \
            int64_t t = 0;                                                 \
            for (; t + 4 <= nterms; t += 4) {                              \
                EDGE_TERMS(t);                                             \
                for (int64_t i = 0; i < m; i++)                            \
                    for (int c = 0; c < W; c++) {                          \
                        const int64_t j = i * ncols + c;                   \
                        acc[i * W + c] =                                   \
                            (((acc[i * W + c] + c0[i] * s0[j])             \
                              + c1[i] * s1[j]) + c2[i] * s2[j])            \
                            + c3[i] * s3[j];                               \
                    }                                                      \
            }                                                              \
            for (; t < nterms; t++) {                                      \
                const double *c0 = coef + coef_off[t] + at;                \
                const double *s0 =                                         \
                    state + (src_rows[t * k + e] * b + p) * ncols;         \
                for (int64_t i = 0; i < m; i++)                            \
                    for (int c = 0; c < W; c++)                            \
                        acc[i * W + c] = acc[i * W + c]                    \
                                         + c0[i] * s0[i * ncols + c];      \
            }                                                              \
            for (int c = 0; c < W; c++)                                    \
                for (int64_t i = 0; i < m; i++)                            \
                    f[(c * b + p + i) * k + e] = acc[i * W + c];           \
        }                                                                  \
}
EDGES_WIDTH(1) EDGES_WIDTH(2) EDGES_WIDTH(3) EDGES_WIDTH(4)
EDGES_WIDTH(5) EDGES_WIDTH(6) EDGES_WIDTH(7) EDGES_WIDTH(8)

typedef void edges_fn(int64_t, int64_t, int64_t, const int64_t *,
                      const int64_t *, int64_t, const double *,
                      const double *, const double *, double *);
static edges_fn *const EDGES[] = {edges_1, edges_2, edges_3, edges_4,
                                  edges_5, edges_6, edges_7, edges_8};

void evp_edges(const int64_t *g, const int64_t *coef_off,
               const int64_t *src_rows, const double *coef,
               const double *rhs, const double *state, double *restrict f)
{
    const int64_t k = g[0], b = g[1], ncols = g[2], nterms = g[3];
    if (ncols == 1 && k <= CHUNK) {
        edges_single(k, b, nterms, coef_off, src_rows, coef, rhs, state, f);
        return;
    }
    for (int64_t c = 0; c < ncols; c += 8)
        EDGES[ncols - c < 8 ? ncols - c - 1 : 7](
            k, b, nterms, coef_off, src_rows, ncols, coef, rhs + c,
            state + c, f + c * b * k);
}

/* ------------------------------------------------------------------
 * 6. A span of P-CSI iterations with a diagonal preconditioner, as one
 *    wavefront over the grid rows of a whole vector.
 *
 * Iteration t (weights w = wc[2t], cw = wc[2t + 1]) is, per element,
 *     r' = r * dinv;  dx = (cw * dx) + (w * r');  x = x + (1.0 * dx);
 *     r = b - A x
 * with the roundings of the diagonal preconditioner's multiply, the
 * update chain's combine and axpy (section 2's step loops) and a
 * dia_sweep row followed by numpy's subtraction.  The first three read
 * element e only; residual row q reads x in rows q - 1 .. q + 1 and,
 * through the zero couplings that wrap around the east and west edges,
 * the last cell of row q - 2 and the first of row q + 2 (0.0 * x is
 * NaN for a non-finite x).  So iteration t, reaching row j, updates row
 * j and then writes residual row j - 2, and iteration t + 1 trails it
 * by four rows, the iterations of one step in ascending order: every
 * row is read with the values the one-iteration-at-a-time order gives
 * it, and r, dx and x are updated in place.  Rows are `nx` cells of
 * `ncols` interleaved columns; `dinv` holds one value per cell and
 * `data` / `offsets` are the single-RHS sweep of A over the n cells;
 * the caller keeps ncols <= CHUNK.  g = {n, nx, ncols, ndiag, stride}.
 * ------------------------------------------------------------------ */
void chebyshev_span(int64_t nsteps, const double *wc, const int64_t *g,
                    const double *data, const int64_t *offsets,
                    const double *dinv, const double *b, double *r,
                    double *dx, double *x)
{
    const int64_t ncols = g[2], rows = g[0] / g[1], run = g[1] * ncols;
    const int64_t chunk = CHUNK - CHUNK % ncols;
    const dia_matrix a = dia_of(g[0], g[3], data, g[4], offsets);
    double rp[CHUNK];
    for (int64_t s = 0; s < rows + 2 + 4 * (nsteps - 1); s++)
        for (int64_t it = 0; it < nsteps && 4 * it <= s; it++) {
            const int64_t j = s - 4 * it, q = j - 2;
            const double w = wc[2 * it], cw = wc[2 * it + 1];
            for (int64_t e = 0; j < rows && e < run; e += chunk) {
                const int64_t at = j * run + e;
                const int64_t m = run - e < chunk ? run - e : chunk;
                const double *rs = r + at, *dv = dinv + at / ncols;
                if (ncols == 1)
                    for (int64_t i = 0; i < m; i++)
                        rp[i] = rs[i] * dv[i];
                else if (ncols == 2)
                    for (int64_t i = 0; i < m; i += 2, dv++) {
                        rp[i] = rs[i] * dv[0];
                        rp[i + 1] = rs[i + 1] * dv[0];
                    }
                else
                    for (int64_t i = 0; i < m; dv++)
                        for (int64_t c = 0; c < ncols; c++, i++)
                            rp[i] = rs[i] * dv[0];
                /* section 2's combine (dx), then its axpy (x) */
                int64_t kind = 2;
                const double *xs = rp;
                double *ys = dx + at;
                STEP_LOOPS(w, cw)
                kind = 0;
                xs = ys;
                ys = x + at;
                STEP_LOOPS(1.0, 0.0)
            }
            if (q < 0 || q >= rows)
                continue;
            double *rq = r + q * run;
            const double *bq = b + q * run;
            sweep_row(&a, q * g[1], (q + 1) * g[1], ncols, x, rq);
            for (int64_t i = 0; i < run; i++)
                rq[i] = bq[i] - rq[i];
        }
}

/* ------------------------------------------------------------------
 * 7. The EVP boundary: a layout's tile cells into the packed
 *    right-hand-side rows, and the solved states back out, masked.
 *
 * A layout is any array of cells holding `ncols` interleaved doubles
 * each -- the global grid, a serial batch, the strided interior of a
 * stack -- addressed by element offsets from its first cell.  A shape
 * group of B tiles and R packed rows brings origins[B], each tile's
 * first cell, and offsets[R], each packed row's cell relative to it:
 * row `row` of tile `pos` is cell origins[pos] + offsets[row].
 *
 * evp_gather copies the cells into y in packed-row order, tiles
 * innermost, a block of tiles at a time (a tile-major walk is slower at
 * one column, a walk over all tiles per row spills a full grid out of
 * cache), from
 *     ngroups, (B, R) x ngroups, then per group origins, offsets.
 * evp_scatter writes out[cell] = state * mask[cell] -- the multiply
 * that masks the preconditioner's output -- for every tile cell in the
 * same order, and 0.0 to the cells no tile covers, from
 *     ngroups, nzero, cell stride, (B, R, first x row) x ngroups,
 *     then per group origins, offsets, mask origins, mask offsets and
 *     state rows (R), then (first cell, cells) x nzero.
 * Row `row` of tile `pos` reads x row first + state_rows[row] * B + pos;
 * mask offsets count the mask's own elements (one per cell).  The gather
 * reads everything before the scatter writes, so `out` may be `r`.
 * ------------------------------------------------------------------ */
/* Tiles one pass over the packed rows moves: the cells and state rows
 * they touch stay in cache from row to row (a pass over every tile
 * evicts them on a full grid, one tile at a time wastes the rest of
 * each state line). */
#define GATHER_TILES 64
#define SCATTER_TILES 16

/* n doubles from s to d, n fixed at compile time where it is small (a
 * loop of run-time length compiles to a call per cell). */
#define COPY_CASE(W)                                                       \
    case W:                                                                \
        for (int64_t pos = p0; pos < p1; pos++) {                          \
            const double *s = src + origins[pos];                          \
            for (int c = 0; c < W; c++)                                    \
                d[pos * W + c] = s[c];                                     \
        }                                                                  \
        break;
#define SCALE_CASE(W)                                                      \
    case W:                                                                \
        for (int64_t pos = p0; pos < p1; pos++) {                          \
            const double w = m[morigins[pos]];                             \
            double *o = d + origins[pos];                                  \
            for (int c = 0; c < W; c++)                                    \
                o[c] = s[pos * W + c] * w;                                 \
        }                                                                  \
        break;

void evp_gather(const int64_t *prog, int64_t ncols, const double *r,
                double *restrict y)
{
    const int64_t ngroups = prog[0];
    const int64_t *sizes = prog + 1, *at = prog + 1 + 2 * ngroups;
    for (int64_t g = 0; g < ngroups; g++) {
        const int64_t b = sizes[2 * g], rows = sizes[2 * g + 1];
        const int64_t *origins = at, *offsets = at + b;
        at += b + rows;
        for (int64_t p0 = 0; p0 < b; p0 += GATHER_TILES) {
            const int64_t p1 = b - p0 < GATHER_TILES ? b : p0 + GATHER_TILES;
            for (int64_t row = 0; row < rows; row++) {
                const double *src = r + offsets[row];
                double *d = y + row * b * ncols;
                switch (ncols) {
                COPY_CASE(1) COPY_CASE(2) COPY_CASE(3) COPY_CASE(4)
                COPY_CASE(5) COPY_CASE(6) COPY_CASE(7) COPY_CASE(8)
                default:
                    for (int64_t pos = p0; pos < p1; pos++) {
                        const double *s = src + origins[pos];
                        for (int64_t c = 0; c < ncols; c++)
                            d[pos * ncols + c] = s[c];
                    }
                }
            }
        }
        y += rows * b * ncols;
    }
}

void evp_scatter(const int64_t *prog, int64_t ncols, const double *x,
                 const double *mask, double *out)
{
    const int64_t ngroups = prog[0], nzero = prog[1], cell = prog[2];
    const int64_t *sizes = prog + 3, *at = prog + 3 + 3 * ngroups;
    for (int64_t g = 0; g < ngroups; g++) {
        const int64_t b = sizes[3 * g], rows = sizes[3 * g + 1];
        const double *state = x + sizes[3 * g + 2] * ncols;
        const int64_t *origins = at, *offsets = origins + b,
                      *morigins = offsets + rows, *moffsets = morigins + b,
                      *slots = moffsets + rows;
        at = slots + rows;
        for (int64_t p0 = 0; p0 < b; p0 += SCATTER_TILES) {
            const int64_t p1 = b - p0 < SCATTER_TILES ? b : p0 + SCATTER_TILES;
            for (int64_t row = 0; row < rows; row++) {
                const double *s = state + slots[row] * b * ncols;
                const double *m = mask + moffsets[row];
                double *d = out + offsets[row];
                switch (ncols) {
                SCALE_CASE(1) SCALE_CASE(2) SCALE_CASE(3) SCALE_CASE(4)
                SCALE_CASE(5) SCALE_CASE(6) SCALE_CASE(7) SCALE_CASE(8)
                default:
                    for (int64_t pos = p0; pos < p1; pos++) {
                        const double w = m[morigins[pos]];
                        double *o = d + origins[pos];
                        for (int64_t c = 0; c < ncols; c++)
                            o[c] = s[pos * ncols + c] * w;
                    }
                }
            }
        }
    }
    for (int64_t z = 0; z < nzero; z++, at += 2)
        for (int64_t i = 0; i < at[1]; i++) {
            double *o = out + at[0] + i * cell;
            for (int64_t c = 0; c < ncols; c++)
                o[c] = 0.0;
        }
}

/* ------------------------------------------------------------------
 * 8. ChronGear with a diagonal preconditioner, one pass per iteration.
 *
 * One call runs, row by row over a whole vector, the four recurrences
 * of the iteration whose coefficients it is handed (the chain, mode &
 * 1) and then the head of the next iteration (mode & 2):
 *     chain:  r' = r * dinv;  s = (beta * s) + r';  p = (beta * p) + z;
 *             x = x + (alpha * s);  r = r + ((-alpha) * p)
 *     head:   r' = r * dinv;  z = A r';  rho = <r, r'>;  delta = <z, r'>
 * with the roundings of the diagonal preconditioner's multiply, section
 * 2's xpay and axpy, a dia_sweep row and masked_dot, each column with
 * its own alpha and beta.  A span of n iterations is n + 1 calls: a
 * head, n - 1 chains with heads, a chain; the coefficients are formed
 * between the calls from the heads' dots.  A chain with a head after it
 * may keep its x update (SPAN_HOLD below) for the next call to apply.
 *
 * Reaching row j, a call updates row j (the chain reads z row j, the
 * previous head's) and writes its r' into a window of rows, then sweeps
 * z row j - 2.  That row reads r' in rows j - 3 .. j - 1 and, through
 * the zero couplings that wrap around the east and west edges, the last
 * cell of row j - 4 and the first of row j (section 6), all of them
 * already this call's; its old z was read at step j - 2.  The window
 * holds the last SPAN_ROWS rows twice over (row j in slots j % 5 and
 * j % 5 + 5), so the five rows a sweep reads follow each other.  The
 * chain recomputes the previous head's r' from r -- the same product of
 * the same operands -- so no r' vector exists.
 *
 * The dots are numpy's pairwise sums over the cells in order: leaves of
 * at most LEAF cells (`leaves` holds each leaf's end and the merges
 * that follow it in the tree, n/2 rounded down to a multiple of 8 a
 * split, as in section 3), formed as soon as their cells are final --
 * after row j for rho, after sweep row q for delta -- and pushed on a
 * per-column stack that is merged (left + right) as the tree says; the
 * result is 0.0 plus the root.  A product is a * r', which has the bits
 * of masked_dot's (a * r') * w: the caller hands dinv in only where the
 * mask w is 0.0 exactly where dinv is, so there r' = r * 0.0 is +-0.0 or
 * NaN, a * r' too, and times 0.0 keeps its sign or NaN; times 1.0 keeps
 * anything.  No mask is read.
 *
 * Vectors hold `ncols` columns interleaved per cell (ncols <= CHUNK),
 * dinv one value per cell; the caller keeps the vectors apart and sizes
 * the scratch, and sets `symmetric` only for a matrix symmetric bit for
 * bit, whose single-column sweep then reads half the planes
 * (dia_mirror).
 * ------------------------------------------------------------------ */
#define SPAN_ROWS 5
/* Depth of a pairwise tree over more cells than memory holds. */
#define MAX_DEPTH 64

typedef struct {
    int64_t n, nx, ncols, ndiag, stride, nleaves, symmetric;
    const double *data;
    const int64_t *offsets, *leaves;   /* leaves: (end, merges) each */
    const double *dinv;
    double *x, *r, *s, *p, *z;
    double *window;                    /* 2 * SPAN_ROWS rows */
    double *stacks;                    /* 2 dots x ncols x MAX_DEPTH */
    double *coef;                      /* alpha, beta, held alpha */
    double *dots;                      /* rho[ncols], delta[ncols] */
} chrongear_program;

/* What a call runs (mode bits): the handed iteration's recurrences,
 * the next iteration's head; HOLD keeps the chain's x update for the
 * next call (which has s and s' both in hand: x = (x + held * s) +
 * alpha * s', the same two roundings in the same order, one pass over
 * x for two iterations), HELD says a kept update comes first. */
#define SPAN_CHAIN 1
#define SPAN_HEAD 2
#define SPAN_HOLD 4
#define SPAN_HELD 8

/* One run of m elements from the vectors' element `at`, the flags and
 * the coefficient form fixed at compile time: with `tiled`, element i's
 * alpha, beta, -alpha and held alpha are coef[k][i] and its reciprocal
 * diagonal dd[i] (a batch, spread over the columns); without, coef[k][0]
 * and dd[i] (one column). */
static inline __attribute__((always_inline)) void
span_run(const chrongear_program *g, int64_t at, int64_t m, int flags,
         int tiled, const double *restrict dd, const double *const *coef,
         double *restrict w0, double *restrict w1)
{
    const double *restrict ta = coef[0], *restrict tb = coef[1],
                           *restrict tm = coef[2], *restrict th = coef[3],
                           *restrict z = g->z + at;
    double *restrict x = g->x + at, *restrict r = g->r + at,
           *restrict s = g->s + at, *restrict p = g->p + at;
    for (int64_t i = 0; i < m; i++) {
        const int64_t c = tiled ? i : 0;
        if (flags & SPAN_HELD) {
            const double t = th[c] * s[i];
            x[i] = x[i] + t;
        }
        if (flags & SPAN_CHAIN) {
            const double rp = r[i] * dd[i];
            double t = tb[c] * s[i];
            s[i] = t + rp;
            t = tb[c] * p[i];
            p[i] = t + z[i];
            if (!(flags & SPAN_HOLD)) {
                t = ta[c] * s[i];
                x[i] = x[i] + t;
            }
            t = tm[c] * p[i];
            r[i] = r[i] + t;
        }
        if (flags & SPAN_HEAD) {
            const double v = r[i] * dd[i];
            w0[i] = v;
            w1[i] = v;
        }
    }
}

#define SPAN_CASE(F, TILED)                                                \
    case F:                                                                \
        span_run(g, at, m, F, TILED, dd, coef, w0, w1);                    \
        break;
/* The flag combinations a runner makes: a chain alone (the last),
 * a head alone (the first, or after an iteration that updated nothing),
 * both with HOLD, any of them after a HOLD, and a flush. */
#define SPAN_CASES(TILED)                                                  \
    switch (flags) {                                                       \
    SPAN_CASE(1, TILED) SPAN_CASE(2, TILED) SPAN_CASE(7, TILED)            \
    SPAN_CASE(8, TILED) SPAN_CASE(9, TILED) SPAN_CASE(10, TILED)           \
    SPAN_CASE(15, TILED)                                                   \
    }

/* One column: a row of cells, scalar coefficients. */
static void span_single(const chrongear_program *g, int64_t at, int64_t m,
                        int flags, const double *const *coef,
                        double *w0, double *w1)
{
    const double *dd = g->dinv + at;
    SPAN_CASES(0)
}

#define SPREAD_CASE(W)                                                     \
    case W:                                                                \
        for (int64_t k = 0; k < m; k += W, d++)                            \
            for (int c = 0; c < W; c++)                                    \
                dd[k + c] = d[0];                                          \
        break;

/* More columns: a chunk of elements from `at` (a cell boundary), the
 * coefficients tiled along a chunk and the reciprocal diagonal spread
 * over the columns first. */
static void span_columns(const chrongear_program *g, int64_t at, int64_t m,
                         int flags, const double *const *coef, double *w0,
                         double *w1)
{
    double dd[CHUNK];
    const double *d = g->dinv + at / g->ncols;
    switch (g->ncols) {   /* a loop of run-time length is 2x slower */
    SPREAD_CASE(2) SPREAD_CASE(3) SPREAD_CASE(4) SPREAD_CASE(5)
    SPREAD_CASE(6) SPREAD_CASE(7) SPREAD_CASE(8)
    default:
        for (int64_t k = 0; k < m; d++)
            for (int64_t c = 0; c < g->ncols; c++, k++)
                dd[k] = d[0];
    }
    SPAN_CASES(1)
}

/* numpy's leaf of u * (v * d) over n cells of one column. */
#define SPAN_TERM(k) (u[k] * (v[k] * dd[k]))
static double span_leaf(const double *u, const double *v, const double *dd,
                        int64_t n)
{
    LEAF_SUM(SPAN_TERM)
}

/* The same for W <= 4 columns at once (u and v at the group's first
 * column, cell t's at t * ncols): each column's LEAF_SUM, the eight
 * accumulators vectors over the columns -- no products stored; wider
 * groups spill the accumulators.  A batch runs in groups of four. */
#define SPAN_TERMS(k) (u[(k) * ncols + c] * (v[(k) * ncols + c] * dd[k]))
#define LEAF_COLUMNS(W)                                                    \
static void leaf_##W(const double *u, const double *v, const double *dd,   \
                     int64_t n, int64_t ncols, double *res)                \
{                                                                          \
    double acc[8][W];                                                      \
    int64_t i = 0;                                                         \
    if (n < 8) {                                                           \
        for (int c = 0; c < W; c++)                                        \
            res[c] = -0.0;                                                 \
        for (; i < n; i++)                                                 \
            for (int c = 0; c < W; c++)                                    \
                res[c] += SPAN_TERMS(i);                                   \
        return;                                                            \
    }                                                                      \
    for (int j = 0; j < 8; j++)                                            \
        for (int c = 0; c < W; c++)                                        \
            acc[j][c] = SPAN_TERMS(j);                                     \
    for (i = 8; i < n - (n % 8); i += 8)                                   \
        for (int j = 0; j < 8; j++)                                        \
            for (int c = 0; c < W; c++)                                    \
                acc[j][c] += SPAN_TERMS(i + j);                            \
    for (int c = 0; c < W; c++)                                            \
        res[c] = ((acc[0][c] + acc[1][c]) + (acc[2][c] + acc[3][c]))       \
                 + ((acc[4][c] + acc[5][c]) + (acc[6][c] + acc[7][c]));    \
    for (; i < n; i++)                                                     \
        for (int c = 0; c < W; c++)                                        \
            res[c] += SPAN_TERMS(i);                                       \
}
LEAF_COLUMNS(1) LEAF_COLUMNS(2) LEAF_COLUMNS(3) LEAF_COLUMNS(4)

typedef void leaf_fn(const double *, const double *, const double *, int64_t,
                     int64_t, double *);
static leaf_fn *const LEAVES[] = {leaf_1, leaf_2, leaf_3, leaf_4};

typedef struct {
    int64_t next, depth;   /* the next leaf; values on the stack */
    double *stack;         /* column c's at stack[c * MAX_DEPTH] */
} span_dot;

/* Every leaf of <u, r'> whose cells end by cell `done`, pushed and
 * merged in tree order. */
static void span_dots(const chrongear_program *g, const double *u,
                      int64_t done, span_dot *dot)
{
    const int64_t ncols = g->ncols;
    for (; dot->next < g->nleaves && g->leaves[2 * dot->next] <= done;
         dot->next++) {
        const int64_t hi = g->leaves[2 * dot->next];
        const int64_t lo = dot->next ? g->leaves[2 * dot->next - 2] : 0;
        double *top = dot->stack + dot->depth++;
        if (ncols == 1)
            top[0] = span_leaf(u + lo, g->r + lo, g->dinv + lo, hi - lo);
        else
            for (int64_t c0 = 0; c0 < ncols; c0 += 4) {
                double res[4];
                const int64_t nc = ncols - c0 < 4 ? ncols - c0 : 4;
                LEAVES[nc - 1](u + lo * ncols + c0, g->r + lo * ncols + c0,
                               g->dinv + lo, hi - lo, ncols, res);
                for (int64_t c = 0; c < nc; c++)
                    top[(c0 + c) * MAX_DEPTH] = res[c];
            }
        for (int64_t k = 0; k < g->leaves[2 * dot->next + 1]; k++) {
            dot->depth--;
            for (int64_t c = 0; c < ncols; c++) {
                double *col = dot->stack + c * MAX_DEPTH + dot->depth;
                col[-1] = col[-1] + col[0];
            }
        }
    }
}

void chrongear_span(chrongear_program *g, int64_t mode)
{
    const int64_t nx = g->nx, ncols = g->ncols, rows = g->n / nx;
    const int64_t run = nx * ncols, chunk = CHUNK - CHUNK % ncols;
    const int flags = (int)mode, head = (flags & SPAN_HEAD) != 0;
    dia_matrix a = dia_of(g->n, g->ndiag, g->data, g->stride, g->offsets);
    if (g->symmetric)
        dia_mirror(&a);
    span_dot rho = {0, 0, g->stacks},
             delta = {0, 0, g->stacks + ncols * MAX_DEPTH};
    /* alpha, beta, -alpha, held alpha: one value, or tiled for a batch */
    double *alpha = g->coef, *held = g->coef + 2 * ncols;
    double minus = -alpha[0];
    const double *coef[4] = {alpha, g->coef + ncols, &minus, held};
    double tiles[ncols > 1 ? 4 : 1][CHUNK];
    for (int64_t k = 0; ncols > 1 && k < chunk; k++) {
        tiles[0][k] = alpha[k % ncols];
        tiles[1][k] = g->coef[ncols + k % ncols];
        tiles[2][k] = -tiles[0][k];
        tiles[3][k] = held[k % ncols];
    }
    if (ncols > 1)
        for (int k = 0; k < 4; k++)
            coef[k] = tiles[k];
    for (int64_t j = 0; j < rows + (head ? 2 : 0); j++) {
        if (j < rows) {
            double *w0 = g->window + (j % SPAN_ROWS) * run;
            double *w1 = w0 + SPAN_ROWS * run;
            if (ncols == 1)
                span_single(g, j * run, run, flags, coef, w0, w1);
            else
                for (int64_t e = 0; e < run; e += chunk)
                    span_columns(g, j * run + e,
                                 run - e < chunk ? run - e : chunk, flags,
                                 coef, w0 + e, w1 + e);
            if (head)
                span_dots(g, g->r, (j + 1) * nx, &rho);
        }
        const int64_t q = j - 2;
        if (!head || q < 0)
            continue;
        /* rows q - 2 .. q + 2 from slot (q - 2) mod SPAN_ROWS on */
        const int64_t first = (q + SPAN_ROWS - 2) % SPAN_ROWS;
        sweep_row(&a, q * nx, (q + 1) * nx, ncols,
                  g->window + (first - (q - 2)) * run, g->z + q * run);
        span_dots(g, g->z, (q + 1) * nx, &delta);
    }
    for (int64_t c = 0; head && c < ncols; c++) {
        g->dots[c] = 0.0 + rho.stack[c * MAX_DEPTH];
        g->dots[ncols + c] = 0.0 + delta.stack[c * MAX_DEPTH];
    }
    for (int64_t c = 0; (flags & SPAN_HOLD) && c < ncols; c++)
        held[c] = alpha[c];
}

/* ------------------------------------------------------------------
 * 9. P-CSI or ChronGear with the block EVP preconditioner, in calls
 *    split at the ring matmul, and the halo copy of a block stack.
 *
 * An iteration's r' = M^-1 r is gather, march from a zero ring, edge
 * residuals f, the ring correction -- a BLAS matmul per slice, run by
 * the caller --, march from the corrected ring, masked scatter.  The
 * HEAD of an iteration (mode EVP_HEAD) runs up to f, its TAIL (EVP_TAIL)
 * from the corrected march on, so the matmul falls between two calls.
 * The phases run in this order over the whole layout, each through the
 * code of its own entry point, so every value is the one the entry
 * points called one by one give:
 *     CHAIN ChronGear's recurrences of the iteration whose alpha and
 *           beta are in the coefficient slots (EVP_CHAIN), after the x
 *           update a previous call kept (EVP_HELD): section 2's steps
 *               s = (beta * s) + r';  p = (beta * p) + z;
 *               x = x + (alpha * s);  r = r + ((-alpha) * p)
 *           over the rows of the geometry, each column with its own
 *           coefficients.  A chain a head follows keeps its x update
 *           for the next call unless it applies a kept one itself, and
 *           the next call applies it with its own (x = (x + held * s) +
 *           alpha * s', the same two roundings in the same order): one
 *           pass over x for two iterations.
 *     TAIL  every group's evp_march from -ring; then for P-CSI the
 *           scatter of section 7 with each cell's state * mask consumed
 *           at once by section 2's combine (dx) and axpy (x) -- cells no
 *           tile covers take r' = 0.0, the value the scatter writes
 *           there --, the halo copy of x and every row of the geometry
 *           swept into r (sweep_row) and subtracted from b, numpy's
 *           b - Ax; for ChronGear
 *           evp_scatter into r', the halo copy of r', and block by
 *           block its rows swept into z followed by the block's <r, r'>
 *           and <z, r'> (pairwise_dot over its window, the weights w, as
 *           window_dots forms them), the blocks' sums added to 0.0 in
 *           block order, the virtual machine's reduction (a grid is one
 *           block: masked_dot's bits).
 *     HEAD  evp_gather of r into the packed rows; every group's
 *           evp_march from a zero ring and evp_edges into f.
 * A P-CSI span of n iterations is n + 1 calls: a head, n - 1 tails
 * with the next heads, a tail.  A ChronGear iteration is a chain (or
 * none) with the next head, then that head's tail; its coefficients
 * are formed from the tail's dots between the calls.  The residual
 * and z read their source only after all of it is final, so no row
 * lags another.
 *
 * A RESIDUAL call (EVP_RESIDUAL alone) is a TAIL's last two phases on
 * their own: the halo copy of the stack and every row of the geometry
 * swept into r and subtracted from b -- checked, with `abft` and
 * `rowsum`, as a TAIL's are.  It serves the guarded loop's cross-check:
 * the caller points a copy of a P-CSI or ChronGear program at the
 * iterate x (`stack`), its right-hand side (`b`) and a stack of its own
 * (`r`), so the P-CSI residual's code gives the cross-check's b - A x.
 *
 * The halo copy (EVP_HALO alone: only the first seven words of the
 * program are read) sets stack cell dst[i] to cell src[i] and cell
 * zero[i] to 0.0, `ncols` doubles a cell -- numpy's flat[dst] =
 * flat[src]; flat[zero] = 0.0, the source cells never among the others.
 * On a grid there is nothing to copy (ndst = nzero = 0).  `stack` is
 * the stack the sweep reads by cell index -- x for P-CSI, r' for
 * ChronGear -- and the vectors point at the first cell of the layout
 * the boundary programs and the geometry address (a stack's first
 * interior cell).  A program with z NULL is P-CSI's.
 *
 * A TAIL whose program names `abft` (NULL: off) makes a checker's sums
 * as by-products, `ncols` doubles a sum.  Its halo copy writes the zero
 * cells, then copies the others, adding up per stack slot the values it
 * writes (0.0 for a zero cell: the sum starts at 0.0) into abft's first
 * slots * ncols doubles -- the sender's truth --, and a second pass
 * re-reads the same cells in the same order (the zero cells, then the
 * copied ones) into the next slots * ncols: the two are equal bit for
 * bit exactly when every cell holds what was written (NaN where NaN was
 * written).  With `rowsum` too -- A 1, one value a cell in the layout's
 * packed interior rows, as `w` -- the sweep adds up over every block's
 * window (`extents`; NULL: whole blocks), no pad cell, three sums after
 * those: sum A v, sum rowsum * v and sum |rowsum * v|, v the swept
 * stack.  Only each other, or a relative tolerance, ever judges them.
 * ------------------------------------------------------------------ */
typedef struct {
    const int64_t *march;              /* evp_march's program */
    const double *coef, *inv_ne, *rhs;
    double *state;
    const double *ring;                /* the ring matmul's (ncols, B, 1, k) */
    const int64_t *edges, *coef_off, *src_rows;   /* evp_edges' tables */
    const double *edge_rhs;
    double *f;
} evp_group;

typedef struct {
    /* the halo copy */
    int64_t ncols, ndst, nzero;
    const int64_t *dst, *src, *zero;
    double *stack;
    /* the preconditioner */
    int64_t ngroups;
    const evp_group *groups;
    const int64_t *gather, *scatter;   /* section 7's programs */
    const double *mask;
    double *rhs, *state;               /* every group's rows and states */
    /* the residual: A over n cells, dia_sweep's row geometry */
    int64_t n, ndiag, stride;
    const double *data;
    const int64_t *offsets, *rows;
    const double *b;
    double *r, *dx, *x;
    const double *weights;             /* w, c of the TAIL's iteration */
    /* ChronGear: the vectors, alpha, beta and held alpha (ncols each),
     * rho and delta (ncols each), the dots' weights (one per cell of
     * the layout) and every block's window (NULL: whole blocks) */
    double *s, *p, *rp, *z;
    double *coef, *dots;
    const double *w;
    const int64_t *extents;
    /* a checker's sums of the next TAIL -- 2 * slots + 3 values a
     * column -- and A 1 for its row-sum terms (NULL: none) */
    double *abft;
    const double *rowsum;
} evp_program;

#define EVP_TAIL 1
#define EVP_HEAD 2
#define EVP_HALO 4
#define EVP_CHAIN 8
#define EVP_HELD 16
#define EVP_RESIDUAL 32

/* One tile cell of every column: r' = state * mask, then the chain. */
#define CHAIN_CELLS(W)                                                     \
    for (int64_t pos = p0; pos < p1; pos++) {                              \
        const double wm = m[morigins[pos]];                                \
        double *d = dxr + origins[pos], *o = xr + origins[pos];            \
        for (int64_t c = 0; c < (W); c++) {                                \
            const double rp = s[pos * (W) + c] * wm;                       \
            const double t = cw * d[c], u = w * rp;                        \
            d[c] = t + u;                                                  \
            const double v = 1.0 * d[c];                                   \
            o[c] = o[c] + v;                                               \
        }                                                                  \
    }
#define CHAIN_CASE(W)                                                      \
    case W:                                                                \
        CHAIN_CELLS(W)                                                     \
        break;

static void scatter_chain(const evp_program *p)
{
    const int64_t *prog = p->scatter, ncols = p->ncols;
    const int64_t ngroups = prog[0], nzero = prog[1], cell = prog[2];
    const int64_t *sizes = prog + 3, *at = prog + 3 + 3 * ngroups;
    const double w = p->weights[0], cw = p->weights[1];
    for (int64_t g = 0; g < ngroups; g++) {
        const int64_t b = sizes[3 * g], rows = sizes[3 * g + 1];
        const double *state = p->state + sizes[3 * g + 2] * ncols;
        const int64_t *origins = at, *offsets = origins + b,
                      *morigins = offsets + rows, *moffsets = morigins + b,
                      *slots = moffsets + rows;
        at = slots + rows;
        for (int64_t p0 = 0; p0 < b; p0 += SCATTER_TILES) {
            const int64_t p1 = b - p0 < SCATTER_TILES ? b : p0 + SCATTER_TILES;
            for (int64_t row = 0; row < rows; row++) {
                const double *s = state + slots[row] * b * ncols;
                const double *m = p->mask + moffsets[row];
                double *dxr = p->dx + offsets[row], *xr = p->x + offsets[row];
                switch (ncols) {
                CHAIN_CASE(1) CHAIN_CASE(2) CHAIN_CASE(3) CHAIN_CASE(4)
                CHAIN_CASE(5) CHAIN_CASE(6) CHAIN_CASE(7) CHAIN_CASE(8)
                default:
                    CHAIN_CELLS(ncols)
                }
            }
        }
    }
    for (int64_t z = 0; z < nzero; z++, at += 2)
        for (int64_t i = 0; i < at[1]; i++) {
            double *d = p->dx + at[0] + i * cell, *o = p->x + at[0] + i * cell;
            for (int64_t c = 0; c < ncols; c++) {
                const double t = cw * d[c], u = w * 0.0;
                d[c] = t + u;
                const double v = 1.0 * d[c];
                o[c] = o[c] + v;
            }
        }
}

/* Adds the `ncols` values of each of `count` stack cells, in order, to
 * the sums of its slot (`per` cells a slot), one run of cells of a slot
 * at a time (the tables run slot by slot) -- having first copied cell
 * src[i] into cell i where `src` is given: the sums of what a copy
 * writes and of what its cells hold afterwards take the same roundings.
 * With `again`, each run's cells are then re-read, in the same order,
 * into the slots' sums there: no later write reaches a run's cells (a
 * copied or zeroed cell is never a source, and each is written once),
 * so they hold then what they hold once the copy is done, and the
 * re-read finds them in cache. */
static inline __attribute__((always_inline)) void
slot_run_sums(double *s, const int64_t ncols, int64_t per,
              const int64_t *cells, const int64_t *src, int64_t count,
              double *sums, double *again)
{
    double run[ncols];
    for (int64_t i = 0; i < count;) {
        const int64_t lo = cells[i] - cells[i] % per, hi = lo + per;
        const int64_t first = i;
        for (int64_t c = 0; c < ncols; c++)
            run[c] = 0.0;
        for (; i < count && cells[i] >= lo && cells[i] < hi; i++) {
            double *d = s + cells[i] * ncols;
            if (src) {
                const double *from = s + src[i] * ncols;
                for (int64_t c = 0; c < ncols; c++) {
                    const double v = from[c];
                    d[c] = v;
                    run[c] = run[c] + v;
                }
            } else {
                for (int64_t c = 0; c < ncols; c++)
                    run[c] = run[c] + d[c];
            }
        }
        double *out = sums + lo / per * ncols;
        for (int64_t c = 0; c < ncols; c++)
            out[c] = out[c] + run[c];
        if (!again)
            continue;
        for (int64_t c = 0; c < ncols; c++)
            run[c] = 0.0;
        for (int64_t k = first; k < i; k++) {
            const double *d = s + cells[k] * ncols;
            for (int64_t c = 0; c < ncols; c++)
                run[c] = run[c] + d[c];
        }
        out = again + lo / per * ncols;
        for (int64_t c = 0; c < ncols; c++)
            out[c] = out[c] + run[c];
    }
}

static void slot_sums(double *s, int64_t ncols, int64_t per,
                      const int64_t *cells, const int64_t *src, int64_t count,
                      double *sums, double *again)
{
    if (ncols == 1)
        slot_run_sums(s, 1, per, cells, src, count, sums, again);
    else
        slot_run_sums(s, ncols, per, cells, src, count, sums, again);
}

/* The halo copy of a TAIL with `abft`: the zero cells, summed into the
 * second pass's sums, then the copies summed as they are written, each
 * run re-read into the second pass's sums after its copy -- the second
 * pass in its order, the zero cells then the copied ones. */
static void checked_copy(const evp_program *p)
{
    const int64_t n = p->ncols, per = p->rows[5], slots = p->rows[1];
    double *s = p->stack, *pre = p->abft, *post = pre + slots * n;
    for (int64_t i = 0; i < 2 * slots * n; i++)
        pre[i] = 0.0;
    for (int64_t i = 0; i < p->nzero; i++) {
        double *d = s + p->zero[i] * n;
        for (int64_t c = 0; c < n; c++)
            d[c] = 0.0;
    }
    slot_sums(s, n, per, p->zero, NULL, p->nzero, post, NULL);
    slot_sums(s, n, per, p->dst, p->src, p->ndst, pre, post);
}

static void halo_copy(const evp_program *p)
{
    const int64_t n = p->ncols;
    double *s = p->stack;
    if (n == 1) {
        for (int64_t i = 0; i < p->ndst; i++)
            s[p->dst[i]] = s[p->src[i]];
        for (int64_t i = 0; i < p->nzero; i++)
            s[p->zero[i]] = 0.0;
        return;
    }
    for (int64_t i = 0; i < p->ndst; i++) {
        double *d = s + p->dst[i] * n;
        const double *from = s + p->src[i] * n;
        for (int64_t c = 0; c < n; c++)
            d[c] = from[c];
    }
    for (int64_t i = 0; i < p->nzero; i++) {
        double *d = s + p->zero[i] * n;
        for (int64_t c = 0; c < n; c++)
            d[c] = 0.0;
    }
}

/* The row-sum terms of one row's first `cells` cells, added to t:
 * sum A v, sum w v and sum |w v| per column (av: the row of A v, v: the
 * row of the swept stack, w: the row of A 1); one column in four partial
 * sums, so that no add waits on the one before. */
static void rowsum_row(int64_t cells, int64_t ncols,
                       const double *restrict av, const double *restrict v,
                       const double *restrict w, double *restrict t)
{
    if (ncols == 1) {
        double lhs[4] = {0.0}, rhs[4] = {0.0}, scale[4] = {0.0};
        for (int64_t i = 0; i < cells; i += 4)
            for (int64_t k = 0; k < (cells - i < 4 ? cells - i : 4); k++) {
                const double wv = w[i + k] * v[i + k];
                lhs[k] = lhs[k] + av[i + k];
                rhs[k] = rhs[k] + wv;
                scale[k] = scale[k] + __builtin_fabs(wv);
            }
        t[0] = t[0] + ((lhs[0] + lhs[1]) + (lhs[2] + lhs[3]));
        t[1] = t[1] + ((rhs[0] + rhs[1]) + (rhs[2] + rhs[3]));
        t[2] = t[2] + ((scale[0] + scale[1]) + (scale[2] + scale[3]));
        return;
    }
    double *lhs = t, *rhs = t + ncols, *scale = t + 2 * ncols;
    for (int64_t i = 0; i < cells; i++)
        for (int64_t c = 0; c < ncols; c++) {
            const double wv = w[i] * v[i * ncols + c];
            lhs[c] = lhs[c] + av[i * ncols + c];
            rhs[c] = rhs[c] + wv;
            scale[c] = scale[c] + __builtin_fabs(wv);
        }
}

/* Where a TAIL's row-sum terms go (zeroed), or NULL: none are due. */
static double *rowsum_terms(const evp_program *p)
{
    if (!p->abft || !p->rowsum)
        return NULL;
    const int64_t ncols = p->rows[0];
    double *t = p->abft + 2 * p->rows[1] * ncols;
    for (int64_t c = 0; c < 3 * ncols; c++)
        t[c] = 0.0;
    return t;
}

/* Row q of block bk of the row-sum terms t, the row of A v at av: the
 * part of it inside the block's window. */
static void rowsum_block_row(const evp_program *p, double *t, int64_t bk,
                             int64_t q, int64_t start, const double *av)
{
    const int64_t *g = p->rows, *ext = p->extents ? p->extents + 2 * bk
                                                  : NULL;
    const int64_t ncols = g[0], rows = g[2], cells = g[3];
    if (ext && q >= ext[0])
        return;
    rowsum_row(ext ? ext[1] : cells, ncols, av, p->stack + start * ncols,
               p->rowsum + (bk * rows + q) * cells, t);
}

/* r = b - A x over the rows of the geometry, a row at a time. */
static void residual_rows(const evp_program *p)
{
    const int64_t *g = p->rows;
    const int64_t ncols = g[0], blocks = g[1], rows = g[2], cells = g[3],
                  first = g[4], block_stride = g[5], row_stride = g[6],
                  y_block_stride = g[7], y_row_stride = g[8];
    const dia_matrix a = dia_of(p->n, p->ndiag, p->data, p->stride,
                                p->offsets);
    double *t = rowsum_terms(p);
    for (int64_t bk = 0; bk < blocks; bk++)
        for (int64_t q = 0; q < rows; q++) {
            const int64_t start = first + bk * block_stride + q * row_stride;
            const int64_t at = bk * y_block_stride + q * y_row_stride;
            double *rq = p->r + at;
            const double *bq = p->b + at;
            sweep_row(&a, start, start + cells, ncols, p->stack, rq);
            if (t)
                rowsum_block_row(p, t, bk, q, start, rq);
            for (int64_t i = 0; i < cells * ncols; i++)
                rq[i] = bq[i] - rq[i];
        }
}

/* ChronGear's recurrences as one section 2 chain over the rows of the
 * geometry (rows that follow each other are one run); a chain a head
 * follows keeps its x update when none is kept yet. */
static void recurrences(const evp_program *g, int64_t mode)
{
    const int hold = (mode & EVP_CHAIN) && (mode & EVP_HEAD)
                     && !(mode & EVP_HELD);
    const int64_t *rows = g->rows, n = g->ncols, run = rows[3] * n;
    const int64_t merged = rows[8] == run;
    const update_program geometry = {
        rows[1], merged ? 1 : rows[2], merged ? rows[2] * run : run,
        rows[7], rows[8], n, 0};
    const double *alpha = g->coef, *beta = g->coef + n;
    double *held = g->coef + 2 * n, minus[n];
    for (int64_t c = 0; c < n; c++)
        minus[c] = -alpha[c];
    /* one coefficient per column for a batch, the double for one */
    const int tiled = n > 1;
    update_step steps[5];
    int64_t k = 0;
    if (mode & EVP_HELD)
        steps[k++] = (update_step){0, held[0], 0.0, tiled ? held : NULL,
                                   NULL, g->s, g->x};
    if (mode & EVP_CHAIN) {
        steps[k++] = (update_step){1, 0.0, beta[0], NULL,
                                   tiled ? beta : NULL, g->rp, g->s};
        steps[k++] = (update_step){1, 0.0, beta[0], NULL,
                                   tiled ? beta : NULL, g->z, g->p};
        if (!hold)
            steps[k++] = (update_step){0, alpha[0], 0.0,
                                       tiled ? alpha : NULL, NULL, g->s,
                                       g->x};
        steps[k++] = (update_step){0, minus[0], 0.0, tiled ? minus : NULL,
                                   NULL, g->p, g->r};
    }
    chain_group(&geometry, k, steps);
    for (int64_t c = 0; hold && c < n; c++)
        held[c] = alpha[c];
}

/* z = A r' and the two dots, block by block. */
static void sweep_dots(const evp_program *g)
{
    const int64_t *rows = g->rows;
    const int64_t ncols = rows[0], blocks = rows[1], nrows = rows[2],
                  cells = rows[3], first = rows[4], block_stride = rows[5],
                  row_stride = rows[6], y_block = rows[7], y_row = rows[8];
    const dia_matrix a = dia_of(g->n, g->ndiag, g->data, g->stride,
                                g->offsets);
    /* one block's window, pairwise_dot's geometry */
    const int64_t window[6] = {1, nrows, cells, ncols, y_block, y_row};
    double *rho = g->dots, *delta = g->dots + ncols, part[2 * ncols];
    double *t = rowsum_terms(g);
    for (int64_t c = 0; c < 2 * ncols; c++)
        g->dots[c] = 0.0;
    for (int64_t bk = 0; bk < blocks; bk++) {
        const int64_t at = bk * y_block;
        for (int64_t q = 0; q < nrows; q++) {
            const int64_t start = first + bk * block_stride + q * row_stride;
            double *zq = g->z + at + q * y_row;
            sweep_row(&a, start, start + cells, ncols, g->stack, zq);
            if (t)
                rowsum_block_row(g, t, bk, q, start, zq);
        }
        const double *w = g->w + bk * nrows * cells;
        const int64_t *extents = g->extents ? g->extents + 2 * bk : NULL;
        pairwise_dot(window, g->r + at, g->rp + at, w, extents, part);
        pairwise_dot(window, g->z + at, g->rp + at, w, extents,
                     part + ncols);
        for (int64_t c = 0; c < ncols; c++) {
            rho[c] = rho[c] + part[c];
            delta[c] = delta[c] + part[ncols + c];
        }
    }
}

void evp_step(const evp_program *p, int64_t mode)
{
    const int64_t ncols = p->ncols;
    if (mode & (EVP_CHAIN | EVP_HELD))
        recurrences(p, mode);
    if (mode & EVP_TAIL) {
        for (int64_t g = 0; g < p->ngroups; g++) {
            const evp_group *e = p->groups + g;
            evp_march(e->march, ncols, e->coef, e->inv_ne, e->rhs, e->state,
                      e->ring);
        }
        if (p->z)
            evp_scatter(p->scatter, ncols, p->state, p->mask, p->rp);
        else
            scatter_chain(p);
    }
    if ((mode & (EVP_TAIL | EVP_RESIDUAL)) && p->abft)
        checked_copy(p);
    else if (mode & (EVP_TAIL | EVP_HALO | EVP_RESIDUAL))
        halo_copy(p);
    if ((mode & EVP_TAIL) && p->z)
        sweep_dots(p);
    else if (mode & (EVP_TAIL | EVP_RESIDUAL))
        residual_rows(p);
    if (mode & EVP_HEAD) {
        evp_gather(p->gather, ncols, p->r, p->rhs);
        for (int64_t g = 0; g < p->ngroups; g++) {
            const evp_group *e = p->groups + g;
            evp_march(e->march, ncols, e->coef, e->inv_ne, e->rhs, e->state,
                      NULL);
            evp_edges(e->edges, e->coef_off, e->src_rows, e->coef,
                      e->edge_rhs, e->state, e->f);
        }
    }
}
