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
 * row is sweep_row, which chebyshev_span (section 6) calls too.
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

/* One column, every diagonal in reach: nine shifted coefficient and
 * source streams, no branches, vectorized along the row. */
static void sweep_single(int64_t lo, int64_t hi, const double *data,
                         int64_t stride, const int64_t *offsets,
                         const double *x, double *restrict y)
{
    const int64_t o0 = offsets[0], o1 = offsets[1], o2 = offsets[2],
                  o3 = offsets[3], o4 = offsets[4], o5 = offsets[5],
                  o6 = offsets[6], o7 = offsets[7], o8 = offsets[8];
    const double *d0 = data, *d1 = d0 + stride, *d2 = d1 + stride,
                 *d3 = d2 + stride, *d4 = d3 + stride, *d5 = d4 + stride,
                 *d6 = d5 + stride, *d7 = d6 + stride, *d8 = d7 + stride;
#define STREAM(k) acc += d##k[i + o##k] * x[i + o##k];
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

/* A DIA matrix over n cells; between lo and hi every diagonal reaches. */
typedef struct {
    int64_t n, ndiag, stride, lo, hi;
    const double *data;
    const int64_t *offsets;
} dia_matrix;

static dia_matrix dia_of(int64_t n, int64_t ndiag, const double *data,
                         int64_t stride, const int64_t *offsets)
{
    dia_matrix a = {n, ndiag, stride, 0, n, data, offsets};
    for (int64_t k = 0; k < ndiag; k++) {
        if (-offsets[k] > a.lo) a.lo = -offsets[k];
        if (n - offsets[k] < a.hi) a.hi = n - offsets[k];
    }
    if (ndiag != 9 || a.lo >= a.hi)
        a.lo = a.hi = n;
    return a;
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
        sweep_single(from, to, a->data, a->stride, a->offsets, x, y);
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
