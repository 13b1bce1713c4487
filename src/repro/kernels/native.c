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
 * All arrays are C-contiguous float64; counts and offsets are int64 in
 * elements.  Nothing here allocates or keeps state.
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
 * same terms are added here per row, from 0.0, in diagonal order.
 * ------------------------------------------------------------------ */

/* Rows where some diagonal leaves the vector: skip those terms. */
static void sweep_checked(int64_t lo, int64_t hi, int64_t n, int64_t ndiag,
                          const double *data, int64_t stride,
                          const int64_t *offsets, const double *x, double *y)
{
    for (int64_t i = lo; i < hi; i++) {
        double acc = 0.0;
        for (int64_t k = 0; k < ndiag; k++) {
            int64_t j = i + offsets[k];
            if (j >= 0 && j < n)
                acc += data[k * stride + j] * x[j];
        }
        y[i] = acc;
    }
}

void dia_sweep(int64_t n, int64_t ndiag, const double *data, int64_t stride,
               const int64_t *offsets, const double *x, double *restrict y)
{
    int64_t lo = 0, hi = n;
    for (int64_t k = 0; k < ndiag; k++) {
        if (-offsets[k] > lo) lo = -offsets[k];
        if (n - offsets[k] < hi) hi = n - offsets[k];
    }
    if (ndiag != 9 || lo >= hi) {
        sweep_checked(0, n, n, ndiag, data, stride, offsets, x, y);
        return;
    }
    sweep_checked(0, lo, n, ndiag, data, stride, offsets, x, y);
    /* Between the first and the last row every diagonal reaches: nine
     * shifted coefficient and source streams, no branches. */
    const int64_t o0 = offsets[0], o1 = offsets[1], o2 = offsets[2],
                  o3 = offsets[3], o4 = offsets[4], o5 = offsets[5],
                  o6 = offsets[6], o7 = offsets[7], o8 = offsets[8];
    const double *d0 = data, *d1 = d0 + stride, *d2 = d1 + stride,
                 *d3 = d2 + stride, *d4 = d3 + stride, *d5 = d4 + stride,
                 *d6 = d5 + stride, *d7 = d6 + stride, *d8 = d7 + stride;
    for (int64_t i = lo; i < hi; i++) {
        double acc = 0.0;
        acc += d0[i + o0] * x[i + o0];
        acc += d1[i + o1] * x[i + o1];
        acc += d2[i + o2] * x[i + o2];
        acc += d3[i + o3] * x[i + o3];
        acc += d4[i + o4] * x[i + o4];
        acc += d5[i + o5] * x[i + o5];
        acc += d6[i + o6] * x[i + o6];
        acc += d7[i + o7] * x[i + o7];
        acc += d8[i + o8] * x[i + o8];
        y[i] = acc;
    }
    sweep_checked(hi, n, n, ndiag, data, stride, offsets, x, y);
}

/* ------------------------------------------------------------------
 * 2. A chain of vector updates, chunk by chunk.
 *
 * Step s is one of (numpy's roundings, in numpy's order):
 *   axpy    (0)  t = a*x;          y = y + t
 *   xpay    (1)  t = b*y;          y = t + x
 *   combine (2)  t = b*y; u = a*x; y = t + u
 * Element i of a step reads only element i of its operands, so running
 * every step on one chunk before the next chunk is the same arithmetic
 * as running every step on the whole vector.  Operands of different
 * steps may be the same array (x of a later step is y of an earlier
 * one in ChronGear); they must not overlap at an offset.  A step is
 * the struct below: `struct.pack("qddPP", kind, a, b, x, y)`.
 * ------------------------------------------------------------------ */
typedef struct {
    int64_t kind;
    double a, b;
    const double *x;
    double *y;
} update_step;

void update_chain(int64_t n, int64_t nsteps, const update_step *steps)
{
    for (int64_t c = 0; c < n; c += CHUNK) {
        int64_t m = n - c < CHUNK ? n - c : CHUNK;
        for (int64_t s = 0; s < nsteps; s++) {
            const double *xs = steps[s].x + c;
            double *ys = steps[s].y + c;
            double as = steps[s].a, bs = steps[s].b;
            int64_t kind = steps[s].kind;
            if (kind == 0) {
                for (int64_t i = 0; i < m; i++) {
                    double t = as * xs[i];
                    ys[i] = ys[i] + t;
                }
            } else if (kind == 1) {
                for (int64_t i = 0; i < m; i++) {
                    double t = bs * ys[i];
                    ys[i] = t + xs[i];
                }
            } else {
                for (int64_t i = 0; i < m; i++) {
                    double t = bs * ys[i];
                    double u = as * xs[i];
                    ys[i] = t + u;
                }
            }
        }
    }
}

/* ------------------------------------------------------------------
 * 3. sum(a * b * w) with numpy's pairwise blocking, products formed on
 *    the fly (w is the land mask as 0.0 / 1.0).
 *
 * numpy's float add.reduce over a contiguous vector: fewer than 8
 * elements are summed in order; up to 128 go through 8 interleaved
 * accumulators combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) plus an
 * in-order tail; anything longer is split at n/2 rounded down to a
 * multiple of 8 and the halves are added.  The reduction starts from
 * the identity, so the result is 0.0 + that.  Each term is numpy's
 * `a * b * w`: the product rounded, then multiplied by the weight.
 * ------------------------------------------------------------------ */
#define TERM(i) (a[i] * b[i] * w[i])

static double pairwise(const double *a, const double *b, const double *w,
                       int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += TERM(i);
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = TERM(j);
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += TERM(i + j);
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += TERM(i);
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, b, w, n2) + pairwise(a + n2, b + n2, w + n2, n - n2);
}

double pairwise_dot(const double *a, const double *b, const double *w,
                    int64_t n)
{
    return 0.0 + pairwise(a, b, w, n);
}

/* ------------------------------------------------------------------
 * 4. One EVP march over the skewed state S[J + I, J, tile].
 *
 * `prog` holds, per anti-diagonal step,
 *     count, row, target, nterms, (coef_off, src_off) x nterms
 * all in elements: the step solves `count` equations whose right-hand
 * sides (and 1/ne) start at `row`, reading term t's coefficients at
 * coef + coef_off and its sources at state + src_off -- contiguous
 * runs, because the tile axis is innermost -- and writes the north-east
 * unknowns at state + target:
 *     cur = rhs; cur = cur - coef_t * src_t (t in order); out = cur/ne
 * as multiply-then-subtract and one multiply by the stored 1/ne, the
 * reference's sequence.  Terms are taken four at a time with `cur` in
 * a register (a loop over the terms inside the element loop does not
 * vectorize; one pass per term is bound by its loads and stores of
 * `cur`); the simplified stencil's four terms are one pass.  A step's
 * target diagonal lies beyond all its sources, so its chunks are
 * independent.
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

void evp_march(int64_t nsteps, const int64_t *prog, const double *coef,
               const double *inv_ne, const double *rhs, double *state)
{
    double acc[CHUNK];
    for (int64_t s = 0; s < nsteps; s++) {
        int64_t count = prog[0], row = prog[1], target = prog[2];
        int64_t nterms = prog[3];
        const int64_t *terms = prog + 4;
        prog = terms + 2 * nterms;
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
}

/* ------------------------------------------------------------------
 * 5. Residuals of the k unmarched (north/east edge) equations:
 *     f = -rhs; f = f + coef_t * src_t (t in order, NE last)
 * Equation e of term t reads `bn` coefficients at
 * coef + coef_off[t] + e * bn and its sources in state row
 * src_rows[t * k + e] (rows of bn elements).  Four terms a pass, as in
 * the march.
 * ------------------------------------------------------------------ */
void evp_edges(int64_t k, int64_t bn, int64_t nterms, const int64_t *coef_off,
               const int64_t *src_rows, const double *coef,
               const double *rhs, const double *state, double *restrict f)
{
    for (int64_t e = 0; e < k; e++) {
        double *fe = f + e * bn;
        const double *re = rhs + e * bn;
        for (int64_t v = 0; v < bn; v++)
            fe[v] = -re[v];
        int64_t t = 0;
        for (; t + 4 <= nterms; t += 4) {
            const double *c0 = coef + coef_off[t] + e * bn,
                         *c1 = coef + coef_off[t + 1] + e * bn,
                         *c2 = coef + coef_off[t + 2] + e * bn,
                         *c3 = coef + coef_off[t + 3] + e * bn,
                         *s0 = state + src_rows[t * k + e] * bn,
                         *s1 = state + src_rows[(t + 1) * k + e] * bn,
                         *s2 = state + src_rows[(t + 2) * k + e] * bn,
                         *s3 = state + src_rows[(t + 3) * k + e] * bn;
            for (int64_t i = 0; i < bn; i++) {
                double v = fe[i];
                fe[i] = FOUR_TERMS(+);
            }
        }
        for (; t < nterms; t++) {
            const double *c0 = coef + coef_off[t] + e * bn;
            const double *s0 = state + src_rows[t * k + e] * bn;
            for (int64_t i = 0; i < bn; i++)
                fe[i] = fe[i] + c0[i] * s0[i];
        }
    }
}
