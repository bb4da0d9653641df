/* Fused co-moment kernel for the batched Martinez fold.
 *
 * Given nb staged member slabs (each (m, stride) row-major, m = p + 2
 * streams ordered [Y^A, Y^B, Y^C1 .. Y^Cp]) and a cell window
 * [lo, lo + W), accumulate in ONE pass over the data:
 *
 *   sz[i, n]      = sum_b  z_b[i, n]               (residual sums)
 *   gd[i, n]      = sum_b  z_b[i, n]^2             (raw second moments)
 *   gx[l*p+k, n]  = sum_b  z_b[l, n] * z_b[2+k, n] (raw cross co-moments)
 *
 * where z_b = slab_b - slab_0 is the residual against the first staged
 * slab (slab_0 contributes the implicit all-zero row, so loops start at
 * b = 1).  Two entry points share the accumulation pipeline:
 *
 * - fold_block:  write the raw sums out; the caller centers them
 *   (gd - nb*mz^2, gx - nb*mzx*mzc) and runs the Pebay combination in
 *   NumPy — the pure-batch API every backend offers.
 * - fold_apply:  additionally fuse the centering AND the exact pairwise
 *   (Pebay, SAND2008-6212) combination into the running state arrays
 *   (mean/m2/cxy), eliminating the separate NumPy combine passes; this
 *   is the full-fold fast path.
 *
 * The hot loop is tiled: an NT-cell tile is processed with the batch
 * loop innermost, so its 3m + 2p accumulator rows (NT cells each, 58 KB
 * of stack at p = 8) stay near L1, and each slab row is read as one
 * contiguous NT * 8-byte run the hardware prefetcher can follow.  The
 * per-cell order of operations does not depend on NT, so every width
 * gives bit-identical state.  NT = 128 comes from an interleaved
 * in-process A/B over {16, 64, 128, 256, 512} on a 2-vCPU Sapphire
 * Rapids VM (p = 6, 16 slabs), in the four regimes a rank meets: with
 * slabs and state cache-cold it was the fastest width at 10000 and at
 * 2048 cells (0.92 of np.copyto bandwidth at 10000, where the former
 * NT = 16 reached 0.60 and 256 tied); cache-hot, 64 led and 128 was
 * 7-11 % behind, while 256 was 33-63 % behind.  Per-p specializations
 * (p = 1..8 covers the paper's p = 6) let the compiler fully unroll the
 * stream loops; a generic version with a fixed-size tile covers larger
 * p.  The calls run on fold threads, so every frame is bounded: CI
 * compiles this file with -Wstack-usage=262144.
 *
 * Built at first use by repro.kernels.cext with the system C compiler;
 * if no compiler is present the backend reports itself unavailable and
 * selection falls back to the einsum baseline.
 *
 * Threading: this file deliberately has NO Python API — no #include
 * <Python.h>, no Py_BEGIN_ALLOW_THREADS — because it is loaded through
 * ctypes.CDLL, which already releases the GIL around every foreign
 * call.  Both entry points touch only their arguments and stack-local
 * accumulators, so concurrent calls over disjoint [lo, lo+W) windows
 * (the repro.kernels.parallel cell shards) are data-race-free.
 */

#include <stddef.h>

#define NT 128

/* Writeback helpers, instantiated inside the tile loop.
 *
 * RAW mode: dump the accumulators for the Python-side centering.
 * APPLY mode: center about the batch mean and combine with the running
 * state.  With na prior samples and nb new ones:
 *     mz   = sz / nb                   (batch mean of residuals)
 *     gd_c = gd - nb mz^2              (centered diagonal)
 *     gx_c = gx - nb mz_l mz_k         (centered cross)
 *     d    = ref + mz - mean           (batch mean minus running mean)
 *     m2   += gd_c + f d^2             f  = na nb / (na + nb)
 *     cxy  += gx_c + f d_l d_k
 *     mean += d * wb                   wb = nb / (na + nb)
 * and for na == 0 the combination degenerates to plain assignment.
 */

#define DEFINE_FOLD(P)                                                        \
static void fold_p##P(const double *const *slabs, ptrdiff_t nb,               \
                      ptrdiff_t stride, ptrdiff_t lo, ptrdiff_t W,            \
                      int apply, ptrdiff_t na, ptrdiff_t sstride,             \
                      double *o1, double *o2, double *o3)                     \
{                                                                             \
    enum { M = P + 2 };                                                       \
    double inv_b = 1.0 / (double) nb;                                         \
    double f = 0.0, wb = 0.0;                                                 \
    if (apply && na > 0) {                                                    \
        double n = (double) (na + nb);                                        \
        f = (double) na * (double) nb / n;                                    \
        wb = (double) nb / n;                                                 \
    }                                                                         \
    for (ptrdiff_t n0 = 0; n0 < W; n0 += NT) {                                \
        ptrdiff_t nn = W - n0 < NT ? W - n0 : NT;                             \
        double asz[M][NT], agd[M][NT], agx[2 * P][NT];                        \
        for (int i = 0; i < M; i++)                                           \
            for (int n = 0; n < NT; n++) { asz[i][n] = 0.0; agd[i][n] = 0.0; }\
        for (int j = 0; j < 2 * P; j++)                                       \
            for (int n = 0; n < NT; n++) agx[j][n] = 0.0;                     \
        const double *rf = slabs[0] + lo + n0;                                \
        if (nn == NT) {                                                       \
            for (ptrdiff_t b = 1; b < nb; b++) {                              \
                const double *sb = slabs[b] + lo + n0;                        \
                double z[M][NT];                                              \
                for (int i = 0; i < M; i++)                                   \
                    for (int n = 0; n < NT; n++) {                            \
                        double zz = sb[i * stride + n] - rf[i * stride + n];  \
                        z[i][n] = zz;                                         \
                        asz[i][n] += zz;                                      \
                        agd[i][n] += zz * zz;                                 \
                    }                                                         \
                for (int l = 0; l < 2; l++)                                   \
                    for (int k = 0; k < P; k++)                               \
                        for (int n = 0; n < NT; n++)                          \
                            agx[l * P + k][n] += z[l][n] * z[2 + k][n];       \
            }                                                                 \
        } else {                                                              \
            for (ptrdiff_t b = 1; b < nb; b++) {                              \
                const double *sb = slabs[b] + lo + n0;                        \
                double z[M][NT];                                              \
                for (int i = 0; i < M; i++)                                   \
                    for (ptrdiff_t n = 0; n < nn; n++) {                      \
                        double zz = sb[i * stride + n] - rf[i * stride + n];  \
                        z[i][n] = zz;                                         \
                        asz[i][n] += zz;                                      \
                        agd[i][n] += zz * zz;                                 \
                    }                                                         \
                for (int l = 0; l < 2; l++)                                   \
                    for (int k = 0; k < P; k++)                               \
                        for (ptrdiff_t n = 0; n < nn; n++)                    \
                            agx[l * P + k][n] += z[l][n] * z[2 + k][n];       \
            }                                                                 \
        }                                                                     \
        if (!apply) {                                                         \
            for (int i = 0; i < M; i++)                                       \
                for (ptrdiff_t n = 0; n < nn; n++) {                          \
                    o1[i * W + n0 + n] = asz[i][n];                           \
                    o2[i * W + n0 + n] = agd[i][n];                           \
                }                                                             \
            for (int j = 0; j < 2 * P; j++)                                   \
                for (ptrdiff_t n = 0; n < nn; n++)                            \
                    o3[j * W + n0 + n] = agx[j][n];                           \
        } else {                                                              \
            double mzv[M][NT], dv[M][NT];                                     \
            for (int i = 0; i < M; i++) {                                     \
                double *mean = o1 + i * sstride + lo + n0;                    \
                double *m2 = o2 + i * sstride + lo + n0;                      \
                const double *ri = rf + i * stride;                           \
                for (ptrdiff_t n = 0; n < nn; n++) {                          \
                    double mz = asz[i][n] * inv_b;                            \
                    double gdc = agd[i][n] - nb * mz * mz;                    \
                    mzv[i][n] = mz;                                           \
                    if (na == 0) {                                            \
                        mean[n] = ri[n] + mz;                                 \
                        m2[n] = gdc;                                          \
                    } else {                                                  \
                        double d = ri[n] + mz - mean[n];                      \
                        dv[i][n] = d;                                         \
                        m2[n] += gdc + f * d * d;                             \
                        mean[n] += d * wb;                                    \
                    }                                                         \
                }                                                             \
            }                                                                 \
            for (int l = 0; l < 2; l++)                                       \
                for (int k = 0; k < P; k++) {                                 \
                    double *cxy = o3 + (l * P + k) * sstride + lo + n0;       \
                    for (ptrdiff_t n = 0; n < nn; n++) {                      \
                        double gxc =                                          \
                            agx[l * P + k][n] - nb * mzv[l][n] * mzv[2 + k][n];\
                        if (na == 0)                                          \
                            cxy[n] = gxc;                                     \
                        else                                                  \
                            cxy[n] += gxc + f * dv[l][n] * dv[2 + k][n];      \
                    }                                                         \
                }                                                             \
        }                                                                     \
    }                                                                         \
}

DEFINE_FOLD(1) DEFINE_FOLD(2) DEFINE_FOLD(3) DEFINE_FOLD(4)
DEFINE_FOLD(5) DEFINE_FOLD(6) DEFINE_FOLD(7) DEFINE_FOLD(8)

/* Generic fallback for p > 8: same pipeline, stream loops not unrolled,
   tile scratch sized for the largest supported m (MAX_M streams, GT
   cells: ~59 KB of stack whatever m is). */
#define MAX_M 66
#define GT 16

static void fold_generic(const double *const *slabs, ptrdiff_t nb,
                         ptrdiff_t m, ptrdiff_t stride, ptrdiff_t lo,
                         ptrdiff_t W, int apply, ptrdiff_t na,
                         ptrdiff_t sstride, double *o1, double *o2,
                         double *o3)
{
    ptrdiff_t p = m - 2;
    double inv_b = 1.0 / (double) nb;
    double f = 0.0, wb = 0.0;
    if (apply && na > 0) {
        double n = (double) (na + nb);
        f = (double) na * (double) nb / n;
        wb = (double) nb / n;
    }
    for (ptrdiff_t n0 = 0; n0 < W; n0 += GT) {
        ptrdiff_t nn = W - n0 < GT ? W - n0 : GT;
        double asz[MAX_M][GT], agd[MAX_M][GT], agx[2 * (MAX_M - 2)][GT];
        double z[MAX_M][GT];
        for (ptrdiff_t i = 0; i < m; i++)
            for (int n = 0; n < GT; n++) { asz[i][n] = 0.0; agd[i][n] = 0.0; }
        for (ptrdiff_t j = 0; j < 2 * p; j++)
            for (int n = 0; n < GT; n++) agx[j][n] = 0.0;
        const double *rf = slabs[0] + lo + n0;
        for (ptrdiff_t b = 1; b < nb; b++) {
            const double *sb = slabs[b] + lo + n0;
            for (ptrdiff_t i = 0; i < m; i++)
                for (ptrdiff_t n = 0; n < nn; n++) {
                    double zz = sb[i * stride + n] - rf[i * stride + n];
                    z[i][n] = zz;
                    asz[i][n] += zz;
                    agd[i][n] += zz * zz;
                }
            for (ptrdiff_t l = 0; l < 2; l++)
                for (ptrdiff_t k = 0; k < p; k++)
                    for (ptrdiff_t n = 0; n < nn; n++)
                        agx[l * p + k][n] += z[l][n] * z[2 + k][n];
        }
        if (!apply) {
            for (ptrdiff_t i = 0; i < m; i++)
                for (ptrdiff_t n = 0; n < nn; n++) {
                    o1[i * W + n0 + n] = asz[i][n];
                    o2[i * W + n0 + n] = agd[i][n];
                }
            for (ptrdiff_t j = 0; j < 2 * p; j++)
                for (ptrdiff_t n = 0; n < nn; n++)
                    o3[j * W + n0 + n] = agx[j][n];
        } else {
            double mzv[MAX_M][GT], dv[MAX_M][GT];
            for (ptrdiff_t i = 0; i < m; i++) {
                double *mean = o1 + i * sstride + lo + n0;
                double *m2 = o2 + i * sstride + lo + n0;
                const double *ri = rf + i * stride;
                for (ptrdiff_t n = 0; n < nn; n++) {
                    double mz = asz[i][n] * inv_b;
                    double gdc = agd[i][n] - nb * mz * mz;
                    mzv[i][n] = mz;
                    if (na == 0) {
                        mean[n] = ri[n] + mz;
                        m2[n] = gdc;
                    } else {
                        double d = ri[n] + mz - mean[n];
                        dv[i][n] = d;
                        m2[n] += gdc + f * d * d;
                        mean[n] += d * wb;
                    }
                }
            }
            for (ptrdiff_t l = 0; l < 2; l++)
                for (ptrdiff_t k = 0; k < p; k++) {
                    double *cxy = o3 + (l * p + k) * sstride + lo + n0;
                    for (ptrdiff_t n = 0; n < nn; n++) {
                        double gxc =
                            agx[l * p + k][n] - nb * mzv[l][n] * mzv[2 + k][n];
                        if (na == 0)
                            cxy[n] = gxc;
                        else
                            cxy[n] += gxc + f * dv[l][n] * dv[2 + k][n];
                    }
                }
        }
    }
}

static int dispatch(const double *const *slabs, ptrdiff_t nb, ptrdiff_t m,
                    ptrdiff_t stride, ptrdiff_t lo, ptrdiff_t W, int apply,
                    ptrdiff_t na, ptrdiff_t sstride, double *o1, double *o2,
                    double *o3)
{
    if (nb < 1 || m < 3 || W < 1)
        return 1;
    switch (m - 2) {
    case 1: fold_p1(slabs, nb, stride, lo, W, apply, na, sstride, o1, o2, o3); return 0;
    case 2: fold_p2(slabs, nb, stride, lo, W, apply, na, sstride, o1, o2, o3); return 0;
    case 3: fold_p3(slabs, nb, stride, lo, W, apply, na, sstride, o1, o2, o3); return 0;
    case 4: fold_p4(slabs, nb, stride, lo, W, apply, na, sstride, o1, o2, o3); return 0;
    case 5: fold_p5(slabs, nb, stride, lo, W, apply, na, sstride, o1, o2, o3); return 0;
    case 6: fold_p6(slabs, nb, stride, lo, W, apply, na, sstride, o1, o2, o3); return 0;
    case 7: fold_p7(slabs, nb, stride, lo, W, apply, na, sstride, o1, o2, o3); return 0;
    case 8: fold_p8(slabs, nb, stride, lo, W, apply, na, sstride, o1, o2, o3); return 0;
    }
    if (m <= MAX_M) {
        fold_generic(slabs, nb, m, stride, lo, W, apply, na, sstride,
                     o1, o2, o3);
        return 0;
    }
    return 1;
}

/* Pure-batch API: raw sums out, centering/combination left to the caller. */
int fold_block(const double *const *slabs, ptrdiff_t nb, ptrdiff_t m,
               ptrdiff_t stride, ptrdiff_t lo, ptrdiff_t W,
               double *sz, double *gd, double *gx)
{
    return dispatch(slabs, nb, m, stride, lo, W, 0, 0, 0, sz, gd, gx);
}

/* Full-fold API: center and Pebay-combine directly into the running
   state arrays (mean/m2 row stride and cxy row stride both sstride). */
int fold_apply(const double *const *slabs, ptrdiff_t nb, ptrdiff_t m,
               ptrdiff_t stride, ptrdiff_t lo, ptrdiff_t W, ptrdiff_t na,
               ptrdiff_t sstride, double *mean, double *m2, double *cxy)
{
    return dispatch(slabs, nb, m, stride, lo, W, 1, na, sstride,
                    mean, m2, cxy);
}
