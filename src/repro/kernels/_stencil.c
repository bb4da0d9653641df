/*
 * The tube solver's substep loop: one call advances the dye field by one
 * output interval (repro/solver/advect.py, AdvectionDiffusion.step).
 *
 * Each substep makes the NumPy step's passes in the NumPy step's order:
 *
 *     r = cc*c
 *     for each neighbour pair (off, lower, upper):
 *         r[off:] += lower*c[:-off];  r[:-off] += upper*c[off:]
 *     r[:m] += cin*(upper_band*(t < upper_off) + lower_band*(t < lower_off))
 *     c += r*sub;  t += sub;  remaining -= sub
 *
 * so every cell sums the same products in the same order.  Compiled with
 * -ffp-contract=off (no fused multiply-add), the fields are bit-identical
 * to NumPy's.  No Python API: ctypes releases the GIL around the call.
 */
#include <stddef.h>

double stencil_advance(
    double *restrict c,         /* the flat field, stepped in place */
    double *restrict r,         /* n doubles of scratch */
    ptrdiff_t n,
    const double *cc,           /* the cell's own weight, n entries */
    ptrdiff_t npairs,
    const ptrdiff_t *offs,      /* per pair: the neighbour's flat distance */
    const double *const *weights, /* per pair: lower, then upper; n - off each */
    const double *cin,          /* the inlet weights, the first m cells */
    ptrdiff_t m,
    const double *upper_band,   /* the two injectors' profiles, m entries */
    const double *lower_band,
    double upper_off,           /* and the times they switch off */
    double lower_off,
    double stable_dt,
    double dt,
    double t)
{
    double remaining = dt;
    while (remaining > 1e-15) {
        double sub = remaining < stable_dt ? remaining : stable_dt;
        for (ptrdiff_t i = 0; i < n; i++)
            r[i] = cc[i] * c[i];
        for (ptrdiff_t k = 0; k < npairs; k++) {
            ptrdiff_t off = offs[k], len = n - offs[k];
            const double *lower = weights[2 * k], *upper = weights[2 * k + 1];
            for (ptrdiff_t i = 0; i < len; i++)
                r[off + i] += lower[i] * c[i];
            for (ptrdiff_t i = 0; i < len; i++)
                r[i] += upper[i] * c[off + i];
        }
        double upper_on = t < upper_off, lower_on = t < lower_off;
        for (ptrdiff_t j = 0; j < m; j++)
            r[j] += cin[j] * (upper_band[j] * upper_on + lower_band[j] * lower_on);
        for (ptrdiff_t i = 0; i < n; i++)
            c[i] += r[i] * sub;
        t += sub;
        remaining -= sub;
    }
    return t;
}
