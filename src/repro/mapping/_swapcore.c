/* Compiled swap pricing for the mapping optimizers.
 *
 * sc_swap_delta() is the C twin of the numpy gathers in
 * repro.mapping.engine.SwapEngine.swap_delta: the change in weighted
 * hop-sum if threads a and b exchange processors.  Hops come from a
 * digit walk over the node ids (no coordinate array or distance table),
 * so one kernel serves the dense, delta and digit backends alike.
 * Edges between the swapped pair are swap-invariant and skipped.  Each
 * gain is an integer and the products w * gain are summed in CSR order;
 * for integral weights every partial sum is exact, so the result equals
 * the numpy path and the loop reference bit for bit.
 *
 * Compiled on demand into the package's one shared object by
 * repro.native; no Python.h dependency (pure ABI, loaded via cffi).
 */

#include <stdint.h>

static long long hops(intptr_t p, intptr_t q, long long radix, int dims) {
    long long total = 0;
    long long x = p, y = q;
    for (int d = 0; d < dims; d++) {
        long long delta = x % radix - y % radix;
        if (delta < 0)
            delta = -delta;
        total += delta < radix - delta ? delta : radix - delta;
        x /= radix;
        y /= radix;
    }
    return total;
}

/* Weighted gain of moving `thread` from `here` to `there`, skipping its
 * edges to `other`. */
static double side(const intptr_t *indptr, const intptr_t *neighbors,
                   const double *weights, const intptr_t *position,
                   long long radix, int dims, intptr_t thread,
                   intptr_t other, intptr_t here, intptr_t there) {
    double total = 0.0;
    for (intptr_t e = indptr[thread]; e < indptr[thread + 1]; e++) {
        intptr_t neighbor = neighbors[e];
        if (neighbor == other)
            continue;
        intptr_t at = position[neighbor];
        long long gain = hops(there, at, radix, dims) - hops(here, at, radix, dims);
        total += weights[e] * (double)gain;
    }
    return total;
}

double sc_swap_delta(const intptr_t *indptr, const intptr_t *neighbors,
                     const double *weights, const intptr_t *position,
                     long long radix, int dims, intptr_t a, intptr_t b) {
    intptr_t here_a = position[a];
    intptr_t here_b = position[b];
    return side(indptr, neighbors, weights, position, radix, dims, a, b,
                here_a, here_b)
         + side(indptr, neighbors, weights, position, radix, dims, b, a,
                here_b, here_a);
}
