/* Compiled hot kernels for the repro engine (see repro/_kernels/__init__.py).
 *
 * One kernel, a drop-in for a NumPy-glue hot spot (raw-event binning
 * and the reorder buffer are not: aggregates.base.segment_reduce is a
 * single NumPy ufunc.at scatter and ReorderBuffer.push_batch one stable
 * sort, neither of which a C loop beats):
 *
 *   repro_close_holistic    — one holistic window close (quantile /
 *                             count-distinct): forms every (event,
 *                             instance) pair of [m0, m1) from the
 *                             retained events, groups them by (key,
 *                             instance) in counting buckets, sorts each
 *                             segment and writes the finalized block
 *                             (NaN where a segment is empty).
 *                             Bit-identical to the NumPy close: results
 *                             depend only on each segment's ascending
 *                             (NaN-last) value sequence, and the closed
 *                             forms repeat the NumPy index arithmetic
 *                             operation for operation.
 *
 * Plain C99 + libm only; built on demand with `cc -O3 -shared -fPIC`.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define API __attribute__((visibility("default")))

/* ---------------------------------------------------------------- */
/* segmented holistic compute                                        */
/* ---------------------------------------------------------------- */

static void insertion_sort(double *a, int64_t lo, int64_t hi)
{
    int64_t i, j;
    for (i = lo + 1; i <= hi; i++) {
        double v = a[i];
        j = i - 1;
        while (j >= lo && a[j] > v) {
            a[j + 1] = a[j];
            j--;
        }
        a[j + 1] = v;
    }
}

/* Quicksort over NaN-free doubles (Hoare partition, median-of-3 pivot,
 * recursion on the smaller side only). */
static void quicksort(double *a, int64_t lo, int64_t hi)
{
    while (hi - lo > 24) {
        int64_t mid = lo + (hi - lo) / 2;
        double p0 = a[lo], p1 = a[mid], p2 = a[hi];
        double pivot = p0 < p1 ? (p1 < p2 ? p1 : (p0 < p2 ? p2 : p0))
                               : (p0 < p2 ? p0 : (p1 < p2 ? p2 : p1));
        int64_t i = lo, j = hi;
        while (i <= j) {
            while (a[i] < pivot) i++;
            while (a[j] > pivot) j--;
            if (i <= j) {
                double t = a[i]; a[i] = a[j]; a[j] = t;
                i++; j--;
            }
        }
        if (j - lo < hi - i) {
            quicksort(a, lo, j);
            lo = i;
        } else {
            quicksort(a, i, hi);
            hi = j;
        }
    }
    insertion_sort(a, lo, hi);
}

/* Ascending sort with NaNs partitioned to the end (NumPy order). */
static void sort_doubles(double *a, int64_t n)
{
    int64_t i = 0, m = n;
    while (i < m) {
        if (isnan(a[i])) {
            double t = a[i];
            m--;
            a[i] = a[m];
            a[m] = t;
        } else {
            i++;
        }
    }
    if (m > 1)
        quicksort(a, 0, m - 1);
}

#define KIND_QUANTILE 0
#define KIND_COUNT_DISTINCT 1

/* The holistic closed form over one sorted, non-empty segment. */
static double closed_form(const double *seg, int64_t c, int32_t kind,
                          double q)
{
    int64_t i, distinct = 0, has_nan = 0;
    if (kind == KIND_QUANTILE) {
        double position, frac, low, high;
        int64_t lo, hi;
        if (isnan(seg[c - 1]))
            return NAN;
        position = (double)(c - 1) * q;
        lo = (int64_t)floor(position);
        hi = (int64_t)ceil(position);
        frac = position - (double)lo;
        low = seg[lo];
        high = seg[hi];
        return low + (high - low) * frac;
    }
    for (i = 0; i < c; i++) {
        if (isnan(seg[i])) { /* NaNs sorted to the end */
            has_nan = 1;
            break;
        }
        if (distinct == 0 || seg[i] != seg[i - 1])
            distinct++;
    }
    return (double)(distinct + has_nan);
}

/* Close instances [m0, m1) of a holistic window over the n retained
 * events: event (t, key, v) lies in instances floor(t/slide) - j for
 * j < k, and each one inside [m0, m1) forms the pair coded
 * key * (m1 - m0) + (instance - m0).  Pairs are grouped by code
 * (counting buckets), each segment sorted, and out[code] set to the
 * closed form, or NaN for an empty segment; out is the row-major
 * (num_keys, m1 - m0) block.  Returns the number of pairs formed, or
 * -1 when scratch memory cannot be allocated. */
API int64_t repro_close_holistic(const int64_t *ts, const int64_t *keys,
                                 const double *values, int64_t n,
                                 int64_t slide, int64_t k,
                                 int64_t m0, int64_t m1, int64_t num_keys,
                                 int32_t kind, double q, double *out)
{
    int64_t span = m1 - m0, segments = num_keys * span;
    int64_t i, s, m, total;
    int64_t *offsets = calloc((size_t)segments + 1, sizeof(int64_t));
    int64_t *top = malloc((size_t)(n > 0 ? n : 1) * sizeof(int64_t));
    double *grouped = NULL;
    if (offsets == NULL || top == NULL)
        goto fail;
    /* offsets[code + 1] counts the code's pairs ... */
    for (i = 0; i < n; i++) {
        int64_t t = ts[i], d = t / slide;
        top[i] = (d * slide > t) ? d - 1 : d; /* floor, as NumPy's // */
        for (m = top[i] - k + 1 > m0 ? top[i] - k + 1 : m0;
             m <= top[i] && m < m1; m++)
            offsets[keys[i] * span + (m - m0) + 1]++;
    }
    /* ... and, summed, where the code's segment starts. */
    for (s = 0; s < segments; s++)
        offsets[s + 1] += offsets[s];
    total = offsets[segments];
    grouped = malloc((size_t)(total > 0 ? total : 1) * sizeof(double));
    if (grouped == NULL)
        goto fail;
    /* Stable scatter; offsets[code] ends up at the segment end. */
    for (i = 0; i < n; i++)
        for (m = top[i] - k + 1 > m0 ? top[i] - k + 1 : m0;
             m <= top[i] && m < m1; m++)
            grouped[offsets[keys[i] * span + (m - m0)]++] = values[i];
    for (s = 0; s < segments; s++) {
        int64_t start = s ? offsets[s - 1] : 0, c = offsets[s] - start;
        if (c == 0) {
            out[s] = NAN;
            continue;
        }
        sort_doubles(grouped + start, c);
        out[s] = closed_form(grouped + start, c, kind, q);
    }
    free(grouped);
    free(top);
    free(offsets);
    return total;
fail:
    free(grouped);
    free(top);
    free(offsets);
    return -1;
}
