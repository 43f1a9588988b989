/* Compiled hot kernels for the repro engine (see repro/_kernels/__init__.py).
 *
 * One kernel, a drop-in for a NumPy-glue hot spot (raw-event binning
 * and the reorder buffer are not: aggregates.base.segment_reduce is a
 * single NumPy ufunc.at scatter and ReorderBuffer.push_batch one stable
 * sort, neither of which a C loop beats):
 *
 *   repro_seg_holistic      — segmented holistic compute (quantile /
 *                             count-distinct).  Replaces the global
 *                             lexsort with a counting-bucket pass plus a
 *                             per-segment sort.  Bit-identical: results
 *                             depend only on each segment's ascending
 *                             (NaN-last) value sequence, and the closed
 *                             forms repeat the NumPy index arithmetic
 *                             operation for operation.
 *
 * Plain C99 + libm only; built on demand with `cc -O3 -shared -fPIC`.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

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

/* Group values by code (counting buckets, stable), sort each segment,
 * and evaluate the holistic closed form.  Scratch arrays are provided
 * by the caller: counts[num_segments] (zeroing done here),
 * offsets[num_segments], grouped[n].  Non-empty segment ids and their
 * results are written compacted; returns how many were written. */
API int64_t repro_seg_holistic(const int64_t *codes, const double *values,
                               int64_t n, int64_t num_segments,
                               int32_t kind, double q,
                               int64_t *counts, int64_t *offsets,
                               double *grouped,
                               int64_t *seg_ids, double *results)
{
    int64_t i, s, total = 0, written = 0;
    memset(counts, 0, (size_t)num_segments * sizeof(int64_t));
    for (i = 0; i < n; i++)
        counts[codes[i]]++;
    for (s = 0; s < num_segments; s++) {
        offsets[s] = total;
        total += counts[s];
    }
    /* Stable scatter; offsets[s] ends up pointing at the segment end. */
    for (i = 0; i < n; i++)
        grouped[offsets[codes[i]]++] = values[i];
    for (s = 0; s < num_segments; s++) {
        int64_t c = counts[s];
        double *seg, res;
        if (c == 0)
            continue;
        seg = grouped + (offsets[s] - c);
        sort_doubles(seg, c);
        if (kind == KIND_QUANTILE) {
            if (isnan(seg[c - 1])) {
                res = NAN;
            } else {
                double position = (double)(c - 1) * q;
                int64_t lo = (int64_t)floor(position);
                int64_t hi = (int64_t)ceil(position);
                double frac = position - (double)lo;
                double low = seg[lo], high = seg[hi];
                res = low + (high - low) * frac;
            }
        } else {
            int64_t distinct = 0, has_nan = 0;
            for (i = 0; i < c; i++) {
                if (isnan(seg[i])) { /* NaNs sorted to the end */
                    has_nan = 1;
                    break;
                }
                if (distinct == 0 || seg[i] != seg[i - 1])
                    distinct++;
            }
            res = (double)(distinct + has_nan);
        }
        seg_ids[written] = s;
        results[written] = res;
        written++;
    }
    return written;
}
