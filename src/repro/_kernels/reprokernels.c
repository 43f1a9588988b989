/* Compiled hot kernels for the repro engine (see repro/_kernels/__init__.py).
 *
 * Two kernels, each a drop-in for a NumPy-glue hot spot (raw-event
 * binning is not one of them: aggregates.base.segment_reduce is a single
 * NumPy ufunc.at scatter, which needs no grouping pass at all):
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
 *   repro_reorder_push_batch — batch push into a (ts, seq)-ordered binary
 *                             heap with a trailing watermark.  Replaces a
 *                             per-event Python heapq loop; (ts, seq) is a
 *                             total order, so the release sequence is
 *                             identical to heapq's.
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

/* ---------------------------------------------------------------- */
/* reorder-buffer batch push                                         */
/* ---------------------------------------------------------------- */

static inline int heap_less(const int64_t *ts, const int64_t *seq,
                            int64_t a, int64_t b)
{
    return ts[a] < ts[b] || (ts[a] == ts[b] && seq[a] < seq[b]);
}

static inline void heap_swap(int64_t *ts, int64_t *seq, int64_t *key,
                             double *val, int64_t a, int64_t b)
{
    int64_t t;
    double v;
    t = ts[a]; ts[a] = ts[b]; ts[b] = t;
    t = seq[a]; seq[a] = seq[b]; seq[b] = t;
    t = key[a]; key[a] = key[b]; key[b] = t;
    v = val[a]; val[a] = val[b]; val[b] = v;
}

/* Push a batch of (ts, key, value) events through the reorder heap.
 *
 * The heap lives in four parallel arrays (caller guarantees capacity
 * >= *heap_size_io + n); state is [max_seen, next_seq].  Released
 * events are appended to out_* (capacity >= heap_size + n); indices of
 * late-dropped inputs and their lateness go to late_* (capacity >= n).
 * Returns the released count; *late_count_out receives the late count.
 */
API int64_t repro_reorder_push_batch(
    int64_t *hts, int64_t *hseq, int64_t *hkey, double *hval,
    int64_t *heap_size_io,
    const int64_t *ts, const int64_t *keys, const double *values,
    int64_t n, int64_t max_lateness, int64_t *state,
    int64_t *out_ts, int64_t *out_keys, double *out_values,
    int64_t *late_idx, int64_t *late_lateness, int64_t *late_count_out)
{
    int64_t hs = *heap_size_io;
    int64_t max_seen = state[0], seq = state[1];
    int64_t released = 0, late = 0;
    int64_t i;
    for (i = 0; i < n; i++) {
        int64_t t = ts[i];
        int64_t wm = max_seen - max_lateness;
        int64_t pos;
        if (t < wm) {
            late_idx[late] = i;
            late_lateness[late] = wm - t;
            late++;
            continue;
        }
        pos = hs++;
        hts[pos] = t;
        hseq[pos] = seq++;
        hkey[pos] = keys[i];
        hval[pos] = values[i];
        while (pos > 0) {
            int64_t parent = (pos - 1) / 2;
            if (!heap_less(hts, hseq, pos, parent))
                break;
            heap_swap(hts, hseq, hkey, hval, pos, parent);
            pos = parent;
        }
        if (t > max_seen)
            max_seen = t;
        wm = max_seen - max_lateness;
        while (hs > 0 && hts[0] < wm) {
            out_ts[released] = hts[0];
            out_keys[released] = hkey[0];
            out_values[released] = hval[0];
            released++;
            hs--;
            if (hs > 0) {
                int64_t p = 0;
                hts[0] = hts[hs];
                hseq[0] = hseq[hs];
                hkey[0] = hkey[hs];
                hval[0] = hval[hs];
                for (;;) {
                    int64_t l = 2 * p + 1, r = l + 1, m = p;
                    if (l < hs && heap_less(hts, hseq, l, m))
                        m = l;
                    if (r < hs && heap_less(hts, hseq, r, m))
                        m = r;
                    if (m == p)
                        break;
                    heap_swap(hts, hseq, hkey, hval, p, m);
                    p = m;
                }
            }
        }
    }
    state[0] = max_seen;
    state[1] = seq;
    *heap_size_io = hs;
    *late_count_out = late;
    return released;
}
