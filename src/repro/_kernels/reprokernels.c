/* Compiled hot kernels for the repro engine (see repro/_kernels/__init__.py).
 *
 * One CPython extension module, `reprokernels`, with four functions.
 * All read and write their arrays through the buffer protocol (the
 * Python C API only: no NumPy headers, so no NumPy ABI coupling).  The
 * two folds add, min or max doubles only in the orders DESIGN.md §5
 * fixes, so each is bit-identical to the NumPy body it replaces:
 *
 *   absorb_panes(ts, keys, values, pane, shift, spec, stores) -> bad
 *                           one raw run into a pane store: per event
 *                           the code key * capacity + ts // pane +
 *                           shift, then every component's lifted
 *                           value folded into its store in input order
 *                           (what ufunc.at does); -1, or the first
 *                           event whose code lies outside the store,
 *                           having written nothing.
 *
 *   fold_sets(op, comp, first, stride, width, out) -> bool
 *                           out[r, m] = the left fold over j < width of
 *                           comp[r, first + m * stride + j], in passes
 *                           (the NumPy pass loop's order); False, having
 *                           written nothing, for a layout it does not
 *                           take.
 *
 *   close_holistic(ts, keys, values, slide, k, m0, m1, num_keys,
 *                  kind, q, out) -> pairs
 *                           one holistic window close (quantile /
 *                           count-distinct): forms every (event,
 *                           instance) pair of [m0, m1) from the
 *                           retained events, groups them by (key,
 *                           instance) in counting buckets, sorts each
 *                           segment and writes the finalized block
 *                           (NaN where a segment is empty).
 *                           Bit-identical to the NumPy close: results
 *                           depend only on each segment's ascending
 *                           (NaN-last) value sequence, and the closed
 *                           forms repeat the NumPy index arithmetic
 *                           operation for operation.
 *
 *   parse_rows(rows, num_keys, ids, values) -> bool
 *                           a list of (ts, key, value) rows into the
 *                           event columns in one pass, or False,
 *                           having accepted nothing, for any batch the
 *                           NumPy path must judge (see parse_rows).
 *
 * Plain C99 + libm; built on demand with `cc -O3 -ffp-contract=off
 * -shared -fPIC -I<Python include>` (a contracted x * x + s is one FMA
 * rounding, not NumPy's two).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ---------------------------------------------------------------- */
/* segmented holistic compute                                       */
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

/* Segments up to this length take a sorting network. */
#define SMALL_SORT_MAX 8

/* Compare-exchange: a[i], a[j] = min, max.  Both selects compile to
 * one minsd / maxsd, so no branch depends on the data; on a tie
 * (-0.0 and 0.0) the two trade places, which no closed form can see
 * (see closed_form). */
#define CE(i, j)                                                         \
    do {                                                                 \
        double x_ = a[i], y_ = a[j];                                     \
        a[i] = x_ < y_ ? x_ : y_;                                        \
        a[j] = x_ < y_ ? y_ : x_;                                        \
    } while (0)

/* Ascending sort of n <= SMALL_SORT_MAX NaN-free doubles by the
 * smallest known sorting network for n.  A live close's segments hold
 * about five values, where an insertion sort mispredicts on most of its
 * compares; a network jumps once, on n, and never on a value. */
static void small_sort(double *a, int64_t n)
{
    switch (n) {
    case 2:
        CE(0, 1);
        break;
    case 3:
        CE(0, 2); CE(0, 1); CE(1, 2);
        break;
    case 4:
        CE(0, 2); CE(1, 3); CE(0, 1); CE(2, 3); CE(1, 2);
        break;
    case 5:
        CE(0, 3); CE(1, 4); CE(0, 2); CE(1, 3); CE(0, 1); CE(2, 4);
        CE(1, 2); CE(3, 4); CE(2, 3);
        break;
    case 6:
        CE(0, 5); CE(1, 3); CE(2, 4); CE(1, 2); CE(3, 4); CE(0, 3);
        CE(2, 5); CE(0, 1); CE(2, 3); CE(4, 5); CE(1, 2); CE(3, 4);
        break;
    case 7:
        CE(0, 6); CE(2, 3); CE(4, 5); CE(0, 2); CE(1, 4); CE(3, 6);
        CE(0, 1); CE(2, 5); CE(3, 4); CE(1, 2); CE(4, 6); CE(2, 3);
        CE(4, 5); CE(1, 2); CE(3, 4); CE(5, 6);
        break;
    case 8:
        CE(0, 2); CE(1, 3); CE(4, 6); CE(5, 7); CE(0, 4); CE(1, 5);
        CE(2, 6); CE(3, 7); CE(0, 1); CE(2, 3); CE(4, 5); CE(6, 7);
        CE(2, 4); CE(3, 5); CE(1, 4); CE(3, 6); CE(1, 2); CE(3, 4);
        CE(5, 6);
        break;
    default: /* 0 or 1 */
        break;
    }
}
#undef CE

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
    if (m <= SMALL_SORT_MAX)
        small_sort(a, m);
    else
        quicksort(a, 0, m - 1);
}

#define KIND_QUANTILE 0
#define KIND_COUNT_DISTINCT 1

/* The holistic closed form over one sorted, non-empty segment.  The
 * order of -0.0 and 0.0 inside it cannot show: change-counting sees
 * them equal, and low + (high - low) * frac is +0.0 whenever low and
 * high are both zeros, of either sign, and the other operand alone when
 * one of them is not. */
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
static int64_t repro_close_holistic(const int64_t *ts, const int64_t *keys,
                                    const double *values, int64_t n,
                                    int64_t slide, int64_t k,
                                    int64_t m0, int64_t m1,
                                    int64_t num_keys, int32_t kind, double q,
                                    double *out)
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

/* ---------------------------------------------------------------- */
/* mergeable folds                                                   */
/* ---------------------------------------------------------------- */

/* A component's fold op and lift, as repro/_kernels/__init__.py
 * encodes them. */
#define OP_ADD 0
#define OP_MIN 1
#define OP_MAX 2
#define LIFT_VALUE 0
#define LIFT_SQUARE 1
#define LIFT_ONE 2
#define MAX_COMPONENTS 8

/* A store bigger than the caches costs about one miss per event (each
 * key's row is its own stream), so the absorb asks for the cell of the
 * event this far ahead while it folds this one; on a store that fits,
 * the requests only cost (measured: 1.6x slower on a 100 KiB store). */
#define PREFETCH_AHEAD 32
#define PREFETCH_MIN_BYTES (INT64_C(1) << 22)
#if defined(__GNUC__) || defined(__clang__)
#define PREFETCH(address) __builtin_prefetch((address), 1)
#else
#define PREFETCH(address) ((void)(address))
#endif

/* Work (element folds) above which a kernel runs without the GIL; a
 * small call keeps it, so a thread that wants it back never waits out
 * another thread's switch interval for a microsecond of work. */
#define GIL_FREE_WORK (1 << 16)

/* np.minimum / np.maximum exactly: (a < b || a != a) ? a : b, and the
 * same with >.  A NaN on either side propagates, and of two equal
 * values (0.0 and -0.0) the second wins.  (Which of two NaNs comes out
 * is no value's bits: NumPy's own loops pick either, by layout, for add
 * as for these.)  Written as a compare-select the compiler makes one
 * min / max instruction of, then a NaN test that is almost never
 * taken: a branch on a < b mispredicts on every other event. */
static inline double fold_min(double a, double b)
{
    double low = a < b ? a : b;
    return a != a ? a : low;
}

static inline double fold_max(double a, double b)
{
    double high = a > b ? a : b;
    return a != a ? a : high;
}

#define ADD(a, b) ((a) + (b))

#if defined(__GNUC__) || defined(__clang__)
#define ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define ALWAYS_INLINE inline
#endif

static inline int64_t floor_div(int64_t t, int64_t p)
{
    int64_t d = t / p;
    return (d * p > t) ? d - 1 : d; /* floor, as NumPy's // */
}

/* One component's pass over a run: store[key * capacity + ts // pane +
 * shift] = op(cell, lift(value)) per event, in input order.  Each call
 * site passes constant op and lift, so every (op, lift) compiles to its
 * own loop with neither test in it. */
static ALWAYS_INLINE void absorb_pass(int op, int lift, const int64_t *ts,
                                      const int64_t *keys,
                                      const double *values, int64_t n,
                                      int64_t pane, int64_t shift,
                                      int64_t capacity, int64_t num_keys,
                                      double *store)
{
    int64_t i, lo = 1, hi = 0, column = 0;
    int64_t ahead_end = num_keys * capacity * (int64_t)sizeof(double)
                                > PREFETCH_MIN_BYTES
                            ? n - PREFETCH_AHEAD
                            : 0;
    double inv_pane = 1.0 / (double)pane;
    for (i = 0; i < n; i++) {
        int64_t t = ts[i];
        double v = values[i], x, *cell;
        if (i < ahead_end) { /* roughly the cell, in the store */
            int64_t ahead = ts[i + PREFETCH_AHEAD], near;
            near = (pane == 1 ? ahead : (int64_t)((double)ahead * inv_pane))
                   + shift;
            near = near < 0 ? 0 : near >= capacity ? capacity - 1 : near;
            PREFETCH(store + keys[i + PREFETCH_AHEAD] * capacity + near);
        }
        if (t < lo || t >= hi) { /* a sorted run divides once a pane */
            int64_t global = pane == 1 ? t : floor_div(t, pane);
            lo = global * pane;
            hi = lo + pane;
            column = global + shift;
        }
        x = lift == LIFT_VALUE ? v : lift == LIFT_SQUARE ? v * v : 1.0;
        cell = store + keys[i] * capacity + column;
        *cell = op == OP_ADD ? ADD(*cell, x)
                : op == OP_MIN ? fold_min(*cell, x) : fold_max(*cell, x);
    }
}

/* Fold n events into num_comp pane stores of num_keys rows and
 * capacity columns each: event i lands in row keys[i], column
 * ts[i] // pane + shift, and component c's cell there becomes
 * op_c(cell, lift_c(values[i])) -- the strict left fold of each pane's
 * events in input order (DESIGN.md §5), which is what ufunc.at over the
 * flat codes computes.  Returns -1, or the first event whose cell lies
 * outside the stores, before anything is written. */
static int64_t repro_absorb_panes(const int64_t *ts, const int64_t *keys,
                                  const double *values, int64_t n,
                                  int64_t pane, int64_t shift,
                                  int64_t num_keys, int64_t capacity,
                                  int num_comp, const unsigned char *spec,
                                  double *const *stores)
{
    int64_t i, t_min, t_max, k_min, k_max;
    int c;
    if (n == 0)
        return -1;
    t_min = t_max = ts[0];
    k_min = k_max = keys[0];
    for (i = 1; i < n; i++) {
        t_min = ts[i] < t_min ? ts[i] : t_min;
        t_max = ts[i] > t_max ? ts[i] : t_max;
        k_min = keys[i] < k_min ? keys[i] : k_min;
        k_max = keys[i] > k_max ? keys[i] : k_max;
    }
    /* Columns rise with ts, so the extremes bound every event's. */
    if (k_min < 0 || k_max >= num_keys
        || floor_div(t_min, pane) + shift < 0
        || floor_div(t_max, pane) + shift >= capacity) {
        for (i = 0; i < n; i++) {
            int64_t column = floor_div(ts[i], pane) + shift;
            if (keys[i] < 0 || keys[i] >= num_keys || column < 0
                || column >= capacity)
                return i;
        }
    }
#define PASS(op, lift)                                                   \
    absorb_pass(op, lift, ts, keys, values, n, pane, shift, capacity,    \
                num_keys, stores[c]);                                    \
    break;
    for (c = 0; c < num_comp; c++) {
        switch (spec[2 * c] * 3 + spec[2 * c + 1]) {
        case OP_ADD * 3 + LIFT_VALUE: PASS(OP_ADD, LIFT_VALUE)
        case OP_ADD * 3 + LIFT_SQUARE: PASS(OP_ADD, LIFT_SQUARE)
        case OP_ADD * 3 + LIFT_ONE: PASS(OP_ADD, LIFT_ONE)
        case OP_MIN * 3 + LIFT_VALUE: PASS(OP_MIN, LIFT_VALUE)
        case OP_MIN * 3 + LIFT_SQUARE: PASS(OP_MIN, LIFT_SQUARE)
        case OP_MIN * 3 + LIFT_ONE: PASS(OP_MIN, LIFT_ONE)
        case OP_MAX * 3 + LIFT_VALUE: PASS(OP_MAX, LIFT_VALUE)
        case OP_MAX * 3 + LIFT_SQUARE: PASS(OP_MAX, LIFT_SQUARE)
        default: PASS(OP_MAX, LIFT_ONE)
        }
    }
#undef PASS
    return -1;
}

/* The passes of one op over every row: the first folds partials 0 and
 * 1 (NumPy's allocating pass), each later one partial j into out. */
#define FOLD_ROWS(OP)                                                    \
    for (r = 0; r < rows; r++) {                                         \
        const double *row = (const double *)(comp + r * row_bytes) + first; \
        double *o = out + r * count;                                     \
        for (m = 0; m < count; m++)                                      \
            o[m] = OP(row[m * stride], row[m * stride + 1]);             \
        for (j = 2; j < width; j++)                                      \
            for (m = 0; m < count; m++)                                  \
                o[m] = OP(o[m], row[m * stride + j]);                    \
    }

/* out[r, m] = the left fold of comp[r, first + m*stride + j] over
 * j < width, one pass per j: the order of the NumPy pass loop in
 * fold_covering_sets.  comp's rows lie row_bytes apart with unit inner
 * stride; out is the row-major (rows, count) block. */
static void repro_fold_sets(int op, const char *comp, Py_ssize_t row_bytes,
                            int64_t rows, int64_t first, int64_t stride,
                            int64_t width, int64_t count, double *out)
{
    int64_t r, j, m;
    if (width == 1) {
        for (r = 0; r < rows; r++) {
            const double *row = (const double *)(comp + r * row_bytes) + first;
            double *o = out + r * count;
            if (stride == 1)
                memcpy(o, row, (size_t)count * sizeof(double));
            else
                for (m = 0; m < count; m++)
                    o[m] = row[m * stride];
        }
    } else if (op == OP_ADD) {
        FOLD_ROWS(ADD)
    } else if (op == OP_MIN) {
        FOLD_ROWS(fold_min)
    } else {
        FOLD_ROWS(fold_max)
    }
}

/* ---------------------------------------------------------------- */
/* arrays through the buffer protocol                                */
/* ---------------------------------------------------------------- */

/* Borrow obj's buffer as n C-contiguous native 8-byte items of kind
 * 'i' (int64) or 'f' (float64), writable if asked; n < 0 takes any
 * length.  Returns -1 with an exception set otherwise. */
static int get_column(PyObject *obj, Py_buffer *view, char kind,
                      Py_ssize_t n, int writable)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT
                | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    if (view->itemsize != 8 || view->format[0] == '\0'
        || view->format[1] != '\0'
        || strchr(kind == 'f' ? "d" : "lq", view->format[0]) == NULL
        || (n >= 0 && view->len != n * 8)) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_ValueError, "expected %zd contiguous %s items",
                     n, kind == 'f' ? "float64" : "int64");
        return -1;
    }
    return 0;
}

/* Read args[first .. first + count) as Python ints into out[]. */
static int get_ints(PyObject *const *args, int first, int count,
                    long long *out)
{
    int i;
    for (i = 0; i < count; i++) {
        out[i] = PyLong_AsLongLong(args[first + i]);
        if (out[i] == -1 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* close_holistic(ts, keys, values, slide, k, m0, m1, num_keys, kind, q,
 * out): repro_close_holistic over the buffers, without the GIL. */
static PyObject *close_holistic(PyObject *self, PyObject *const *args,
                                Py_ssize_t nargs)
{
    Py_buffer ts, keys, values, out;
    long long ints[6]; /* slide, k, m0, m1, num_keys, kind */
    double q;
    Py_ssize_t n;
    int64_t pairs;
    PyObject *result = NULL;
    (void)self;
    if (nargs != 11) {
        PyErr_SetString(PyExc_TypeError, "close_holistic takes 11 arguments");
        return NULL;
    }
    if (get_ints(args, 3, 6, ints) < 0)
        return NULL;
    q = PyFloat_AsDouble(args[9]);
    if (q == -1.0 && PyErr_Occurred())
        return NULL;
    if (ints[0] < 1 || ints[3] < ints[2] || ints[4] < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "close_holistic: need slide >= 1, m0 <= m1, "
                        "num_keys >= 0");
        return NULL;
    }
    if (get_column(args[0], &ts, 'i', -1, 0) < 0)
        return NULL;
    n = ts.len / 8;
    if (get_column(args[1], &keys, 'i', n, 0) < 0)
        goto release_ts;
    if (get_column(args[2], &values, 'f', n, 0) < 0)
        goto release_keys;
    if (get_column(args[10], &out, 'f', ints[4] * (ints[3] - ints[2]), 1) < 0)
        goto release_values;
    Py_BEGIN_ALLOW_THREADS
    pairs = repro_close_holistic(ts.buf, keys.buf, values.buf, n, ints[0],
                                 ints[1], ints[2], ints[3], ints[4],
                                 (int32_t)ints[5], q, out.buf);
    Py_END_ALLOW_THREADS
    result = pairs < 0 ? PyErr_NoMemory() : PyLong_FromLongLong(pairs);
    PyBuffer_Release(&out);
release_values:
    PyBuffer_Release(&values);
release_keys:
    PyBuffer_Release(&keys);
release_ts:
    PyBuffer_Release(&ts);
    return result;
}

/* absorb_panes(ts, keys, values, pane, shift, spec, stores): one raw
 * run into a raw operator's pane stores.  spec holds an (op, lift)
 * byte pair per component; stores is a list of C-contiguous, writable
 * (num_keys, capacity) float64 arrays, one per component.  Returns -1,
 * or the index of the first event whose cell lies outside the stores
 * (nothing written). */
static PyObject *absorb_panes(PyObject *self, PyObject *const *args,
                              Py_ssize_t nargs)
{
    Py_buffer ts, keys, values, views[MAX_COMPONENTS];
    double *stores[MAX_COMPONENTS];
    long long ints[2]; /* pane, shift */
    const unsigned char *spec;
    Py_ssize_t n, num_comp, held = 0, c;
    int64_t bad = -1;
    PyObject *result = NULL;
    (void)self;
    if (nargs != 7) {
        PyErr_SetString(PyExc_TypeError, "absorb_panes takes 7 arguments");
        return NULL;
    }
    if (get_ints(args, 3, 2, ints) < 0)
        return NULL;
    if (!PyBytes_Check(args[5]) || !PyList_Check(args[6])) {
        PyErr_SetString(PyExc_TypeError,
                        "absorb_panes: spec must be bytes, stores a list");
        return NULL;
    }
    spec = (const unsigned char *)PyBytes_AS_STRING(args[5]);
    num_comp = PyList_GET_SIZE(args[6]);
    if (ints[0] < 1 || num_comp < 1 || num_comp > MAX_COMPONENTS
        || PyBytes_GET_SIZE(args[5]) != 2 * num_comp) {
        PyErr_SetString(PyExc_ValueError,
                        "absorb_panes: need pane >= 1 and one (op, lift) "
                        "pair per store");
        return NULL;
    }
    for (c = 0; c < num_comp; c++)
        if (spec[2 * c] > OP_MAX || spec[2 * c + 1] > LIFT_ONE) {
            PyErr_SetString(PyExc_ValueError, "absorb_panes: bad spec");
            return NULL;
        }
    if (get_column(args[0], &ts, 'i', -1, 0) < 0)
        return NULL;
    n = ts.len / 8;
    if (get_column(args[1], &keys, 'i', n, 0) < 0)
        goto release_ts;
    if (get_column(args[2], &values, 'f', n, 0) < 0)
        goto release_keys;
    for (held = 0; held < num_comp; held++) {
        Py_buffer *view = &views[held];
        if (PyObject_GetBuffer(PyList_GET_ITEM(args[6], held), view,
                               PyBUF_C_CONTIGUOUS | PyBUF_FORMAT
                                   | PyBUF_WRITABLE) < 0)
            goto release_stores;
        if (view->ndim != 2 || view->itemsize != 8
            || strcmp(view->format, "d") != 0
            || view->shape[0] != views[0].shape[0]
            || view->shape[1] != views[0].shape[1]) {
            PyBuffer_Release(view);
            PyErr_SetString(PyExc_ValueError,
                            "absorb_panes: stores must be equal-shaped "
                            "2-D float64 arrays");
            goto release_stores;
        }
        stores[held] = view->buf;
    }
    if (n * num_comp < GIL_FREE_WORK) {
        bad = repro_absorb_panes(ts.buf, keys.buf, values.buf, n, ints[0],
                                 ints[1], views[0].shape[0],
                                 views[0].shape[1], (int)num_comp, spec,
                                 stores);
    } else {
        Py_BEGIN_ALLOW_THREADS
        bad = repro_absorb_panes(ts.buf, keys.buf, values.buf, n, ints[0],
                                 ints[1], views[0].shape[0],
                                 views[0].shape[1], (int)num_comp, spec,
                                 stores);
        Py_END_ALLOW_THREADS
    }
    result = PyLong_FromLongLong(bad);
release_stores:
    for (c = 0; c < held; c++)
        PyBuffer_Release(&views[c]);
    PyBuffer_Release(&values);
release_keys:
    PyBuffer_Release(&keys);
release_ts:
    PyBuffer_Release(&ts);
    return result;
}

/* fold_sets(op, comp, first, stride, width, count, out) -> bool: the
 * count covering sets of any 2-D float64 view with unit inner stride,
 * read where they lie, into the C-contiguous (rows, count) block out;
 * False, with nothing written, for a view of another layout. */
static PyObject *fold_sets(PyObject *self, PyObject *const *args,
                           Py_ssize_t nargs)
{
    Py_buffer comp, out;
    long long ints[5]; /* op, first, stride, width, count */
    PyObject *result = Py_False;
    (void)self;
    if (nargs != 7) {
        PyErr_SetString(PyExc_TypeError, "fold_sets takes 7 arguments");
        return NULL;
    }
    if (get_ints(args, 0, 1, ints) < 0 || get_ints(args, 2, 4, ints + 1) < 0)
        return NULL;
    if (PyObject_GetBuffer(args[1], &comp, PyBUF_STRIDES | PyBUF_FORMAT) < 0)
        return NULL;
    if (comp.ndim != 2 || comp.itemsize != 8 || comp.suboffsets != NULL
        || strcmp(comp.format, "d") != 0
        || (comp.shape[1] > 1 && comp.strides[1] != 8))
        goto release_comp;
    if (ints[0] < OP_ADD || ints[0] > OP_MAX || ints[1] < 0 || ints[2] < 1
        || ints[3] < 1 || ints[4] < 1
        || ints[1] + (ints[4] - 1) * ints[2] + ints[3] > comp.shape[1]) {
        PyErr_SetString(PyExc_ValueError,
                        "fold_sets: covering sets outside the partials");
        result = NULL;
        goto release_comp;
    }
    if (get_column(args[6], &out, 'f', comp.shape[0] * ints[4], 1) < 0) {
        result = NULL;
        goto release_comp;
    }
    if (comp.shape[0] * ints[4] * ints[3] < GIL_FREE_WORK) {
        repro_fold_sets((int)ints[0], comp.buf, comp.strides[0],
                        comp.shape[0], ints[1], ints[2], ints[3], ints[4],
                        out.buf);
    } else {
        Py_BEGIN_ALLOW_THREADS
        repro_fold_sets((int)ints[0], comp.buf, comp.strides[0],
                        comp.shape[0], ints[1], ints[2], ints[3], ints[4],
                        out.buf);
        Py_END_ALLOW_THREADS
    }
    result = Py_True;
    PyBuffer_Release(&out);
release_comp:
    PyBuffer_Release(&comp);
    Py_XINCREF(result);
    return result;
}

/* ---------------------------------------------------------------- */
/* rows to event columns                                             */
/* ---------------------------------------------------------------- */

/* Ids the NumPy path holds exact: it carries them through float64. */
#define EXACT_INT_LIMIT (INT64_C(1) << 53)

/* An exact int in [0, limit) as *out, or 0 (no error set) otherwise. */
static int exact_id(PyObject *obj, int64_t limit, int64_t *out)
{
    int overflow;
    long long v;
    if (!PyLong_CheckExact(obj))
        return 0;
    v = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (overflow || v < 0 || v >= limit)
        return 0;
    *out = (int64_t)v;
    return 1;
}

/* Fill ts = ids[0:n], keys = ids[n:2n] and values[0:n] from the n
 * rows of a list, in one pass.  Accepts only what the NumPy path
 * (events.py::event_columns) accepts unchanged: exact tuple / list rows
 * of length 3, exact-int timestamps in [0, 2**53), exact-int keys in
 * [0, min(num_keys, 2**53)), and an exact float or exact int value
 * (an int as float(int) rounds it, as NumPy's conversion does).
 * Anything else -- a NumPy scalar, a bool, a float id, None, an id out
 * of range, an int no double holds -- makes the whole batch False, so
 * the caller runs the NumPy path, which names the offending row.  Runs
 * no Python code: the list cannot change under the loop. */
static PyObject *parse_rows(PyObject *self, PyObject *const *args,
                            Py_ssize_t nargs)
{
    PyObject *rows, *accepted = Py_False;
    Py_buffer ids_view, values_view;
    Py_ssize_t i, n;
    long long num_keys;
    int overflow;
    int64_t *ts, *keys, key_limit;
    double *values;
    (void)self;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "parse_rows takes 4 arguments");
        return NULL;
    }
    rows = args[0];
    if (!PyList_Check(rows)) {
        PyErr_SetString(PyExc_TypeError, "parse_rows: rows must be a list");
        return NULL;
    }
    n = PyList_GET_SIZE(rows);
    num_keys = PyLong_AsLongLongAndOverflow(args[1], &overflow);
    if (num_keys == -1 && PyErr_Occurred())
        return NULL;
    key_limit = (overflow > 0 || num_keys > EXACT_INT_LIMIT)
                    ? EXACT_INT_LIMIT
                    : (int64_t)num_keys;
    if (get_column(args[2], &ids_view, 'i', 2 * n, 1) < 0)
        return NULL;
    if (get_column(args[3], &values_view, 'f', n, 1) < 0) {
        PyBuffer_Release(&ids_view);
        return NULL;
    }
    ts = ids_view.buf;
    keys = ts + n;
    values = values_view.buf;
    for (i = 0; i < n; i++) {
        PyObject *row = PyList_GET_ITEM(rows, i), *value;
        PyObject **fields;
        if (PyTuple_CheckExact(row) ? PyTuple_GET_SIZE(row) != 3
            : !PyList_CheckExact(row) || PyList_GET_SIZE(row) != 3)
            goto done;
        fields = PySequence_Fast_ITEMS(row);
        if (!exact_id(fields[0], EXACT_INT_LIMIT, &ts[i])
            || !exact_id(fields[1], key_limit, &keys[i]))
            goto done;
        value = fields[2];
        if (PyFloat_CheckExact(value)) {
            values[i] = PyFloat_AS_DOUBLE(value);
        } else if (PyLong_CheckExact(value)) {
            values[i] = PyLong_AsDouble(value);
            if (values[i] == -1.0 && PyErr_Occurred()) {
                PyErr_Clear(); /* too large for a double */
                goto done;
            }
        } else {
            goto done;
        }
    }
    accepted = Py_True;
done:
    PyBuffer_Release(&values_view);
    PyBuffer_Release(&ids_view);
    Py_INCREF(accepted);
    return accepted;
}

/* ---------------------------------------------------------------- */
/* the module                                                        */
/* ---------------------------------------------------------------- */

static PyMethodDef methods[] = {
    {"absorb_panes", (PyCFunction)(void (*)(void))absorb_panes,
     METH_FASTCALL, "One raw run into the pane stores; -1 or a bad event."},
    {"fold_sets", (PyCFunction)(void (*)(void))fold_sets, METH_FASTCALL,
     "Covering-set folds in passes; False leaves the view to NumPy."},
    {"close_holistic", (PyCFunction)(void (*)(void))close_holistic,
     METH_FASTCALL, "One holistic window close; returns the pair count."},
    {"parse_rows", (PyCFunction)(void (*)(void))parse_rows, METH_FASTCALL,
     "Rows to event columns in one pass; False leaves the batch to NumPy."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "reprokernels",
    "Compiled hot kernels (see repro/_kernels/__init__.py).", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit_reprokernels(void)
{
    return PyModule_Create(&module);
}
