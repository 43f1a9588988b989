/* Compiled hot kernels for the repro engine (see repro/_kernels/__init__.py).
 *
 * One CPython extension module, `reprokernels`, with two functions.
 * Both read and write their arrays through the buffer protocol (the
 * Python C API only: no NumPy headers, so no NumPy ABI coupling), and
 * neither adds two floating-point values:
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
 * Plain C99 + libm; built on demand with `cc -O3 -shared -fPIC
 * -I<Python include>`.
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
    int i;
    PyObject *result = NULL;
    (void)self;
    if (nargs != 11) {
        PyErr_SetString(PyExc_TypeError, "close_holistic takes 11 arguments");
        return NULL;
    }
    for (i = 0; i < 6; i++) {
        ints[i] = PyLong_AsLongLong(args[3 + i]);
        if (ints[i] == -1 && PyErr_Occurred())
            return NULL;
    }
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
