/* Native compute kernels: the three kernels of chshbounds._kernels.reference,
 * with the same signatures and the same floating-point operations in the same
 * order, so that both backends give bit-identical values on one machine.  The
 * Jacobi eigensolver does no complex arithmetic on either side: an entry is a
 * (re, im) pair of doubles, and each rotation is written out in float products
 * and sums, so CPython's complex semantics (3.14's C99 Annex G mixed-mode rules
 * included) cannot move its bits.  setup.py disables FMA contraction and
 * sin/cos fusion, which would change last bits.  Change the reference too.
 * Matrix and Kronecker products and the singlet contraction are plain Python in
 * chshbounds.quantum: no CLI command runs enough of them for a copy here to pay
 * for itself. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>

/* Jacobi stopping rule; must equal the constants of the reference backend. */
#define JACOBI_RTOL 2.5e-15
#define JACOBI_MAX_SWEEPS 100

#define GOLDEN_GAMMA 0x9E3779B97F4A7C15ULL
#define MIX_MULT_1 0xBF58476D1CE4E5B9ULL
#define MIX_MULT_2 0x94D049BB133111EBULL
#define INV_2_53 (1.0 / 9007199254740992.0)

static inline uint64_t raw64(uint64_t seed, uint64_t index)
{
    uint64_t z = seed + (index + 1) * GOLDEN_GAMMA;
    z = (z ^ (z >> 30)) * MIX_MULT_1;
    z = (z ^ (z >> 27)) * MIX_MULT_2;
    return z ^ (z >> 31);
}

static inline double u01(uint64_t seed, uint64_t index)
{
    return (double)(raw64(seed, index) >> 11) * INV_2_53;
}

static int check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t expected)
{
    if (nargs == expected)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd arguments (%zd given)",
                 name, expected, nargs);
    return -1;
}

/* The first `count` items of `obj`, read one at a time as the reference reads
 * obj[i], as doubles or, when `as_complex`, as complex numbers (two doubles
 * each), into a buffer that grows with the items read: a length that no real
 * sequence has fails where the reference fails, at its first item that cannot
 * be read, and not on one huge allocation.  Returns NULL with an exception set
 * on failure. */
static double *load_items(PyObject *obj, Py_ssize_t count, int as_complex)
{
    Py_ssize_t width = as_complex ? 2 : 1;
    Py_ssize_t capacity = count < 16 ? count : 16;
    double *x = PyMem_New(double, width * capacity);
    if (x == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    for (Py_ssize_t i = 0; i < count; i++) {
        if (i == capacity) {
            capacity = capacity < count - capacity ? 2 * capacity : count;
            double *grown = x;
            if (PyMem_Resize(grown, double, width * capacity) == NULL) {
                PyMem_Free(x);
                PyErr_NoMemory();
                return NULL;
            }
            x = grown;
        }
        PyObject *item = PySequence_GetItem(obj, i);
        x[width * i] = -1.0;
        if (item != NULL) {
            if (as_complex) {
                Py_complex z = PyComplex_AsCComplex(item);
                x[2 * i] = z.real;
                x[2 * i + 1] = z.imag;
            } else {
                x[i] = PyFloat_AsDouble(item);
            }
            Py_DECREF(item);
        }
        if (x[width * i] == -1.0 && PyErr_Occurred()) {
            PyMem_Free(x);
            return NULL;
        }
    }
    return x;
}

/* An int reduced modulo 2**64, as the reference's `& _MASK64` does. */
static int load_u64(PyObject *obj, uint64_t *out)
{
    *out = PyLong_AsUnsignedLongLongMask(obj);
    return (*out == (uint64_t)-1 && PyErr_Occurred()) ? -1 : 0;
}

static int load_i64(PyObject *obj, long long *out)
{
    *out = PyLong_AsLongLong(obj);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* A list of `count` floats that lie `stride` doubles apart in `values`. */
static PyObject *float_list(const double *values, Py_ssize_t count, Py_ssize_t stride)
{
    PyObject *out = PyList_New(count);
    for (Py_ssize_t i = 0; out != NULL && i < count; i++) {
        PyObject *x = PyFloat_FromDouble(values[i * stride]);
        if (x == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, x);
    }
    return out;
}

static PyObject *rng_u01(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t seed, index;
    if (check_nargs("rng_u01", nargs, 2) < 0 || load_u64(args[0], &seed) < 0
        || load_u64(args[1], &index) < 0)
        return NULL;
    return PyFloat_FromDouble(u01(seed, index));
}

/* Scales the `count` doubles of a by the power of two 2**-e that brings the
 * largest into [0.5, 1), and returns e.  A NaN fails the `>` test and is skipped;
 * a zero or non-finite matrix is left unscaled, and jacobi rejects the latter. */
static int prescale(double *a, Py_ssize_t count)
{
    double biggest = 0.0;
    int e = 0;
    for (Py_ssize_t i = 0; i < count; i++)
        if (fabs(a[i]) > biggest)
            biggest = fabs(a[i]);
    if (isfinite(biggest))
        frexp(biggest, &e);
    for (Py_ssize_t i = 0; e != 0 && i < count; i++)
        a[i] = ldexp(a[i], -e);
    return e;
}

/* The pair (x, y) of entries becomes (c*x + s*r, c*r - s*x), where r is y times
 * the phase (pr, pi), in float parts.  With -pi for pi this is the conjugate
 * phase, bit for bit: (-pi)*v is -(pi*v), and u - (-w) is u + w. */
static inline void rotate(double *x, double *y, double c, double s, double pr, double pi)
{
    double rr = pr * y[0] - pi * y[1], ri = pr * y[1] + pi * y[0];
    double xr = x[0], xi = x[1];
    x[0] = c * xr + s * rr;
    x[1] = c * xi + s * ri;
    y[0] = c * rr - s * xr;
    y[1] = c * ri - s * xi;
}

/* Cyclic Jacobi sweeps over the prescaled a (n x n, row-major, entry i at
 * a[2i] + a[2i+1]j); returns 0 on convergence.  Returns -1 with ValueError when
 * an entry is NaN or infinite, which after the prescale is exactly when the
 * Frobenius sum is, and with RuntimeError after JACOBI_MAX_SWEEPS sweeps. */
static int jacobi(double *a, Py_ssize_t n)
{
    double norm2 = 0.0;
    for (Py_ssize_t i = 0; i < 2 * n * n; i += 2)
        norm2 += a[i] * a[i] + a[i + 1] * a[i + 1];
    if (!isfinite(norm2)) {
        PyErr_SetString(PyExc_ValueError, "matrix has a NaN or infinite entry");
        return -1;
    }
    double tol = JACOBI_RTOL * sqrt(norm2);
    for (int sweep = 0;; sweep++) {
        double off = 0.0;
        for (Py_ssize_t i = 0; i < n * n; i++) /* the diagonal is i = k * (n + 1) */
            if (i % (n + 1) != 0)
                off += a[2 * i] * a[2 * i] + a[2 * i + 1] * a[2 * i + 1];
        if (off == 0.0 || sqrt(off) < tol)
            return 0;
        if (sweep == JACOBI_MAX_SWEEPS) {
            PyErr_Format(PyExc_RuntimeError,
                         "jacobi eigensolver failed to converge within %d sweeps",
                         JACOBI_MAX_SWEEPS);
            return -1;
        }
        for (Py_ssize_t p = 0; p < n - 1; p++)
            for (Py_ssize_t q = p + 1; q < n; q++) {
                double x = a[2 * (p * n + q)], y = a[2 * (p * n + q) + 1];
                double g = sqrt(x * x + y * y);
                if (g == 0.0)
                    continue;
                double theta = 0.5 * atan2(2.0 * g, a[2 * (p * n + p)] - a[2 * (q * n + q)]);
                double c = cos(theta), s = sin(theta), pr = x / g, pi = y / g;
                for (Py_ssize_t k = 0; k < n; k++)
                    rotate(&a[2 * (k * n + p)], &a[2 * (k * n + q)], c, s, pr, -pi);
                for (Py_ssize_t k = 0; k < n; k++)
                    rotate(&a[2 * (p * n + k)], &a[2 * (q * n + k)], c, s, pr, pi);
            }
    }
}

static PyObject *eigvals_hermitian(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("eigvals_hermitian", nargs, 1) < 0)
        return NULL;
    Py_ssize_t size = PyObject_Length(args[0]);
    if (size < 0)
        return NULL;
    /* n = floor(sqrt(size)): the double estimate can be one off for large sizes,
     * and the corrections compare by division, so that no product overflows. */
    Py_ssize_t n = (Py_ssize_t)sqrt((double)size);
    while (n > 0 && n > size / n)
        n--;
    while (n + 1 <= size / (n + 1))
        n++;
    if (n * n != size)
        return PyErr_Format(PyExc_ValueError,
                            "matrix has %zd entries, which is not a square number", size);
    double *a = load_items(args[0], size, 1);
    if (a == NULL)
        return NULL;
    int e = prescale(a, 2 * size);
    if (jacobi(a, n) < 0) {
        PyMem_Free(a);
        return NULL;
    }
    PyObject *result = NULL;
    /* The diagonal scaled back; the reference's math.ldexp raises on overflow. */
    for (Py_ssize_t i = 0; i < n && !PyErr_Occurred(); i++) {
        double x = a[2 * i * (n + 1)];
        a[2 * i * (n + 1)] = ldexp(x, e);
        if (isinf(a[2 * i * (n + 1)]) && isfinite(x))
            PyErr_SetString(PyExc_OverflowError, "math range error");
    }
    if (!PyErr_Occurred())
        result = float_list(a, n, 2 * (n + 1)); /* real parts of the diagonal */
    /* Python's own sort, so that ties (0.0 and -0.0) keep the reference order. */
    if (result != NULL && PyList_Sort(result) < 0)
        Py_CLEAR(result);
    PyMem_Free(a);
    return result;
}

/* Refuse cum_weights that decrease (or hold a NaN) before any draw, with the
 * reference's error, so both backends select states by the same rule. */
static int check_nondecreasing(const double *cw, Py_ssize_t n)
{
    for (Py_ssize_t k = 1; k < n; k++) {
        if (!(cw[k - 1] <= cw[k])) {
            PyErr_Format(PyExc_ValueError, "cum_weights is not nondecreasing at index %zd", k);
            return -1;
        }
    }
    return 0;
}

static PyObject *lhv_mc_sums(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t seed;
    long long start, stop;
    if (check_nargs("lhv_mc_sums", nargs, 5) < 0 || load_u64(args[2], &seed) < 0
        || load_i64(args[3], &start) < 0 || load_i64(args[4], &stop) < 0)
        return NULL;
    Py_ssize_t nstates = PyObject_Length(args[0]);
    if (nstates == 0)
        PyErr_SetString(PyExc_IndexError, "cum_weights is empty");
    if (nstates <= 0)
        return NULL;
    /* Once the weights are read, nstates items are in memory, so 4 * nstates
     * cannot overflow. */
    double *cw = load_items(args[0], nstates, 0);
    double *pr = cw == NULL ? NULL : load_items(args[1], 4 * nstates, 0);
    PyObject *result = NULL;
    if (pr != NULL && check_nondecreasing(cw, nstates) == 0) {
        double sums[8] = {0.0};
        for (long long i = start; i < stop; i++) {
            /* The uint64 wrap of a negative index matches the reference's mask. */
            double u = u01(seed, (uint64_t)i);
            /* Inverse CDF; the last state also takes draws beyond its weight.  On
             * nondecreasing cum_weights, the only ones accepted, this is the
             * reference's bisect_right. */
            Py_ssize_t k = 0;
            while (k < nstates - 1 && !(u < cw[k]))
                k++;
            for (int c = 0; c < 4; c++) {
                sums[c] += pr[4 * k + c];
                sums[4 + c] += pr[4 * k + c] * pr[4 * k + c];
            }
        }
        result = Py_BuildValue("(dddddddd)", sums[0], sums[1], sums[2], sums[3], sums[4],
                               sums[5], sums[6], sums[7]);
    }
    PyMem_Free(cw);
    PyMem_Free(pr);
    return result;
}

#define KERNEL(name, doc) {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, doc}

static PyMethodDef kernel_methods[] = {
    KERNEL(rng_u01, "Return draw ``index`` of the stream ``seed``, uniform on [0, 1)."),
    KERNEL(eigvals_hermitian, "Eigenvalues of a flat n x n complex Hermitian matrix, ascending."),
    KERNEL(lhv_mc_sums,
           "Accumulate Monte Carlo sums for a finite hidden-state mixture.\n\n"
           "Draw i in [start, stop) selects the first state j with\n"
           "rng_u01(seed, i) < cum_weights[j], or the last state when there is none.\n"
           "cum_weights must be nondecreasing (ties allowed): otherwise ValueError,\n"
           "before any draw, as in the reference, whose guide table and bisection\n"
           "select the same state as the linear search here."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT, "chshbounds._kernels._native",
    "Native compute kernels, bit-identical to chshbounds._kernels.reference.", -1, kernel_methods,
};

PyMODINIT_FUNC PyInit__native(void)
{
    PyObject *module = PyModule_Create(&native_module);
    if (module != NULL && PyModule_AddStringConstant(module, "BACKEND_NAME", "native") < 0)
        Py_CLEAR(module);
    return module;
}
