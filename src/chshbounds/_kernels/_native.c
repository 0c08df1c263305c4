/* Native compute kernels: the functions of chshbounds._kernels.reference, with
 * the same signatures and the same floating-point operations in the same
 * order, so that each returns the same bits.  Complex arithmetic is
 * CPython 3.11's, spelled out: a product is (ar*br - ai*bi, ar*bi + ai*br), and
 * a float operand of a complex product is first promoted to (x, 0.0).  So both
 * backends give bit-identical values on one machine (complex entries may
 * differ only in the sign of a zero).  setup.py disables FMA contraction and
 * sin/cos fusion, which would change last bits.  Change the reference too. */

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

typedef struct { double re, im; } cplx;

static inline cplx c_add(cplx a, cplx b) { return (cplx){a.re + b.re, a.im + b.im}; }

static inline cplx c_mul(cplx a, cplx b)
{
    return (cplx){a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}

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

/* Converts the first `count` items of `obj` to doubles in `reals` or, when
 * `reals` is NULL, to complex numbers in `complexes`.  A conversion may run
 * Python code that shrinks a list, so the size is checked for every item. */
static int load_items(PyObject *obj, Py_ssize_t count, const char *what, double *reals,
                      cplx *complexes)
{
    PyObject *seq = PySequence_Fast(obj, "kernel arguments must be sequences");
    if (seq == NULL)
        return -1;
    Py_ssize_t i = 0;
    for (; i < count && i < PySequence_Fast_GET_SIZE(seq); i++) {
        PyObject *item = PySequence_Fast_GET_ITEM(seq, i);
        Py_INCREF(item);
        Py_complex z = {0.0, 0.0};
        if (reals != NULL)
            z.real = reals[i] = PyFloat_AsDouble(item);
        else
            z = PyComplex_AsCComplex(item);
        Py_DECREF(item);
        if (z.real == -1.0 && PyErr_Occurred())
            break;
        if (reals == NULL)
            complexes[i] = (cplx){z.real, z.imag};
    }
    if (i < count && !PyErr_Occurred())
        PyErr_Format(PyExc_IndexError, "%s has %zd items, expected at least %zd", what,
                     PySequence_Fast_GET_SIZE(seq), count);
    Py_DECREF(seq);
    return i < count ? -1 : 0;
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

/* Matrix size n and its entry count n*n. */
static int load_size(PyObject *obj, Py_ssize_t *n, Py_ssize_t *size)
{
    *n = PyNumber_AsSsize_t(obj, PyExc_OverflowError);
    if (*n == -1 && PyErr_Occurred())
        return -1;
    /* Bounded so that the 3 * n * n entries matmul allocates cannot overflow. */
    if (*n < 0 || (*n > 0 && (PY_SSIZE_T_MAX / 64) / *n < *n)) {
        PyErr_Format(PyExc_ValueError, "matrix size %zd is out of range", *n);
        return -1;
    }
    *size = *n * *n;
    return 0;
}

/* A list of `count` floats, or of complex numbers (re, im) when `complex_items`,
 * whose first doubles lie `stride` doubles apart in `values`. */
static PyObject *number_list(const double *values, Py_ssize_t count, Py_ssize_t stride,
                             int complex_items)
{
    PyObject *out = PyList_New(count);
    for (Py_ssize_t i = 0; out != NULL && i < count; i++) {
        const double *v = values + i * stride;
        PyObject *x = complex_items ? PyComplex_FromDoubles(v[0], v[1]) : PyFloat_FromDouble(v[0]);
        if (x == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, x);
    }
    return out;
}

static PyObject *rng_u64(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t seed, index;
    if (check_nargs("rng_u64", nargs, 2) < 0 || load_u64(args[0], &seed) < 0
        || load_u64(args[1], &index) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(raw64(seed, index));
}

static PyObject *rng_u01(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t seed, index;
    if (check_nargs("rng_u01", nargs, 2) < 0 || load_u64(args[0], &seed) < 0
        || load_u64(args[1], &index) < 0)
        return NULL;
    return PyFloat_FromDouble(u01(seed, index));
}

static PyObject *matmul(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t n, size;
    if (check_nargs("matmul", nargs, 3) < 0 || load_size(args[2], &n, &size) < 0)
        return NULL;
    cplx *a = PyMem_New(cplx, 3 * size);
    if (a == NULL)
        return PyErr_NoMemory();
    cplx *b = a + size, *out = b + size;
    PyObject *result = NULL;
    if (load_items(args[0], size, "a", NULL, a) == 0
        && load_items(args[1], size, "b", NULL, b) == 0) {
        for (Py_ssize_t i = 0; i < n; i++)
            for (Py_ssize_t j = 0; j < n; j++) {
                cplx acc = {0.0, 0.0};
                for (Py_ssize_t k = 0; k < n; k++)
                    acc = c_add(acc, c_mul(a[i * n + k], b[k * n + j]));
                out[i * n + j] = acc;
            }
        result = number_list(&out[0].re, size, 2, 1);
    }
    PyMem_Free(a);
    return result;
}

/* <psi-| (sigma.a) (x) (sigma.b) |psi->: the four Kronecker entries at rows
 * and columns |01>, |10>, contracted with the singlet's two non-zero
 * amplitudes, in the order of quantum.tensor_product followed by the full
 * quadratic form. */
static PyObject *singlet_expectation(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double a[3], b[3];
    if (check_nargs("singlet_expectation", nargs, 2) < 0
        || load_items(args[0], 3, "a", a, NULL) < 0 || load_items(args[1], 3, "b", b, NULL) < 0)
        return NULL;
    double s = sqrt(0.5);
    cplx psi01 = {s, 0.0}, psi10 = {-s, 0.0};
    cplx conj01 = {psi01.re, -psi01.im}, conj10 = {psi10.re, -psi10.im};
    cplx m11 = c_mul((cplx){a[2], 0.0}, (cplx){-b[2], 0.0});
    cplx m12 = c_mul((cplx){a[0], -a[1]}, (cplx){b[0], b[1]});
    cplx m21 = c_mul((cplx){a[0], a[1]}, (cplx){b[0], -b[1]});
    cplx m22 = c_mul((cplx){-a[2], 0.0}, (cplx){b[2], 0.0});
    cplx row1 = c_add(c_mul(m11, psi01), c_mul(m12, psi10));
    cplx row2 = c_add(c_mul(m21, psi01), c_mul(m22, psi10));
    cplx total = c_add(c_mul(conj01, row1), c_mul(conj10, row2));
    return PyComplex_FromDoubles(total.re, total.im);
}

/* Scales the `size` entries of a by the power of two 2**-e that brings the
 * largest real or imaginary part into [0.5, 1), and returns e.  A NaN fails
 * the `>` tests and is skipped; a zero or non-finite matrix is left unscaled,
 * and jacobi rejects the latter. */
static int prescale(cplx *a, Py_ssize_t size)
{
    double biggest = 0.0;
    int e = 0;
    for (Py_ssize_t i = 0; i < size; i++) {
        if (fabs(a[i].re) > biggest)
            biggest = fabs(a[i].re);
        if (fabs(a[i].im) > biggest)
            biggest = fabs(a[i].im);
    }
    if (isfinite(biggest))
        frexp(biggest, &e);
    for (Py_ssize_t i = 0; e != 0 && i < size; i++)
        a[i] = (cplx){ldexp(a[i].re, -e), ldexp(a[i].im, -e)};
    return e;
}

/* Cyclic Jacobi sweeps over the prescaled a (n x n, row-major); returns 0 on
 * convergence.  Returns -1 with ValueError when an entry is NaN or infinite,
 * which after the prescale is exactly when the Frobenius sum is, and with
 * RuntimeError after JACOBI_MAX_SWEEPS sweeps. */
static int jacobi(cplx *a, Py_ssize_t n)
{
    double norm2 = 0.0;
    for (Py_ssize_t i = 0; i < n * n; i++)
        norm2 += a[i].re * a[i].re + a[i].im * a[i].im;
    if (!isfinite(norm2)) {
        PyErr_SetString(PyExc_ValueError, "matrix has a NaN or infinite entry");
        return -1;
    }
    double tol = JACOBI_RTOL * sqrt(norm2);
    for (int sweep = 0;; sweep++) {
        double off = 0.0;
        for (Py_ssize_t p = 0; p < n; p++)
            for (Py_ssize_t q = 0; q < n; q++)
                if (p != q)
                    off += a[p * n + q].re * a[p * n + q].re + a[p * n + q].im * a[p * n + q].im;
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
                cplx apq = a[p * n + q];
                double g = sqrt(apq.re * apq.re + apq.im * apq.im);
                if (g == 0.0)
                    continue;
                double theta = 0.5 * atan2(2.0 * g, a[p * n + p].re - a[q * n + q].re);
                /* The float factors c, s and -s, promoted to complex. */
                cplx c = {cos(theta), 0.0}, s = {sin(theta), 0.0}, neg_s = {-s.re, 0.0};
                cplx phase = {apq.re / g, apq.im / g}, phase_conj = {phase.re, -phase.im};
                for (Py_ssize_t k = 0; k < n; k++) {
                    cplx akp = a[k * n + p];
                    cplx rot = c_mul(phase_conj, a[k * n + q]);
                    a[k * n + p] = c_add(c_mul(c, akp), c_mul(s, rot));
                    a[k * n + q] = c_add(c_mul(neg_s, akp), c_mul(c, rot));
                }
                for (Py_ssize_t k = 0; k < n; k++) {
                    cplx apk = a[p * n + k];
                    cplx rot = c_mul(phase, a[q * n + k]);
                    a[p * n + k] = c_add(c_mul(c, apk), c_mul(s, rot));
                    a[q * n + k] = c_add(c_mul(neg_s, apk), c_mul(c, rot));
                }
            }
    }
}

static PyObject *eigvals_hermitian(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t n, size;
    if (check_nargs("eigvals_hermitian", nargs, 2) < 0 || load_size(args[1], &n, &size) < 0)
        return NULL;
    cplx *a = PyMem_New(cplx, size);
    if (a == NULL)
        return PyErr_NoMemory();
    if (load_items(args[0], size, "entries", NULL, a) < 0) {
        PyMem_Free(a);
        return NULL;
    }
    int e = prescale(a, size);
    if (jacobi(a, n) < 0) {
        PyMem_Free(a);
        return NULL;
    }
    PyObject *result = NULL;
    /* The diagonal scaled back; the reference's math.ldexp raises on overflow. */
    for (Py_ssize_t i = 0; i < n && !PyErr_Occurred(); i++) {
        double x = a[i * (n + 1)].re;
        a[i * (n + 1)].re = ldexp(x, e);
        if (isinf(a[i * (n + 1)].re) && isfinite(x))
            PyErr_SetString(PyExc_OverflowError, "math range error");
    }
    if (!PyErr_Occurred())
        result = number_list(&a[0].re, n, 2 * (n + 1), 0); /* real parts of the diagonal */
    /* Python's own sort, so that ties (0.0 and -0.0) keep the reference order. */
    if (result != NULL && PyList_Sort(result) < 0)
        Py_CLEAR(result);
    PyMem_Free(a);
    return result;
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
    double *cw = PyMem_New(double, 5 * nstates);
    if (cw == NULL)
        return PyErr_NoMemory();
    double *pr = cw + nstates;
    PyObject *result = NULL;
    if (load_items(args[0], nstates, "cum_weights", cw, NULL) == 0
        && load_items(args[1], 4 * nstates, "products", pr, NULL) == 0) {
        double sums[8] = {0.0};
        for (long long i = start; i < stop; i++) {
            /* The uint64 wrap of a negative index matches the reference's mask. */
            double u = u01(seed, (uint64_t)i);
            /* Inverse CDF; the last state also takes draws beyond its weight.  On
             * nondecreasing cum_weights this is the reference's bisect_right. */
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
    return result;
}

#define KERNEL(name, doc) {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, doc}

static PyMethodDef kernel_methods[] = {
    KERNEL(rng_u64, "Return draw ``index`` of the stream ``seed`` as a 64-bit integer."),
    KERNEL(rng_u01, "Return draw ``index`` of the stream ``seed``, uniform on [0, 1)."),
    KERNEL(matmul, "Product of two flat n x n complex matrices."),
    KERNEL(singlet_expectation, "<psi-| (sigma.a) (x) (sigma.b) |psi-> for directions a and b."),
    KERNEL(eigvals_hermitian, "Eigenvalues of a flat n x n complex Hermitian matrix, ascending."),
    KERNEL(lhv_mc_sums,
           "Accumulate Monte Carlo sums for a finite hidden-state mixture.\n\n"
           "Draw i in [start, stop) selects the first state j with\n"
           "rng_u01(seed, i) < cum_weights[j], or the last state when there is none.\n"
           "Precondition: cum_weights is nondecreasing; the linear search here and the\n"
           "reference's bisection then select the same state."),
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
