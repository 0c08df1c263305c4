/* Native compute kernels: the two kernels of chshbounds._kernels.reference,
 * with the same signatures and the same floating-point operations in the same
 * order, so that both backends give bit-identical values on one machine.
 * setup.py disables FMA contraction, which would change last bits.  No libm
 * function is called.  Change the reference too.  Matrix and Kronecker
 * products, the singlet contraction and operator norms are plain Python in
 * chshbounds.quantum: no CLI command runs enough of them for a copy here to pay
 * for itself. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>

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

/* The first `count` items of `obj` as doubles, read one at a time as the
 * reference reads obj[i], into a buffer that grows with the items read: a
 * length that no real sequence has fails where the reference fails, at its
 * first item that cannot be read, and not on one huge allocation.  Returns NULL
 * with an exception set on failure. */
static double *load_items(PyObject *obj, Py_ssize_t count)
{
    Py_ssize_t capacity = count < 16 ? count : 16;
    double *x = PyMem_New(double, capacity);
    if (x == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    for (Py_ssize_t i = 0; i < count; i++) {
        if (i == capacity) {
            capacity = capacity < count - capacity ? 2 * capacity : count;
            double *grown = x;
            if (PyMem_Resize(grown, double, capacity) == NULL) {
                PyMem_Free(x);
                PyErr_NoMemory();
                return NULL;
            }
            x = grown;
        }
        PyObject *item = PySequence_GetItem(obj, i);
        x[i] = -1.0;
        if (item != NULL) {
            x[i] = PyFloat_AsDouble(item);
            Py_DECREF(item);
        }
        if (x[i] == -1.0 && PyErr_Occurred()) {
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

static PyObject *rng_u01(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t seed, index;
    if (check_nargs("rng_u01", nargs, 2) < 0 || load_u64(args[0], &seed) < 0
        || load_u64(args[1], &index) < 0)
        return NULL;
    return PyFloat_FromDouble(u01(seed, index));
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
    double *cw = load_items(args[0], nstates);
    double *pr = cw == NULL ? NULL : load_items(args[1], 4 * nstates);
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
