"""B-spline / NURBS kernels: knot vectors, basis evaluation, derivatives,
knot insertion and Gauss rules.

Conventions used throughout the package:

* parametric domains are [0, 1] and knot vectors are p-open,
* basis indices are 0-based,
* evaluation at t = 1 uses the left-limit convention, so the last basis
  function attains 1 there,
* 0/0 is defined as 0 in the Cox-de Boor reference recursion; the array
  kernel :func:`ders_basis` divides only by positive knot differences.
"""

import bisect

import numpy as np

from .errors import SplineError

__all__ = [
    "KnotVector",
    "make_open_knot_vector",
    "eval_basis",
    "eval_deriv",
    "ders_basis",
    "nurbs_ders_basis",
    "insert_knot",
    "gauss_points",
]


class KnotVector:
    """A p-open knot vector on [0, 1].

    ``n = len(values) - p - 1`` basis functions. Interior multiplicities up
    to p+1 are representable (a p+1 multiplicity encodes a C^-1 break used
    during curve splitting); analysis spaces restrict to multiplicity <= p.
    """

    __slots__ = ("values", "p", "n")

    def __init__(self, values, p):
        values = np.asarray(values, dtype=float)
        if p < 0:
            raise SplineError("degree must be nonnegative", tag="invalid-degree")
        if values.ndim != 1 or len(values) < 2 * (p + 1):
            raise SplineError("too few knots for degree %d" % p, tag="invalid-knots")
        if np.any(np.diff(values) < 0):
            raise SplineError("knots must be non-decreasing", tag="invalid-knots")
        # each end knot is repeated exactly p+1 times
        if not (
            np.all(values[: p + 1] == values[0])
            and np.all(values[-p - 1 :] == values[-1])
            and values[0] < values[p + 1]
            and values[-p - 2] < values[-1]
        ):
            raise SplineError("knot vector is not p-open", tag="invalid-knots")
        if values[0] != 0.0 or values[-1] != 1.0:
            raise SplineError("knot vectors are normalized to [0, 1]", tag="invalid-knots")
        values = values.copy()
        values.flags.writeable = False
        self.values = values
        self.p = p
        self.n = len(values) - p - 1
        for t, m in zip(*self.interior_multiplicities()):
            if m > p + 1:
                raise SplineError(
                    "interior knot %g has multiplicity %d > p+1" % (t, m),
                    tag="invalid-multiplicity",
                )

    def __repr__(self):
        return f"KnotVector(p={self.p}, n={self.n}, values={np.array2string(self.values, precision=4)})"

    def __eq__(self, other):
        return (
            isinstance(other, KnotVector)
            and self.p == other.p
            and len(self.values) == len(other.values)
            and np.array_equal(self.values, other.values)
        )

    def interior_multiplicities(self):
        """Distinct interior knots and their multiplicities."""
        interior = self.values[self.p + 1 : -self.p - 1]
        if len(interior) == 0:
            return np.empty(0), np.empty(0, dtype=int)
        uniq, counts = np.unique(interior, return_counts=True)
        return uniq, counts

    def breakpoints(self):
        return np.unique(self.values)

    def spans(self):
        """Nonempty spans as an array of (start index, a, b) rows."""
        out = []
        for k in range(self.p, self.n):
            a, b = self.values[k], self.values[k + 1]
            if b > a:
                out.append((k, a, b))
        return out

    def span_index(self, t):
        """Index k with values[k] <= t < values[k+1] (left limit at t=1)."""
        k = int(np.searchsorted(self.values, t, side="right")) - 1
        return min(max(k, self.p), self.n - 1)

    def multiplicity(self, t, tol=1e-12):
        return int(np.sum(np.abs(self.values - t) <= tol))

    def greville(self):
        """Greville abscissae g_i = mean of p consecutive knots."""
        if self.p == 0:
            return 0.5 * (self.values[:-1] + self.values[1:])
        return np.array(
            [self.values[i + 1 : i + self.p + 1].mean() for i in range(self.n)]
        )

    def mirrored(self):
        """Knot vector of the reversed parametrization t -> 1-t."""
        return KnotVector(1.0 - self.values[::-1], self.p)

    def regularity(self):
        """Global smoothness p - max interior multiplicity (p-1 if none)."""
        _, counts = self.interior_multiplicities()
        if len(counts) == 0:
            return self.p - 1
        return self.p - int(counts.max())


def make_open_knot_vector(p, segments, r):
    """Uniform p-open knot vector with ``segments`` spans and regularity r.

    Interior breakpoints k/segments carry multiplicity p - r, giving
    n = segments*(p-r) + r + 1 basis functions.
    """
    if not (0 <= r <= p - 1):
        raise SplineError("regularity must satisfy 0 <= r <= p-1", tag="invalid-regularity")
    if segments < 1:
        raise SplineError("segments must be >= 1", tag="invalid-segments")
    mult = p - r
    interior = np.repeat(np.arange(1, segments) / segments, mult)
    values = np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)])
    return KnotVector(values, p)


def _basis_value(values, p, i, t):
    """Cox-DeBoor recursion for a single B-spline value (reference path)."""
    if p == 0:
        if values[i] <= t < values[i + 1]:
            return 1.0
        # left-limit convention at the right end
        if t == values[-1] and values[i] < t <= values[i + 1]:
            return 1.0
        return 0.0
    left = 0.0
    den = values[i + p] - values[i]
    if den > 0.0:
        left = (t - values[i]) / den * _basis_value(values, p - 1, i, t)
    right = 0.0
    den = values[i + p + 1] - values[i + 1]
    if den > 0.0:
        right = (values[i + p + 1] - t) / den * _basis_value(values, p - 1, i + 1, t)
    return left + right


def eval_basis(kv, i, t):
    """Value of the i-th (0-based) B-spline of ``kv`` at t."""
    if not 0 <= i < kv.n:
        raise SplineError("basis index %d out of range" % i, tag="invalid-index")
    return _basis_value(kv.values, kv.p, i, float(t))


def _deriv_value(values, p, i, t, order):
    if order == 0:
        return _basis_value(values, p, i, t)
    n = len(values) - p - 1
    out = 0.0
    den = values[i + p] - values[i]
    if den > 0.0:
        out += p / den * _deriv_value(values, p - 1, i, t, order - 1)
    den = values[i + p + 1] - values[i + 1]
    # B_{n+1,p-1} := 0 boundary convention
    if den > 0.0 and i + 1 <= n:
        out -= p / den * _deriv_value(values, p - 1, i + 1, t, order - 1)
    return out


def eval_deriv(kv, i, t, order):
    """order-th derivative (order in {1, 2}) of the i-th B-spline at t."""
    if not 0 <= i < kv.n:
        raise SplineError("basis index %d out of range" % i, tag="invalid-index")
    if order > kv.p:
        raise SplineError("derivative order %d > degree" % order, tag="unsupported-order")
    return _deriv_value(kv.values, kv.p, i, float(t), order)


def ders_basis(kv, t, nders):
    """All nonzero B-splines and derivatives at t.

    Returns (first_index, D) where D[k, j] is the k-th derivative of basis
    function first_index + j, k = 0..nders, j = 0..p.  For an array of n
    parameters, first_index has shape (n,) and D shape (n, nders+1, p+1).
    Standard triangular algorithm, run over all parameters at once; this is
    the fast path used by assembly.  Every division is by a knot difference
    U[span+a] - U[span+b] with a >= 1 and b <= 0; it covers the nonempty
    span of t, so it is positive and no 0/0 guard is needed.
    """
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    p = kv.p
    U = kv.values
    span = np.clip(np.searchsorted(U, t, side="right") - 1, p, kv.n - 1)
    ndu = np.zeros((p + 1, p + 1) + t.shape)
    ndu[0, 0] = 1.0
    left = np.zeros((p + 1,) + t.shape)
    right = np.zeros((p + 1,) + t.shape)
    for j in range(1, p + 1):
        left[j] = t - U[span + 1 - j]
        right[j] = U[span + j] - t
        # knot differences below the diagonal, degree-j values above it
        ndu[j, :j] = right[1 : j + 1] + left[j:0:-1]
        temp = ndu[:j, j - 1] / ndu[j, :j]
        saved = np.zeros((j + 1,) + t.shape)
        saved[1:] = left[j:0:-1] * temp
        ndu[:j, j] = saved[:j] + right[1 : j + 1] * temp
        ndu[j, j] = saved[j]
    ders = np.zeros((nders + 1, p + 1) + t.shape)
    ders[0] = ndu[:, p]
    # a[r, j] is coefficient j of function r at derivative order k; term j
    # involves the functions r = k-j..p-j only, whose ndu indices r-k+j run
    # over 0..p-k.  Terms are summed in increasing j, as per function.
    a = np.ones((p + 1, 1) + t.shape)
    for k in range(1, min(nders, p) + 1):
        pk = p - k
        den, basis = ndu[pk + 1, : pk + 1], ndu[: pk + 1, pk]
        b = np.zeros((p + 1, k + 1) + t.shape)
        b[k:, 0] = a[k:, 0] / den
        ders[k, k:] = b[k:, 0] * basis
        for j in range(1, k + 1):
            r = slice(k - j, p - j + 1)
            b[r, j] = (-a[r, j - 1] if j == k else a[r, j] - a[r, j - 1]) / den
            ders[k, r] += b[r, j] * basis
        a = b
    rfac = 1.0
    for k in range(1, nders + 1):
        rfac *= p - k + 1
        ders[k] *= rfac
    first = span - p
    if scalar:
        return int(first[0]), ders[..., 0]
    return first, np.ascontiguousarray(np.moveaxis(ders, -1, 0))


def nurbs_ders_basis(kv, weights, t, nders):
    """Rational counterpart of :func:`ders_basis` for weights w_i > 0.

    N_i = w_i B_i / W with W = sum_j w_j B_j; derivatives by the quotient
    rule (exact, needed at second order for the H2 bilinear form).  Same
    return shapes as :func:`ders_basis`.
    """
    weights = np.asarray(weights, dtype=float)
    if np.any(weights <= 0.0):
        raise SplineError("weights must be strictly positive", tag="invalid-weights")
    first, D = ders_basis(kv, t, nders)
    w_act = weights[np.add.outer(first, np.arange(kv.p + 1))]
    num = np.moveaxis(D * w_act[..., None, :], -2, 0)  # derivatives of w_i B_i
    Wd = num.sum(axis=-1)[..., None]  # derivatives of the weight function
    R = np.zeros_like(num)
    R[0] = num[0] / Wd[0]
    if nders >= 1:
        R[1] = (num[1] - R[0] * Wd[1]) / Wd[0]
    if nders >= 2:
        R[2] = (num[2] - 2.0 * R[1] * Wd[1] - R[0] * Wd[2]) / Wd[0]
    return first, np.moveaxis(R, 0, -2)


def boehm_insert(U, ctrl, p, t, times):
    """Insert t ``times`` times into the knot list U of degree p.

    Boehm's algorithm on a plain list, extended in place, without building
    or validating a :class:`KnotVector`; ``ctrl`` is an (n, d) control
    array (homogeneous coordinates for rational curves).  Returns the new
    control array.
    """
    for _ in range(times):
        k = min(max(bisect.bisect_right(U, t) - 1, p), len(U) - p - 2)
        lo = k - p + 1
        a = np.array([(t - U[i]) / (U[i + p] - U[i]) for i in range(lo, k + 1)])[:, None]
        new_ctrl = np.empty((ctrl.shape[0] + 1, ctrl.shape[1]))
        new_ctrl[:lo] = ctrl[:lo]
        new_ctrl[k + 1 :] = ctrl[k:]
        new_ctrl[lo : k + 1] = a * ctrl[lo : k + 1] + (1.0 - a) * ctrl[lo - 1 : k]
        U.insert(k + 1, t)
        ctrl = new_ctrl
    return ctrl


def insert_knot(kv, ctrl, t, times=1):
    """Boehm knot insertion, geometry preserving.

    ``ctrl`` is an (n, d) control array (d arbitrary; pass homogeneous
    coordinates for rational curves).  Returns (new_kv, new_ctrl).
    """
    if not 0.0 < t < 1.0:
        raise SplineError("insertion parameter must lie in (0, 1)", tag="invalid-parameter")
    ctrl = np.asarray(ctrl, dtype=float)
    if ctrl.shape[0] != kv.n:
        raise SplineError("control count does not match basis count", tag="invalid-control")
    if kv.multiplicity(t) + times > kv.p + 1:
        raise SplineError("multiplicity at %g would exceed p+1" % t, tag="invalid-multiplicity")
    U = kv.values.tolist()
    ctrl = boehm_insert(U, ctrl, kv.p, t, times)
    return KnotVector(U, kv.p), ctrl


_gauss_cache = {}


def gauss_points(npts, a, b):
    """Gauss-Legendre nodes and weights on (a, b)."""
    if npts not in _gauss_cache:
        _gauss_cache[npts] = np.polynomial.legendre.leggauss(npts)
    x, w = _gauss_cache[npts]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w
