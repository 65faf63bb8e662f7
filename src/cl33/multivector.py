"""Dense multivectors over the 64 basis blades and their products.

Every value is immutable; operations return fresh multivectors.  The default
numeric tolerance used throughout the package is ``ATOL + RTOL * scale`` with
``scale`` the largest coefficient magnitude involved, which absorbs rounding
only (the underlying identities are exact).
"""

from __future__ import annotations

import numbers
from typing import NamedTuple

import numpy as np

from .blades import (
    BLADE_COUNT,
    CONJUGATION_SIGNS,
    GRADE_SELECTORS,
    GRADES,
    INVOLUTION_SIGNS,
    OUTER_SIGNS,
    PRODUCT_MASKS,
    PRODUCT_SIGNS,
    REVERSION_SIGNS,
    blade_name,
)
from .errors import ConvergenceError, DomainError

ATOL = 1e-12
RTOL = 1e-9

_FLAT_MASKS = PRODUCT_MASKS.ravel()

# Entry (i, k) of a right factor's product table is the factor's
# coefficient i ^ k with the Cayley sign of (i, i ^ k): the gather index
# into the factor's coefficients followed by their negated copy.
_TABLE_INDEX = PRODUCT_MASKS + BLADE_COUNT * (
    np.take_along_axis(PRODUCT_SIGNS, PRODUCT_MASKS, axis=1) < 0)


def _grade_selector(k) -> np.ndarray:
    """GRADE_SELECTORS[k]; DomainError when k is not an integer in 0..6."""
    if not isinstance(k, numbers.Integral) or not 0 <= k <= 6:
        raise DomainError(f"grade must be an integer in 0..6, got {k!r}")
    return GRADE_SELECTORS[int(k)]


def tolerance(scale: float) -> float:
    """Absolute tolerance appropriate for values of the given magnitude."""
    return ATOL + RTOL * abs(scale)


class Frozen:
    """A base whose instances refuse attribute assignment and deletion: a
    constructor sets attributes with ``object.__setattr__`` or in
    ``__dict__``.  The repr reads like a constructor call with the
    attributes named in ``_fields``."""

    __slots__ = ()
    _fields = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"


class Multivector(Frozen):
    """A dense element of the algebra: 64 float64 coefficients by blade mask."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            arr = np.zeros(BLADE_COUNT)
        else:
            arr = np.array(coeffs, dtype=np.float64, copy=True).reshape(BLADE_COUNT)
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    # -- constructors -------------------------------------------------

    @classmethod
    def scalar(cls, value):
        c = np.zeros(BLADE_COUNT)
        c[0] = value
        return cls(c)

    @classmethod
    def blade(cls, mask, coeff=1.0):
        if not 0 <= mask < BLADE_COUNT:
            raise ValueError(f"blade mask out of range: {mask}")
        c = np.zeros(BLADE_COUNT)
        c[mask] = coeff
        return cls(c)

    @classmethod
    def _raw(cls, arr):
        """Adopt a freshly computed array without copying."""
        mv = cls.__new__(cls)
        arr = np.asarray(arr, dtype=np.float64).reshape(BLADE_COUNT)
        arr.setflags(write=False)
        object.__setattr__(mv, "coeffs", arr)
        return mv

    @classmethod
    def _raw_rows(cls, rows) -> list:
        """Adopt each row of a freshly computed (n, 64) array without
        copying, as ``_raw`` of each row does."""
        rows = np.asarray(rows, dtype=np.float64).reshape(-1, BLADE_COUNT)
        rows.setflags(write=False)
        out = []
        for row in rows:
            mv = cls.__new__(cls)
            object.__setattr__(mv, "coeffs", row)
            out.append(mv)
        return out

    # -- inspection ----------------------------------------------------

    def coeff(self, mask: int) -> float:
        return float(self.coeffs[mask])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def grade(self, k: int) -> "Multivector":
        """Projection onto grade ``k`` (coefficients of every other grade zeroed)."""
        return Multivector._raw(np.where(_grade_selector(k), self.coeffs, 0.0))

    def is_homogeneous(self, k: int, tol=0.0) -> bool:
        """Whether every coefficient outside grade ``k`` is at most ``tol``."""
        return bool(np.all(np.abs(self.coeffs[~_grade_selector(k)]) <= tol))

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Multivector):
            return Multivector._raw(self.coeffs + other.coeffs)
        if isinstance(other, numbers.Real):
            c = self.coeffs.copy()
            c[0] += other
            return Multivector._raw(c)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Multivector):
            return Multivector._raw(self.coeffs - other.coeffs)
        if isinstance(other, numbers.Real):
            c = self.coeffs.copy()
            c[0] -= other
            return Multivector._raw(c)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, numbers.Real):
            c = -self.coeffs
            c[0] += other
            return Multivector._raw(c)
        return NotImplemented

    def __neg__(self):
        return Multivector._raw(-self.coeffs)

    def __mul__(self, other):
        """Geometric product: each nonzero a_i meets one row of the product
        table of a finite b, summed in ascending i as ``table_products`` does
        (a skipped ±0 would add ±0 to a sum from +0); a non-finite b takes all
        4096 pairs, so that 0 times inf still yields its NaN."""
        if isinstance(other, Multivector):
            a, b = self.coeffs, other.coeffs
            if not np.isfinite(b).all():
                prod = (a[:, None] * b[None, :]) * PRODUCT_SIGNS
                return Multivector._raw(np.bincount(_FLAT_MASKS, weights=prod.ravel(),
                                                    minlength=BLADE_COUNT))
            rows = np.flatnonzero(a)
            terms = np.concatenate((b, -b)).take(_TABLE_INDEX.take(rows, axis=0))
            terms *= a.take(rows)[:, None]
            return Multivector._raw(np.add.reduce(terms, axis=0) + 0.0)
        if isinstance(other, numbers.Real):
            return Multivector._raw(self.coeffs * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Real):
            return Multivector._raw(self.coeffs * other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, numbers.Real):
            return Multivector._raw(self.coeffs / other)
        return NotImplemented

    def __xor__(self, other):
        """Exterior product (grade-raising part of the geometric product)."""
        if isinstance(other, Multivector):
            prod = (self.coeffs[:, None] * other.coeffs[None, :]) * OUTER_SIGNS
            return Multivector._raw(np.bincount(_FLAT_MASKS, weights=prod.ravel(),
                                                minlength=BLADE_COUNT))
        return NotImplemented

    # -- comparison ------------------------------------------------------

    def approx_eq(self, other, atol=ATOL, rtol=RTOL) -> bool:
        """Per-coefficient closeness: |a-b| <= atol + rtol*max(|a|, |b|)."""
        if isinstance(other, numbers.Real):
            other = Multivector.scalar(other)
        a, b = self.coeffs, other.coeffs
        return bool(np.all(np.abs(a - b) <= atol + rtol * np.maximum(np.abs(a), np.abs(b))))

    def is_zero(self, tol=ATOL) -> bool:
        return bool(np.all(np.abs(self.coeffs) <= tol))

    def __repr__(self):
        terms = []
        for mask in range(BLADE_COUNT):
            c = self.coeffs[mask]
            if c != 0.0:
                terms.append(f"{c:g}*{blade_name(mask)}" if mask else f"{c:g}")
        if not terms:
            return "Multivector(0)"
        return "Multivector(" + " + ".join(terms) + ")"


#: The six generators as multivectors, indexed by bit position.
GENERATORS = tuple(Multivector.blade(1 << i) for i in range(6))

ONE = Multivector.scalar(1.0)


def product_tables(rows) -> np.ndarray:
    """Right-multiplication tables of coefficient rows b (shape (n, 64), or
    one row), as a (64, n, 64) array T with (a * b_r)_k = sum_i a_i T[i, r, k].

    ``table_products`` then multiplies by the table without the Cayley sign
    and mask lookups of the dense product: a factor that meets many rows, as
    rev U does in ``versors.sandwich_products``, is tabled once for all of
    them.  ``*`` gathers the rows of its nonzero left coefficients alone.
    """
    rows = np.asarray(rows, dtype=np.float64)
    tables = np.concatenate((rows, -rows), axis=-1).take(_TABLE_INDEX, axis=-1)
    return np.ascontiguousarray(tables.swapaxes(0, -2)).reshape(BLADE_COUNT, -1, BLADE_COUNT)


def table_products(a, tables) -> np.ndarray:
    """Products of coefficient rows ``a`` (shape (n, 64), or one row) by
    right factors tabled by ``product_tables``, as (n, 64) coefficients:
    (64, n, 64) tables take one factor for each row, and (64, 1, 64) tables
    one for every row.  ``versors.sandwich_products`` builds the table of
    rev U and multiplies by it when U is dense, and plans the product
    otherwise: every term of a dense factor meets the table, while a plan
    skips the pairs that are zero by grade.

    For finite right factors, byte-identical to ``Multivector.__mul__`` and
    to the dense product of all 4096 pairs: a_i times the signed coefficient
    is the signed product, the terms are added in ascending i (the reduced
    axis is outermost, so the sum is not pairwise), as the dense product's
    ``bincount`` adds them, and ``+ 0.0`` gives a zero sum bincount's +0
    (numpy 2 already starts the sum from +0; earlier versions start from the
    first term, which may be -0).
    """
    a = np.asarray(a).reshape(-1, BLADE_COUNT)
    terms = np.multiply(a.T[:, :, None], tables, order="C")
    return np.add.reduce(terms, axis=0) + 0.0


class ProductPlan(NamedTuple):
    """The signed blade pairs of a batch of products, for ``planned_products``.

    ``left`` and ``right`` index the flattened operand rows, ``signs`` are
    the Cayley (or exterior) signs and ``bins`` the flattened result
    coefficients; ``grades`` lists the grades each product can carry.
    """

    left: np.ndarray
    right: np.ndarray
    signs: np.ndarray
    bins: np.ndarray
    count: int
    grades: tuple


def grade_support(grades) -> np.ndarray:
    """Which of the 64 blades have one of the given grades."""
    return (sum(1 << k for k in set(grades)) >> GRADES) & 1 == 1


#: Bit k of a blade's entry is set for a blade of grade k.
_GRADE_BITS = 1 << GRADES
#: The grades whose bits are set in each 7-bit mask; (0,) when none is.
_GRADE_SETS = tuple(tuple(k for k in range(7) if bits >> k & 1) or (0,) for bits in range(128))


def grade_set(rows) -> tuple:
    """The grades that the nonzero coefficients of ``rows`` (one row of 64,
    or several) carry, as ``product_plan`` takes them; (0,) when there are
    none."""
    bits = np.bitwise_or.reduce(np.where(np.asarray(rows) != 0, _GRADE_BITS, 0), axis=None)
    return _GRADE_SETS[int(bits)]


def product_plan(grades, products, reads=None) -> ProductPlan:
    """Plan the products of operand rows that carry only the given grades.

    ``grades[n]`` lists the grades operand row n may carry; its coefficients
    of every other grade must be zero.  ``products`` lists ``(left, right,
    outer)`` row indices: the geometric product left * right, or the
    exterior product left ^ right when ``outer``.  ``reads``, when given,
    lists for each product the grades of its result that are read, or None
    for every grade; the other coefficients come out +0.  The plan keeps
    every signed pair (i, j) of a read coefficient except those in which a
    factor is zero by grade, row-major: product by product, then ascending
    i.  The pairs of ``^`` with sign 0 stay, as in ``^``: their term is NaN
    when a_i b_j overflows.
    """
    support = [grade_support(g) for g in grades]
    left, right, signs, bins, out = [], [], [], [], []
    for r, (a, b, outer) in enumerate(products):
        table = OUTER_SIGNS if outer else PRODUCT_SIGNS
        i, j = np.nonzero(support[a][:, None] & support[b])
        if reads is not None and reads[r] is not None:
            i, j = (x[grade_support(reads[r])[i ^ j]] for x in (i, j))
        left.append(a * BLADE_COUNT + i)
        right.append(b * BLADE_COUNT + j)
        signs.append(table[i, j])
        bins.append(r * BLADE_COUNT + (i ^ j))
        out.append(tuple(sorted(set(GRADES[i ^ j].tolist()))))
    arrays = [np.concatenate(x) for x in (left, right, signs, bins)]
    for arr in arrays:
        arr.flags.writeable = False
    return ProductPlan(*arrays, len(products), tuple(out))


def tile_plan(plan: ProductPlan, rows: int, count: int) -> ProductPlan:
    """``count`` copies of ``plan``, whose operands take ``rows`` rows: copy
    s reads the operand rows of block s and writes result rows of its own,
    with the terms of each result in the same order, so every block's
    results are byte for byte those of ``plan`` alone.  It is the plan that
    ``product_plan`` makes of the products of every block, block by block."""
    block = np.arange(count)[:, None]
    arrays = ((plan.left + block * rows * BLADE_COUNT).ravel(),
              (plan.right + block * rows * BLADE_COUNT).ravel(),
              np.tile(plan.signs, count),
              (plan.bins + block * plan.count * BLADE_COUNT).ravel())
    for arr in arrays:
        arr.flags.writeable = False
    return ProductPlan(*arrays, plan.count * count, plan.grades * count)


def planned_products(rows, plan: ProductPlan) -> np.ndarray:
    """The products ``plan`` lists, of coefficient rows ``rows`` (shape
    (n, 64)), as (plan.count, 64) coefficients.

    Byte-identical to ``*`` and ``^`` when every row is finite and zero
    outside its planned grades: each kept term is (a_i b_j) s(i, j), as in
    ``*``, and one bincount adds the terms of every result coefficient in
    ascending i, as ``*`` does.  A dropped term is a finite number times
    zero, so ±0, and adding ±0 leaves a sum that starts from +0 unchanged.
    """
    flat = np.ravel(rows)
    terms = flat[plan.left]
    terms *= flat[plan.right]
    terms *= plan.signs
    return np.bincount(plan.bins, weights=terms,
                       minlength=plan.count * BLADE_COUNT).reshape(plan.count, BLADE_COUNT)


def _as_mv(x):
    if isinstance(x, Multivector):
        return x
    if isinstance(x, numbers.Real):
        return Multivector.scalar(x)
    raise TypeError(f"expected Multivector or real scalar, got {type(x).__name__}")


def geometric_product(a, b) -> Multivector:
    return _as_mv(a) * _as_mv(b)


def outer_product(a, b) -> Multivector:
    """Exterior product, extended to mixed-grade inputs as the sum of the
    grade-(r+s) parts of the products of the grade parts."""
    return _as_mv(a) ^ _as_mv(b)


def grade_project(a, k: int) -> Multivector:
    return _as_mv(a).grade(k)


def grade_involution(a) -> Multivector:
    return Multivector._raw(_as_mv(a).coeffs * INVOLUTION_SIGNS)


def reversion(a) -> Multivector:
    return Multivector._raw(_as_mv(a).coeffs * REVERSION_SIGNS)


def conjugation(a) -> Multivector:
    return Multivector._raw(_as_mv(a).coeffs * CONJUGATION_SIGNS)


def vector_contract(v, a) -> Multivector:
    """Interior product of a grade-1 element into ``a``.

    For homogeneous ``a`` of grade k this is (v a - (-1)^k a v) / 2, the
    grade-(k-1) part of the product; mixed grades extend by linearity.
    """
    v = _as_mv(v)
    a = _as_mv(a)
    if not v.is_homogeneous(1, tol=tolerance(v.max_abs())):
        raise DomainError("contraction requires a grade-1 left factor")
    return (v * a - grade_involution(a) * v) * 0.5


def exponential(a, max_terms=128) -> Multivector:
    """Series exponential sum(a^n / n!), truncated when the next term is
    below 1e-14 relative to the largest partial-sum coefficient.

    Raises DomainError when ``a`` is not finite and ConvergenceError when
    ``max_terms`` terms do not reach the tolerance.
    """
    a = _as_mv(a)
    if not np.isfinite(a.coeffs).all():
        raise DomainError("the argument a of exponential must be finite")
    total = ONE
    term = ONE
    for n in range(1, max_terms + 1):
        term = term * a / n
        total = total + term
        if term.max_abs() <= 1e-14 * max(1.0, total.max_abs()):
            return total
    raise ConvergenceError(
        f"exponential series did not converge within {max_terms} terms "
        f"(last term magnitude {term.max_abs():.3e})")
