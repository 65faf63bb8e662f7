"""Transformation versors and the two ways of applying them to points.

Sandwich transforms act as P' = epsilon U P (reversed U); reflection carries
epsilon = -1, everything else +1.  Cotranslation is the star-conjugated
sandwich P' = star^-1[T (star P) (reversed T)], which adds g(p, v) to the
weight and is the building block of perspective and pseudo-perspective.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .blades import BLADE_COUNT, GRADES, MINUS_BLADES, PLUS_BLADES
from .errors import DegenerateConfigurationError, DomainError, NotHodgeCompatible
from .euclid import (
    OMEGA_V,
    POINT_BASIS,
    Paravector,
    embed_points,
    embed_vector,
    extract_points,
    g,
    sector_vector,
    star_conjugate,
)
from .hodge import hodge_star, hodge_star_rows
from .multivector import (
    GENERATORS,
    ONE,
    Multivector,
    ProductPlan,
    planned_products,
    product_plan,
    product_tables,
    reversion,
    table_products,
    tolerance,
)

#: Tolerance for unit-length / orthogonality preconditions.
PRECONDITION_TOL = 1e-9

REFLECTION = "reflection"
ROTATION = "rotation"
HYPERBOLIC = "hyperbolic"
SHEAR = "shear"
SCALE = "scale"
TRANSLATION = "translation"
COMPOSITE = "composite"
IDENTITY = "identity"


def check_finite(name, x) -> np.ndarray:
    """x (a multivector's coefficients, or an array) as a float array;
    DomainError naming it when a value is not finite."""
    arr = np.asarray(x.coeffs if isinstance(x, Multivector) else x, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite, got {arr}")
    return arr


def _check_unit(name, v):
    v = check_finite(name, v).reshape(3)
    if abs(g(v, v) - 1.0) > PRECONDITION_TOL:
        raise DomainError(f"{name} must be a unit vector, |{name}|^2 = {g(v, v):.12g}")
    return v


def _cosh_sinh(name, x):
    """cosh(x/2) and sinh(x/2); DomainError naming x when it is not finite
    or they overflow."""
    check_finite(name, x)
    try:
        return math.cosh(x / 2.0), math.sinh(x / 2.0)
    except OverflowError:
        raise DomainError(f"{name} = {x:g} is too large in magnitude: "
                          f"cosh({name}/2) overflows") from None


def _check_orthogonal(u, v):
    if abs(g(u, v)) > PRECONDITION_TOL:
        raise DomainError(f"u and v must be orthogonal, g(u, v) = {g(u, v):.12g}")


#: Right-multiplication tables of POINT_BASIS and of its Hodge stars: the
#: right factors of the first product of a sandwich and a star-sandwich.
_BASIS_TABLES = product_tables([b.coeffs for b in POINT_BASIS])
_STAR_BASIS_TABLES = product_tables([hodge_star(b).coeffs for b in POINT_BASIS])


def _sandwich_rows(U: Multivector, tables) -> np.ndarray:
    """U b (rev U) for each right factor b of ``tables``, as (n, 64) rows:
    two batched products, byte-identical to ``U * b * reversion(U)``."""
    return table_products(table_products(U.coeffs, tables),
                          product_tables(reversion(U).coeffs))


def _sandwich_points(U: Multivector, rows) -> np.ndarray:
    """U m (rev U) for each (n, 64) coefficient row m, as (n, 64) rows: one
    planned product of U by every row, for the grades each side carries, and
    one by the table of rev U; byte-identical to ``U * m * reversion(U)``."""
    pairs = np.empty((2 * len(rows), BLADE_COUNT))
    pairs[::2], pairs[1::2] = U.coeffs, rows
    first = _pair_products(pairs, _grade_set(U.coeffs), _grade_set(rows))
    return table_products(first, product_tables(reversion(U).coeffs))


class Transform:
    """A point transformation; concrete forms below."""

    def apply(self, p: Paravector) -> Paravector:
        """The image of one weighted point: ``apply_points`` of its one row,
        with the same bytes and errors."""
        (row,) = self.apply_points([[p.weight, *p.vector]])
        return Paravector(row[0], row[1:])

    def apply_points(self, rows) -> np.ndarray:
        """The images of the (w, x, y, z) rows of an (n, 4) array, as (n, 4)
        rows.  The stages of this module take every row through each step
        at once, and raise the error of a failing row; when several rows
        fail, it may be another row's than the first's.  Overflow warnings
        are off.  This default serves a subclass that defines only
        ``apply``: it applies one point at a time."""
        if type(self).apply is Transform.apply:
            raise NotImplementedError(
                f"{type(self).__name__} defines neither apply nor apply_points")
        rows = np.asarray(rows, dtype=np.float64).reshape(-1, 4)
        with np.errstate(over="ignore", invalid="ignore"):
            out = [self.apply(Paravector(r[0], r[1:])) for r in rows]
        return np.array([[q.weight, *q.vector] for q in out]).reshape(-1, 4)

    def images(self) -> np.ndarray:
        """The action on POINT_BASIS before extraction, as (4, 64)
        coefficients: row j is, for basis element b_j, the sandwich
        epsilon U b_j (rev U) of a Versor or the star-sandwich
        star(U' (star b_j) (rev U')) of a HodgeVersor, byte-identical to the
        products of multivectors and computed for all four rows at once from
        tables of the basis.  PerspectiveMap and Composed build their
        matrices from their stages' instead."""
        raise NotImplementedError

    def _parts(self) -> tuple | None:
        """The transforms whose ``images`` make up the matrix, or None when
        the matrix is built otherwise."""
        return (self,)

    def _assemble(self, reads) -> np.ndarray:
        """The matrix from the 4x4 reads of the images of ``_parts``."""
        (m,) = reads
        m.flags.writeable = False
        return m

    @cached_property
    def matrix(self) -> np.ndarray:
        """The 4x4 matrix of the transform on columns (w, x, y, z), read-only.

        Column j is row j of ``images`` read through extract_points, so every
        residue check of extraction runs once per stage; the sandwich and
        star-sandwich are linear in P, so a basis whose images extract
        cleanly covers every point.  Computed on first use and kept.  Raises
        DomainError when the arithmetic overflows.  A transform of several
        parts reads them in one extract_points call, which raises the error
        of the first part that fails.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            images = [t.images() for t in self._parts()]
        return self._assemble(_reads(images))


def _reads(images) -> list:
    """The 4x4 read of each (4, 64) array of ``images``, all from one
    extract_points call: each read is byte for byte what that array's own
    extraction gives.  Raises what extract_points raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        points = extract_points(np.concatenate(images))
    return [points[i:i + 4].T for i in range(0, len(points), 4)]


@dataclass(frozen=True)
class Versor(Transform):
    """A sandwich operator: multivector U, sign epsilon, and a kind tag.

    Constructed versors satisfy epsilon * U * (reversed U) = 1; for
    reflection U (reversed U) = -1 and epsilon = -1.  As a transform it maps
    P to epsilon U P (reversed U), for a batch of points in two batched
    products (``apply_points``).
    """

    U: Multivector
    epsilon: int
    kind: str

    def sandwiches(self, tables) -> np.ndarray:
        """epsilon U b (rev U) for each right factor b tabled by
        ``product_tables``, as (n, 64) rows, byte-identical to ``*``."""
        out = _sandwich_rows(self.U, tables)
        return -out if self.epsilon < 0 else out

    def images(self) -> np.ndarray:
        return self.sandwiches(_BASIS_TABLES)

    def apply_points(self, rows) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            out = _sandwich_points(self.U, embed_points(rows))
            return extract_points(-out if self.epsilon < 0 else out)


def identity_versor() -> Versor:
    return Versor(Multivector.scalar(1.0), +1, IDENTITY)


# -- generators (arguments of the exponential forms) -----------------------

def rotation_generator(u, v, theta):
    up, vp = sector_vector(u, +1), sector_vector(v, +1)
    um, vm = sector_vector(u, -1), sector_vector(v, -1)
    return (theta / 2.0) * (up * vp - um * vm)


def hyperbolic_generator(u, v, eta):
    um, vp = sector_vector(u, -1), sector_vector(v, +1)
    vm, up = sector_vector(v, -1), sector_vector(u, +1)
    return (eta / 2.0) * (um * vp + vm * up)


def shear_generator(u, v, t):
    su = sector_vector(u, +1) + sector_vector(u, -1)
    sv = sector_vector(v, +1) - sector_vector(v, -1)
    return (t / 4.0) * (su * sv)


def scale_generator(u, t):
    return (t / 2.0) * (sector_vector(u, -1) * sector_vector(u, +1))


def translation_generator(v):
    return 0.5 * embed_vector(v)


# -- construction: checked drafts, multiplied in two planned products ------

#: Kind tags of the drafts of the three transforms that are not a Versor.
COTRANSLATION = "cotranslation"
PSEUDO_PERSPECTIVE = "pseudo-perspective"
PERSPECTIVE = "perspective"


#: Which row of a 3-vector v a factor is: v+, v-, v+ + v- or v+ - v-.
_PLUS, _MINUS, _SUM, _DIFF = range(4)


class Draft(NamedTuple):
    """A transform whose preconditions hold, waiting for its products.

    ``factors`` lists the grade-1 operands of its factor products, as
    ((left vector, row), (right vector, row)) with the row one of _PLUS,
    _MINUS, _SUM, _DIFF.  ``halves`` is its closed form: for each factor
    product F the pair (a, b) of the half a + b F, so that U is the one
    half, or the product of the two.  ``epsilon`` is the sign of its
    sandwich.  A transform that needs no product is ``ready``.  ``build``
    finishes it.
    """

    kind: str
    factors: tuple = ()
    halves: tuple = ()
    epsilon: int = +1
    ready: Transform | None = None


def _draft_reflection(n):
    n = _check_unit("n", n)
    # n+ n- has no scalar term, so 0 + 1 F is F byte for byte
    return Draft(REFLECTION, (((n, _PLUS), (n, _MINUS)),), ((0.0, 1.0),), -1)


def _draft_rotation(u, v, theta):
    u = _check_unit("u", u)
    v = _check_unit("v", v)
    _check_orthogonal(u, v)
    check_finite("theta", theta)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return Draft(ROTATION, (((u, _PLUS), (v, _PLUS)), ((u, _MINUS), (v, _MINUS))),
                 ((c, s), (c, -s)))


def _draft_hyperbolic(u, v, eta):
    u = _check_unit("u", u)
    v = _check_unit("v", v)
    _check_orthogonal(u, v)
    half = _cosh_sinh("eta", eta)
    return Draft(HYPERBOLIC, (((u, _MINUS), (v, _PLUS)), ((v, _MINUS), (u, _PLUS))),
                 (half, half))


def _draft_shear(u, v, t):
    u = check_finite("u", u).reshape(3)
    v = check_finite("v", v).reshape(3)
    _check_orthogonal(u, v)
    check_finite("t", t)
    return Draft(SHEAR, (((u, _SUM), (v, _DIFF)),), ((1.0, t / 4.0),))


def _draft_scale(u, t):
    u = _check_unit("u", u)
    return Draft(SCALE, (((u, _MINUS), (u, _PLUS)),), (_cosh_sinh("t", t),))


def _draft_translation(v):
    U = 1.0 + translation_generator(check_finite("v", v))
    return Draft(TRANSLATION, ready=Versor(U, +1, TRANSLATION))


def _draft_cotranslation(v):
    return Draft(COTRANSLATION, ready=HodgeVersor(draft(TRANSLATION, v).ready.U, 1.0))


def _draft_pseudo_perspective(n):
    return draft(COTRANSLATION, _check_unit("n", n))


def _draft_perspective(eye, n, c):
    return Draft(PERSPECTIVE, ready=PerspectiveMap(eye, n, c))


_DRAFTS = {
    REFLECTION: _draft_reflection,
    ROTATION: _draft_rotation,
    HYPERBOLIC: _draft_hyperbolic,
    SHEAR: _draft_shear,
    SCALE: _draft_scale,
    TRANSLATION: _draft_translation,
    COTRANSLATION: _draft_cotranslation,
    PSEUDO_PERSPECTIVE: _draft_pseudo_perspective,
    PERSPECTIVE: _draft_perspective,
}


def draft(kind: str, *args) -> Draft:
    """Check the preconditions of one transform of ``kind`` and lay out its
    factors, with the arguments and errors of that kind's constructor
    (``rotation_versor(u, v, theta)`` for ROTATION, ``PerspectiveMap(eye,
    n, c)`` for PERSPECTIVE)."""
    return _DRAFTS[kind](*args)


#: Bit k of a blade's entry is set for a blade of grade k.
_GRADE_BITS = 1 << GRADES
#: The grades whose bits are set in each 7-bit mask; (0,) when none is.
_GRADE_SETS = tuple(tuple(k for k in range(7) if bits >> k & 1) or (0,) for bits in range(128))


def _grade_set(rows) -> tuple:
    """The grades that the nonzero coefficients of ``rows`` (one row of 64,
    or several) carry, as a key of ``_plan``; (0,) when there are none."""
    bits = np.bitwise_or.reduce(np.where(np.asarray(rows) != 0, _GRADE_BITS, 0), axis=None)
    return _GRADE_SETS[int(bits)]


@functools.lru_cache(maxsize=64)
def _plan(left: tuple, right: tuple, count: int) -> ProductPlan:
    """The plan of ``count`` products, row 2r (carrying only the grades
    ``left``) times row 2r + 1 (only ``right``).  Built on first use, so
    importing the package plans nothing, and kept in a bounded cache, since
    the step count of a pipeline has no bound."""
    return product_plan([left, right] * count, [(2 * r, 2 * r + 1, False) for r in range(count)])


def _pair_products(rows, left: tuple, right: tuple) -> np.ndarray:
    """Row 2r times row 2r + 1 of ``rows``, for every r, as (n, 64): one
    planned product, byte-identical to ``*``.  Rows that are not all finite
    go through ``*``, which keeps its NaN for every overflow.  Overflow
    warnings are off: a product that overflows keeps its non-finite
    coefficients, which the stage matrix and ``check`` report."""
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, BLADE_COUNT)
    if not len(rows):
        return rows
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(rows).all():
            pairs = zip(map(Multivector._raw, rows[::2]), map(Multivector._raw, rows[1::2]))
            return np.array([(a * b).coeffs for a, b in pairs]).reshape(-1, BLADE_COUNT)
        return planned_products(rows, _plan(left, right, len(rows) // 2))


def _half(a, b, product):
    """The half a + b F of a closed form, from the coefficients of F."""
    row = product * b
    row[0] += a
    return row


#: For each of _PLUS, _MINUS, _SUM, _DIFF: the factors of v on the plus
#: and on the minus generators.
_ROW_FACTORS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])


def _factor_rows(operands) -> np.ndarray:
    """The (n, 64) grade-1 coefficient rows of (vector, row) operands.

    Every nonzero coefficient is the one of the sector-vector arithmetic
    (v+ + v- and v+ - v- included); only the sign of a zero may differ, and
    no product sees it: a zero factor makes a zero term, which leaves a sum
    that starts from +0 unchanged.
    """
    vectors, which = zip(*operands)
    vectors = np.array(vectors)
    factors = _ROW_FACTORS[list(which)]
    rows = np.zeros((len(vectors), BLADE_COUNT))
    rows[:, PLUS_BLADES] = factors[:, :1] * vectors
    rows[:, MINUS_BLADES] = factors[:, 1:] * vectors
    return rows


def build(drafts) -> list:
    """The transforms of ``drafts``, in order, byte-identical to the closed
    forms evaluated with ``*``.

    The grade-1 x grade-1 factor products of every draft are one planned
    product; each makes a half a + b F of its draft's closed form, and the
    (0,2) x (0,2) products of the halves of each draft that has two are a
    second one.
    """
    drafts = list(drafts)
    operands = [operand for d in drafts for pair in d.factors for operand in pair]
    if not operands:
        return [d.ready for d in drafts]
    first = iter(_pair_products(_factor_rows(operands), (1,), (1,)))
    halves = [[_half(a, b, next(first)) for a, b in d.halves] for d in drafts]
    second = iter(_pair_products([row for h in halves if len(h) == 2 for row in h],
                                 (0, 2), (0, 2)))
    out = []
    for d, h in zip(drafts, halves):
        if d.ready is not None:
            out.append(d.ready)
        else:
            U = Multivector._raw(next(second) if len(h) == 2 else h[0])
            out.append(Versor(U, d.epsilon, d.kind))
    return out


def _build_one(kind, *args):
    (transform,) = build([draft(kind, *args)])
    return transform


# -- constructors (closed forms of the exponentials) -----------------------

def reflection_versor(n) -> Versor:
    """Reflection across the plane through the origin with unit normal n:
    U = n+ n-, epsilon = -1."""
    return _build_one(REFLECTION, n)


def rotation_versor(u, v, theta) -> Versor:
    """Rotation by theta in the plane of the orthonormal pair (u, v).

    The generator splits into commuting sector exponentials, each a circular
    rotor, U = (c + s u+ v+)(c - s u- v-) with c, s = cos, sin(theta/2); the
    resulting map takes v toward u for theta > 0
    (u -> cos(theta) u - sin(theta) v, v -> cos(theta) v + sin(theta) u).
    """
    return _build_one(ROTATION, u, v, theta)


def hyperbolic_versor(u, v, eta) -> Versor:
    """Hyperbolic rotation by eta in the plane of the orthonormal pair (u, v):
    U = (ch + sh u- v+)(ch + sh v- u+) with ch, sh = cosh, sinh(eta/2)."""
    return _build_one(HYPERBOLIC, u, v, eta)


def shear_versor(u, v, t) -> Versor:
    """Shear p -> p + t p_v u in the plane of the orthogonal pair (u, v).

    The generator is nilpotent, so the exponential terminates after the
    linear term: U = 1 + shear_generator(u, v, t).
    """
    return _build_one(SHEAR, u, v, t)


def scale_versor(u, t) -> Versor:
    """Non-uniform scale by e^t along the unit direction u:
    U = ch + sh u- u+ with ch, sh = cosh, sinh(t/2)."""
    return _build_one(SCALE, u, t)


def translation_versor(v) -> Versor:
    """Translation by v; the generator v/2 squares to zero."""
    return _build_one(TRANSLATION, v)


# -- application -----------------------------------------------------------

def apply_sandwich(versor: Versor, p: Paravector) -> Paravector:
    """epsilon U P (reversed U), extracted back to a weighted point.

    Residue errors propagate from extraction when the sandwich does not
    preserve the point subspace (it does for every constructed versor), and
    DomainError when the arithmetic overflows.
    """
    return versor.apply(p)


# -- Hodge-conjugate form ---------------------------------------------------

@dataclass(frozen=True)
class HodgeVersor(Transform):
    """A versor for star-sandwich application: P' = star^-1[U' (star P) (rev U')].

    For a sandwich versor U satisfying the volume-scaling condition, the
    equivalent U' is lam * (star conjugate of U) with lam > 0.
    """

    uprime: Multivector
    lam: float

    def images(self) -> np.ndarray:
        return hodge_star_rows(_sandwich_rows(self.uprime, _STAR_BASIS_TABLES))

    def apply_points(self, rows) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            stars = hodge_star_rows(embed_points(rows))
            return extract_points(hodge_star_rows(_sandwich_points(self.uprime, stars)))


def cotranslation_versor(v) -> HodgeVersor:
    """The translation versor of v packaged for star-sandwich application."""
    return _build_one(COTRANSLATION, v)


def hodge_conjugate_versor(versor: Versor) -> HodgeVersor:
    """Build the star-sandwich equivalent (lam U*, lam) of a sandwich versor.

    U* is the pseudoscalar conjugate of U, and lam^2 is read off
    (reversed U*) Omega_V U* = lam^2 Omega_V.  When the left side is not
    proportional to Omega_V (translations), raises NotHodgeCompatible with
    the offending residual magnitude attached; DomainError when the product
    or lam^2 is not finite (the arithmetic overflowed).
    """
    om = OMEGA_V.coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        ustar = star_conjugate(versor.U)
        m = reversion(ustar) * OMEGA_V * ustar
        lam2 = float(np.dot(m.coeffs, om) / np.dot(om, om))
    if not (np.isfinite(m.coeffs).all() and math.isfinite(lam2)):
        raise DomainError(f"the volume-scaling product of kind={versor.kind!r} is not "
                          "finite: the arithmetic overflowed")
    residual = m - lam2 * OMEGA_V
    worst = residual.max_abs()
    tol = tolerance(max(1.0, m.max_abs()))
    if worst > tol or lam2 <= 0.0:
        raise NotHodgeCompatible(
            f"volume-scaling condition fails for kind={versor.kind!r}: "
            f"residual {worst:.3e}, lam^2 = {lam2:.6g}", residual=worst)
    lam = math.sqrt(lam2)
    return HodgeVersor(lam * ustar, lam)


def apply_hodge_sandwich(h: HodgeVersor, p: Paravector) -> Paravector:
    """star^-1[U' (star P) (reversed U')] extracted back to a point."""
    return h.apply(p)


def apply_cotranslation(v, p: Paravector) -> Paravector:
    """star^-1[T (star P) (reversed T)] with T the translation versor of v.

    Adds g(p, v) to the weight and leaves the vector part unchanged.
    """
    return apply_hodge_sandwich(cotranslation_versor(v), p)


# -- projections ------------------------------------------------------------

def pseudo_perspective_map(n) -> HodgeVersor:
    """Pseudo-perspective as a pipeline stage: cotranslation by the unit view
    direction n.  Raises DomainError when n is not a unit vector."""
    return _build_one(PSEUDO_PERSPECTIVE, n)


def pseudo_perspective(n, p: Paravector) -> Paravector:
    """Cotranslation by the unit view direction n.

    Sends the eye point (weight 1, position -n) to the point at infinity in
    direction -n and maps a view frustum to a box.
    """
    return pseudo_perspective_map(n).apply(p)


@dataclass(frozen=True)
class PerspectiveMap(Transform):
    """Perspective from the eye onto the plane x . n = c as a pipeline stage.

    Translate p to the eye, cotranslate by n/a, translate back, with
    a = c - g(n, e).  The first step is the subtraction p - w_p * eye: the
    translation by -e with the weight dropped, since the result has weight 0
    and a translation leaves weight-0 points unchanged.  This is the linear
    map, with no orientation conjugation, so that the action has a
    well-defined 4x4 matrix.  Raises DomainError when the eye is not an
    affine point, and DegenerateConfigurationError when every component of
    n is zero (the weight row of the matrix would be zero, sending every
    point to infinity) or when the eye lies on the plane (a = 0).  The two
    versors are built once, with the stage.
    """

    eye: Paravector
    n: np.ndarray
    c: float
    a: float = field(init=False, repr=False, compare=False)
    cotranslate: HodgeVersor = field(init=False, repr=False, compare=False)
    from_eye: Versor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_finite("eye", [self.eye.weight, *self.eye.vector])
        n = check_finite("n", self.n).reshape(3)
        c = float(check_finite("c", self.c))
        e = self.eye.vector
        if abs(self.eye.weight - 1.0) > PRECONDITION_TOL:
            raise DomainError(f"eye must be an affine point, weight = {self.eye.weight:g}")
        if not n.any():
            raise DegenerateConfigurationError(
                "the plane normal n is zero: every point would go to infinity")
        a = c - g(n, e)
        if abs(a) <= tolerance(max(abs(c), float(np.max(np.abs(n))), float(np.max(np.abs(e))))):
            raise DegenerateConfigurationError(
                f"eye lies on the projection plane (c - n.e = {a:.3e})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "cotranslate", cotranslation_versor(n / a))
        object.__setattr__(self, "from_eye", translation_versor(e))

    def apply_points(self, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64).reshape(-1, 4)
        w = rows[:, :1]
        with np.errstate(over="ignore", invalid="ignore"):
            q = np.hstack((w - w * self.eye.weight, rows[:, 1:] - w * self.eye.vector))
        return self.from_eye.apply_points(self.cotranslate.apply_points(q))

    def _parts(self):
        return self.from_eye, self.cotranslate

    def _assemble(self, reads):
        """from_eye's matrix @ cotranslate's @ S, with S the to-eye step of
        ``apply_points`` in closed form (weight 1 - w_eye, column -eye); read-only.
        Raises DomainError when the arithmetic overflows."""
        from_eye, cotranslate = reads
        to_eye = np.eye(4)
        to_eye[0, 0] -= self.eye.weight
        to_eye[1:, 0] = -self.eye.vector
        with np.errstate(over="ignore", invalid="ignore"):
            m = from_eye @ cotranslate @ to_eye
        if not np.isfinite(m).all():
            raise DomainError("the perspective matrix is not finite: the arithmetic overflowed")
        m.flags.writeable = False
        return m


def perspective_project(eye: Paravector, n, c, p: Paravector) -> Paravector:
    """Perspective projection of p from the eye onto the plane x . n = c.

    The result is a weighted point on the plane whose weight is
    g(p - e, n)/a for affine p; points behind the eye come back with negative
    weight and are conjugated (vector part negated) so that their represented
    location is still the intersection with the plane.  Raises as
    PerspectiveMap does.
    """
    out = PerspectiveMap(eye, n, c).apply(p)
    if out.weight < 0.0:
        return Paravector(out.weight, -out.vector)
    return out


# -- composition ------------------------------------------------------------

@dataclass(frozen=True)
class Composed(Transform):
    """Stages applied in order.  ``apply_points`` takes a batch of points
    through each stage together; ``matrix`` is the product of the stage
    matrices, for applying the whole pipeline to many points at once."""

    stages: tuple

    def apply_points(self, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64).reshape(-1, 4)
        for stage in self.stages:
            rows = stage.apply_points(rows)
        return rows

    def _parts(self):
        return None

    @cached_property
    def matrix(self) -> np.ndarray:
        """Product of the stage matrices, the first stage rightmost; read-only.
        Raises DomainError, naming the stage, when the arithmetic overflows.

        Each stage builds its images once, in order, and the images of every
        stage are read in one extract_points call.  When that call fails,
        each stage reads its own images in turn, so the error is the one that
        stage raises alone, prefixed with its number.  An ``images`` call
        that raises ends the building; its error is raised at its stage,
        after the stages before it are read.
        """
        built = []
        for stage in self.stages:
            parts = stage._parts()
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    built.append(None if parts is None else [t.images() for t in parts])
            except ValueError as exc:
                built.append(exc)
                break
        flat = [x for b in built if isinstance(b, list) for x in b]
        try:
            reads = iter(_reads(flat)) if flat else None
        except ValueError:
            reads = None
        m = np.eye(4)
        for idx, (stage, images) in enumerate(zip(self.stages, built), start=1):
            try:
                if isinstance(images, ValueError):
                    raise images
                with np.errstate(over="ignore", invalid="ignore"):
                    if images is None:
                        m = stage.matrix @ m
                    else:
                        read = [next(reads) for _ in images] if reads else _reads(images)
                        m = stage._assemble(read) @ m
            except DomainError as exc:
                raise DomainError(f"stage {idx}: {exc}") from exc
            if not np.isfinite(m).all():
                raise DomainError(f"stage {idx}: the pipeline matrix through this stage "
                                  "is not finite: the arithmetic overflowed")
        m.flags.writeable = False
        return m


def _fused(a: Multivector, b: Multivector) -> Multivector:
    """a * b through _pair_products, planned for the grades a and b carry."""
    rows = np.concatenate((a.coeffs, b.coeffs)).reshape(2, BLADE_COUNT)
    return Multivector._raw(_pair_products(rows, _grade_set(a.coeffs), _grade_set(b.coeffs))[0])


def _append(stages, stage):
    prev = stages[-1] if stages else None
    if isinstance(stage, Versor) and isinstance(prev, Versor):
        U = _fused(stage.U, prev.U)
        return stages[:-1] + [Versor(U, stage.epsilon * prev.epsilon, COMPOSITE)]
    if isinstance(stage, HodgeVersor) and isinstance(prev, HodgeVersor):
        return stages[:-1] + [HodgeVersor(_fused(stage.uprime, prev.uprime),
                                          stage.lam * prev.lam)]
    return stages + [stage]


def compose(transforms) -> Composed:
    """Fuse a transform sequence stage by stage.

    Adjacent sandwiches fuse into one versor (U21 = U2 U1, epsilons
    multiplied); adjacent star-sandwiches fuse the same way.  Mixed
    sequences stay as a stage list, applied in order.  An empty input is the
    identity.
    """
    stages: list[Transform] = []
    for t in transforms:
        if isinstance(t, Composed):
            for s in t.stages:
                stages = _append(stages, s)
        elif isinstance(t, Transform):
            stages = _append(stages, t)
        else:
            raise TypeError(f"not a Transform: {t!r}")
    return Composed(tuple(stages))


# -- sector behavior ---------------------------------------------------------

@dataclass(frozen=True)
class SectorReport:
    """How a versor's sandwich treats points whose vector part lives in one
    generator sector: largest coefficient leaking outside each sector and the
    resulting verdicts."""

    plus_off_sector: float
    minus_off_sector: float
    preserves_plus: bool
    preserves_minus: bool

    @property
    def plus_image(self) -> str:
        return "preserved" if self.preserves_plus else "mixed"

    @property
    def minus_image(self) -> str:
        return "preserved" if self.preserves_minus else "mixed"


#: Right-multiplication tables of 1 and the six generators.
_SECTOR_TABLES = product_tables([b.coeffs for b in (ONE, *GENERATORS)])


def sector_image(versor: Versor) -> SectorReport:
    """Sandwich 1 and each of the six generators.

    The sandwich is linear, so the images of 1 and of a sector's three
    generators cover every point whose vector part lives in that sector.  A
    sector is preserved when these four images stay inside scalar + that
    sector's vector span, within tolerance.  Raises DomainError when the
    images or the scale |U|^2 of the tolerance are not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        images = np.abs(versor.sandwiches(_SECTOR_TABLES))
        scale = np.float64(versor.U.max_abs()) ** 2
    if not (np.isfinite(images).all() and np.isfinite(scale)):
        raise DomainError("the sector images are not finite: the arithmetic overflowed")
    plus = float(np.max(np.delete(images[:4], [0, *PLUS_BLADES], axis=1)))
    minus = float(np.max(np.delete(images[[0, 4, 5, 6]], [0, *MINUS_BLADES], axis=1)))
    tol = tolerance(max(1.0, float(scale)))
    return SectorReport(
        plus_off_sector=plus,
        minus_off_sector=minus,
        preserves_plus=plus <= tol,
        preserves_minus=minus <= tol,
    )
