"""Transformation versors and the two ways of applying them to points.

Sandwich transforms act as P' = epsilon U P (reversed U); reflection carries
epsilon = -1, everything else +1.  Cotranslation is the star-conjugated
sandwich P' = star^-1[T (star P) (reversed T)], which adds g(p, v) to the
weight and is the building block of perspective and pseudo-perspective.
"""

from __future__ import annotations

import functools
import math
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .blades import BLADE_COUNT, MINUS_BLADES, PLUS_BLADES, PRODUCT_MASKS, REVERSION_SIGNS
from .errors import DegenerateConfigurationError, DomainError, NotHodgeCompatible
from .euclid import (
    OMEGA_V,
    POINT_BASIS,
    POINT_BASIS_ROWS,
    POINT_BLADES,
    POINT_SCALES,
    Paravector,
    embed_points,
    embed_vector,
    embed_vectors,
    extract_points,
    point_residues,
    sector_vector,
    star_conjugate,
)
from .hodge import STAR, hodge_star, hodge_star_rows, star_residues
from .multivector import (
    GENERATORS,
    ONE,
    Frozen,
    Multivector,
    ProductPlan,
    grade_set,
    grade_support,
    planned_products,
    product_plan,
    product_tables,
    reversion,
    table_products,
    tile_plan,
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


def _vector(name, v) -> np.ndarray:
    """v as a float 3-vector; DomainError naming it when a value is not finite."""
    return check_finite(name, v).reshape(3)


def _scalar(name, x):
    """x, once check_finite has passed it."""
    check_finite(name, x)
    return x


# The checks below take what the constructors and the pipeline parser have
# already made finite float 3-vectors, so they only take dot products: the
# np.dot of euclid.g, whose value every verdict and message uses.

def _check_unit(name, v):
    norm2 = float(np.dot(v, v))
    if abs(norm2 - 1.0) > PRECONDITION_TOL:
        raise DomainError(f"{name} must be a unit vector, |{name}|^2 = {norm2:.12g}")
    return v


def _cosh_sinh(name, x):
    """cosh(x/2) and sinh(x/2) of a finite x; DomainError naming x when
    they overflow."""
    try:
        return math.cosh(x / 2.0), math.sinh(x / 2.0)
    except OverflowError:
        raise DomainError(f"{name} = {x:g} is too large in magnitude: "
                          f"cosh({name}/2) overflows") from None


def _check_orthogonal(u, v):
    dot = float(np.dot(u, v))
    if abs(dot) > PRECONDITION_TOL:
        raise DomainError(f"u and v must be orthogonal, g(u, v) = {dot:.12g}")


#: The coefficient rows of the Hodge stars of POINT_BASIS, and the grade
#: sets of POINT_BASIS_ROWS and of these: the right factors of the images of
#: a sandwich and of a star-sandwich, whose grade sets also cover every
#: embedded point, its star, and 1 and the six generators.
_STAR_BASIS_ROWS = np.array([hodge_star(b).coeffs for b in POINT_BASIS])
_BASIS_GRADES = grade_set(POINT_BASIS_ROWS)
_STAR_BASIS_GRADES = grade_set(_STAR_BASIS_ROWS)


#: Rows per block of ``sandwich_products``, which bounds its cached plans and
#: its (64, block, 64) temporary on the sandwich chain and on selftest's one
#: versor per row: the first ``sandwich_points`` of 50 000 points through a
#: fused rotation and translation takes 0.69 s with 32, 0.84 s with 64,
#: 1.09 s with 256 and 1.41 s with 1024 (116 to 174 MB peak RSS), and 7.1 s
#: and 3.1 GB all at once (min of 3 to 5, 2-vCPU x86-64).
_POINT_BLOCK = 32

#: The most blade pairs per row for which the product of U m by rev U is
#: planned; a denser one multiplies by the table of rev U.  Planned, the
#: 154 to 672 pairs of a single step's second product took 0.15 to 0.7 of
#: the table product and its build on 4 to 32 rows, and the 1953 to 4032
#: of a rotation or a fused stage 1 to 9 times the table product alone
#: (min of 5 runs of 200 calls, 2-vCPU x86-64).
_SPARSE_PAIRS = 1024


@functools.cache
def _planned_grades(left: tuple, right: tuple):
    """The grades of U m, for U carrying only the grades ``left`` and m
    only ``right``, as the plan of their product gives them, when its
    product by rev U is planned: at most _SPARSE_PAIRS blade pairs per row;
    None when it is tabled."""
    (grades,) = product_plan([left, right], [(0, 1, False)]).grades
    pairs = grade_support(grades).sum() * grade_support(left).sum()
    return grades if pairs <= _SPARSE_PAIRS else None


def sandwich_products(U, rows, grades=None) -> np.ndarray:
    """U m (rev U) for each (n, 64) coefficient row m, as (n, 64) rows, with
    U one row of 64 coefficients for every m, or (n, 64) rows, one for
    each m; byte-identical to ``U * m * reversion(U)``.

    _POINT_BLOCK rows at a time: one planned product of U by every row, for
    the grades each side carries, then the product by rev U.  ``grades``
    are the grade sets of U and of the rows when they are known (a stage
    keeps its U's, and the basis rows have theirs); a superset does.  The
    second product is planned too, over the grades of U m and of rev U,
    when that plan is sparse (``_planned_grades``); otherwise it is one
    ``table_products`` by the table of rev U, built here: once per call for
    the one U, or once per block for one U per row.  Nothing is kept
    between calls."""
    U, rows = np.asarray(U, dtype=np.float64), np.asarray(rows, dtype=np.float64)
    left, right = grades or (grade_set(U), grade_set(rows))
    middle = _planned_grades(left, right)
    rev = U * REVERSION_SIGNS
    table = product_tables(rev) if middle is None and U.ndim == 1 else None
    out = np.empty_like(rows)
    for s in range(0, len(rows), _POINT_BLOCK):
        block = rows[s:s + _POINT_BLOCK]
        u, r = (U, rev) if U.ndim == 1 else (U[s:s + _POINT_BLOCK], rev[s:s + _POINT_BLOCK])
        pairs = np.empty((2 * len(block), BLADE_COUNT))
        pairs[::2], pairs[1::2] = u, block
        first = _pair_products(pairs, left, right)
        if middle is None:
            out[s:s + _POINT_BLOCK] = table_products(
                first, product_tables(r) if table is None else table)
        else:
            pairs[::2], pairs[1::2] = first, r
            out[s:s + _POINT_BLOCK] = _pair_products(pairs, middle, left)
    return out


# -- componentwise rounding radii --------------------------------------------
#
# A sum of n products, in any order, is within gamma_n = n u / (1 - n u) of
# exact, relative to the sum of their magnitudes, with u = 2^-53 (N. J.
# Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002,
# section 3).  Coefficient k of a product a b sums +-a_i b_(i^k) over i, so
# it is within gamma_n (|a| (*) |b|)_k of exact, with n its nonzero terms and
# (*) the Cayley product with every sign +1: |a| @ |b|.take(PRODUCT_MASKS).
# That product commutes and associates, so a sandwich U m (rev U) whose two
# products sum at most k1 and k2 nonzero terms per coefficient is within
# (gamma_k1 + gamma_k2 + gamma_k1 gamma_k2) |m| (*) |U| (*) |U| of exact.

#: Relative allowance, on every bound, for the rounding of its own arithmetic.
_BOUND_SLACK = 1.0 + 2.0 ** -30
#: The floor of a radius per unit of a step's size and of |x|_1: it covers
#: underflow, with 2^25 to spare, and it is inf when a value that the step
#: computes could overflow.
_FLOOR = 2.0 ** -1020


def _gamma(n) -> float:
    u = 2.0 ** -53
    return n * u / (1.0 - n * u)


def _compound(*gammas) -> float:
    """(1 + g_1)(1 + g_2)... - 1, summed without forming 1 + g, whose
    rounding is of the order of a g of the order of u."""
    total = 0.0
    for g in gammas:
        total += g + total * g
    return total


_STAR_ABS = np.abs(STAR)
#: The rounding of a star, whose coefficients each sum at most 8 nonzero
#: terms, and the most by which the largest coefficient of a star exceeds
#: that of its argument, rounding included.
_STAR_GAMMA = _gamma(int(np.count_nonzero(STAR, axis=1).max()))
_STAR_DIVISOR = (1.0 + _STAR_GAMMA) * float(_STAR_ABS.sum(axis=1).max())
#: |POINT_BASIS_ROWS| and |STAR| |POINT_BASIS_ROWS|: the magnitudes of the
#: coefficients of an embedded point, and of its star, per unit of each of
#: its coordinates; and the blades each can hold, which bound the nonzero
#: terms of a coefficient of a first product, 7 and 20.
_POINT_MAGNITUDES = np.abs(POINT_BASIS_ROWS)
_STAR_POINT_MAGNITUDES = _POINT_MAGNITUDES @ _STAR_ABS.T
_POINT_TERMS = int(np.count_nonzero(_POINT_MAGNITUDES.any(axis=0)))
_STAR_POINT_TERMS = int(np.count_nonzero(_STAR_POINT_MAGNITUDES.any(axis=0)))
#: -1 on the minus generators, else +1: ``point_residues`` of radius rows
#: times these reads the e_i+ radius plus the e_i- one as the covector part.
_MINUS_NEGATED = np.where(np.isin(np.arange(BLADE_COUNT), MINUS_BLADES), -1.0, 1.0)


def _radius(U, images, prestar=None) -> list:
    """The componentwise rounding radius of each sandwich step with versor
    coefficients a row of the (S, 64) ``U`` and kept images of POINT_BASIS
    the matching (4, 64) block of ``images``, or of each star-sandwich step
    with the kept images ``prestar`` before their last star too, as one
    (matrix, checks, size) per step, all steps in one array computation.

    Its (4, 64) rows, row j for POINT_BASIS[j], bound, coefficient by
    coefficient, how far the computed image of POINT_BASIS[j] lies from its
    exact image under this U, and |x| @ rows how far the image of a point x
    = (w, x, y, z) that ``sandwich_points`` computes does.  A sandwich's
    products sum at most k1 = min(nnz U, 7) and k2 = nnz U nonzero terms per
    coefficient; a star-sandwich's first product at most min(nnz U, 20), and
    each star, rounded by _STAR_GAMMA, widens the bound by |STAR|.

    ``matrix`` reads the rows at the point blades: its entry (i, j) bounds
    how far entry (i, j) of the step's matrix lies from exact, up to the
    floor that ``certifies`` adds for underflow.  ``checks``
    holds (r, divisor) for each residue check of the chain's image of x:
    the residue is at most r @ |x|, the residues of the images plus twice
    the rows' on the same blades, and its tolerance at least that of L /
    divisor.  ``size``, 4 _STAR_DIVISOR (1 + |U|_1)^2, is at least four
    times every value the step computes per unit of |x|_1: a product of a
    with b is at most |a|_1 max |b|, and a star at most _STAR_DIVISOR times
    its argument.  Overflow leaves inf or NaN in them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        U = np.abs(U)
        norm = 1.0 + U.sum(axis=1)
        tables = U.take(PRODUCT_MASKS, axis=1)
        point, width = ((_POINT_MAGNITUDES, _POINT_TERMS) if prestar is None
                        else (_STAR_POINT_MAGNITUDES, _STAR_POINT_TERMS))
        before = point @ tables @ tables
        sandwich = [_compound(_gamma(min(n, width)), _gamma(n)) for n in map(np.count_nonzero, U)]
        if prestar is None:
            rows, checks = np.array(sandwich)[:, None, None] * before, []
        else:
            both = np.concatenate((prestar, before))
            res = star_residues(both.reshape(-1, BLADE_COUNT)).reshape(2, -1, 4)
            pre = np.array([_compound(_STAR_GAMMA, g) for g in sandwich])[:, None]
            checks = [(res[0] + 2.0 * pre * res[1], _STAR_DIVISOR)]
            image = np.array([_compound(_STAR_GAMMA, g, _STAR_GAMMA) for g in sandwich])
            rows = image[:, None, None] * (before @ _STAR_ABS.T)
        both = np.concatenate((images, rows * _MINUS_NEGATED))
        res = point_residues(both.reshape(-1, BLADE_COUNT)).reshape(2, -1, 4)
        checks.append((res[0] + 2.0 * res[1], 1.0))
        sizes = 4.0 * _STAR_DIVISOR * norm * norm
    matrices = rows.take(POINT_BLADES, axis=2).transpose(0, 2, 1) * POINT_SCALES[:, None]
    return [(m, [(r[s], divisor) for r, divisor in checks], size)
            for s, (m, size) in enumerate(zip(matrices, sizes))]


def _step_radii(steps) -> list:
    """``_radius`` of each Versor and HodgeVersor of ``steps``, in order, and
    None for a step of any other class: one ``_radius`` call for the
    sandwiches and one for the star-sandwiches.  It reads the images that
    each step's ``images`` keeps, so its callers read the ``matrix`` of the
    steps' transform first."""
    radii = [None] * len(steps)
    for kind in (Versor, HodgeVersor):
        chosen = [i for i, step in enumerate(steps) if type(step) is kind]
        if not chosen:
            continue
        star = kind is HodgeVersor
        U = np.array([(steps[i].uprime if star else steps[i].U).coeffs for i in chosen])
        images = np.array([steps[i]._images for i in chosen])
        prestar = np.array([steps[i]._prestar for i in chosen]) if star else None
        for i, radius in zip(chosen, _radius(U, images, prestar)):
            radii[i] = radius
    return radii


class Transform(Frozen):
    """A point transformation; concrete forms below.  A transform is
    immutable, and equal only to itself."""

    def apply(self, p: Paravector) -> Paravector:
        """The image of one weighted point: ``apply_points`` of its one row,
        with the same bytes and errors."""
        (row,) = self.apply_points([[p.weight, *p.vector]])
        return Paravector(row[0], row[1:])

    def apply_points(self, rows) -> np.ndarray:
        """The images of the (w, x, y, z) rows of an (n, 4) array, as (n, 4)
        rows: ``rows @ matrix.T``.  Raises what ``matrix`` raises, and
        DomainError, with the index of the first such row as ``row``, when an
        image is not finite.  The probe holds the matrix to ``sandwich_points``."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.asarray(rows, dtype=np.float64).reshape(-1, 4) @ self.matrix.T
        finite = np.isfinite(out).all(axis=1)
        if not finite.all():
            exc = DomainError("the transformed point is not finite: the arithmetic overflowed")
            exc.row = int(np.argmin(finite))
            raise exc
        return out

    def images(self) -> np.ndarray:
        """The action on POINT_BASIS of each of the transform's k versors
        before extraction, as (4k, 64) coefficients: row j of a versor's
        four is, for basis element b_j, the sandwich epsilon U b_j (rev U)
        of a Versor or the star-sandwich star(U' (star b_j) (rev U')) of a
        HodgeVersor, byte-identical to the products of multivectors and
        computed for all four rows at once by ``sandwich_products``."""
        raise NotImplementedError

    def _assemble(self, points) -> np.ndarray:
        """The matrix from the (4k, 4) points extracted from ``images``."""
        m = points.T
        m.flags.writeable = False
        return m

    def _keep(self, points) -> np.ndarray:
        """``_assemble(points)``, kept as the transform's ``matrix``: a
        Composed's matrix keeps its stages'."""
        m = self.__dict__["matrix"] = self._assemble(points)
        return m

    @cached_property
    def matrix(self) -> np.ndarray:
        """The 4x4 matrix of the transform on columns (w, x, y, z), read-only.

        It is assembled from the rows of ``images`` read through one
        extract_points call, so every residue check of extraction runs on
        every versor; the sandwich and star-sandwich are linear in P, so a
        basis whose images extract cleanly covers every point.  Column j of
        a single versor's matrix is its row j.  Computed on first use and
        kept.  Raises what extract_points raises: DomainError when the
        arithmetic overflows.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            return self._assemble(extract_points(self.images()))


class Versor(Transform):
    """A sandwich operator: multivector U, sign epsilon, and a kind tag.

    epsilon * U * (reversed U) = 1 holds for a reflection (U (reversed U) =
    -1, epsilon = -1), rotation, hyperbolic rotation, shear and scale; not
    for a translation, whose product is 1 + embed_vector(v), nor for a fused
    stage that contains one.  Its matrix is read off P -> epsilon U P
    (reversed U), which ``sandwich_points`` takes a batch of points through
    in two batched products.  It keeps the grade set of U, and no table of rev
    U: ``sandwich_products`` builds one per call when it needs one.
    """

    _fields = ("U", "epsilon", "kind")

    def __init__(self, U: Multivector, epsilon: int, kind: str):
        self.__dict__.update(U=U, epsilon=epsilon, kind=kind)

    @cached_property
    def _grades(self) -> tuple:
        """The grade set of U, kept for the stage's images and points."""
        return grade_set(self.U.coeffs)

    def sandwiches(self, rows) -> np.ndarray:
        """epsilon U m (rev U) for each (n, 64) coefficient row m in the span
        of 1 and the six generators, as every embedded point, basis row and
        sector row is, as (n, 64) rows, byte-identical to ``*``."""
        out = sandwich_products(self.U.coeffs, rows, (self._grades, _BASIS_GRADES))
        return -out if self.epsilon < 0 else out

    def images(self) -> np.ndarray:
        """Read-only, and kept as ``_images`` for ``certifies``."""
        out = self.__dict__["_images"] = self.sandwiches(POINT_BASIS_ROWS)
        out.flags.writeable = False
        return out

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

    A draft makes one versor U, or is made of ``parts``, drafts that each
    make one.  ``factors`` lists the grade-1 operands of its factor
    products, as ((left vector, row), (right vector, row)) with the row one
    of _PLUS, _MINUS, _SUM, _DIFF.  A translation has no factor product: its
    F is the embedded ``vector``.  ``halves`` is its closed form: for each F
    the pair (a, b) of the half a + b F, so that U is the one half, or the
    product of the two.  ``epsilon`` is the sign of its sandwich; a ``star``
    draft (a cotranslation: the translation of its vector) makes the
    star-sandwich HodgeVersor(U, 1).  A draft made of parts (a perspective)
    is ``finish`` of their transforms, in order.  ``build`` finishes it.
    """

    kind: str
    factors: tuple = ()
    halves: tuple = ()
    epsilon: int = +1
    vector: np.ndarray | None = None
    star: bool = False
    parts: tuple = ()
    finish: Callable | None = None


def _draft_reflection(n):
    _check_unit("n", n)
    # n+ n- has no scalar term, so 0 + 1 F is F byte for byte
    return Draft(REFLECTION, (((n, _PLUS), (n, _MINUS)),), ((0.0, 1.0),), -1)


def _draft_rotation(u, v, theta):
    _check_unit("u", u)
    _check_unit("v", v)
    _check_orthogonal(u, v)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return Draft(ROTATION, (((u, _PLUS), (v, _PLUS)), ((u, _MINUS), (v, _MINUS))),
                 ((c, s), (c, -s)))


def _draft_hyperbolic(u, v, eta):
    _check_unit("u", u)
    _check_unit("v", v)
    _check_orthogonal(u, v)
    half = _cosh_sinh("eta", eta)
    return Draft(HYPERBOLIC, (((u, _MINUS), (v, _PLUS)), ((v, _MINUS), (u, _PLUS))),
                 (half, half))


def _draft_shear(u, v, t):
    _check_orthogonal(u, v)
    return Draft(SHEAR, (((u, _SUM), (v, _DIFF)),), ((1.0, t / 4.0),))


def _draft_scale(u, t):
    _check_unit("u", u)
    return Draft(SCALE, (((u, _MINUS), (u, _PLUS)),), (_cosh_sinh("t", t),))


def _draft_translation(v):
    # U = 1 + translation_generator(v): the half 1 + 0.5 F of F = embed_vector(v)
    return Draft(TRANSLATION, halves=((1.0, 0.5),), vector=v)


def _draft_cotranslation(v):
    return draft(TRANSLATION, v)._replace(kind=COTRANSLATION, star=True)


def _draft_pseudo_perspective(n):
    return draft(COTRANSLATION, _check_unit("n", n))


def _draft_perspective(eye, n, c):
    if abs(eye.weight - 1.0) > PRECONDITION_TOL:
        raise DomainError(f"eye must be an affine point, weight = {eye.weight:g}")
    if not n.any():
        raise DegenerateConfigurationError(
            "the plane normal n is zero: every point would go to infinity")
    e = eye.vector
    # an overflowing g(n, e) leaves a not finite: the stage matrix reports it
    with np.errstate(over="ignore", invalid="ignore"):
        a = c - float(np.dot(n, e))
    if abs(a) <= tolerance(max(abs(c), float(np.abs(n).max()), float(np.abs(e).max()))):
        raise DegenerateConfigurationError(
            f"eye lies on the projection plane (c - n.e = {a:.3e})")
    return Draft(PERSPECTIVE, parts=(draft(TRANSLATION, e), draft(COTRANSLATION, n / a)),
                 finish=functools.partial(PerspectiveMap._of, eye, n, c, a))


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
    factors, with the arguments and messages of that kind's constructor
    (``rotation_versor(u, v, theta)`` for ROTATION, ``PerspectiveMap(eye,
    n, c)`` for PERSPECTIVE).  The arguments are already finite: each
    vector a float array of shape (3,), each number a real, and the eye a
    Paravector; the constructors check and convert them first, the
    pipeline parser as it reads them."""
    return _DRAFTS[kind](*args)


@functools.lru_cache(maxsize=64)
def _plan(left: tuple, right: tuple, count: int) -> ProductPlan:
    """The plan of ``count`` products, row 2r (carrying only the grades
    ``left``) times row 2r + 1 (only ``right``): the plan of one pair,
    tiled.  Built on first use, so importing the package plans nothing, and
    kept in a bounded cache, since the step count of a pipeline has no bound."""
    return tile_plan(product_plan([left, right], [(0, 1, False)]), 2, count)


def _pair_products(rows, left: tuple, right: tuple) -> np.ndarray:
    """Row 2r times row 2r + 1 of ``rows``, for every r, as (n, 64): one
    planned product, byte-identical to ``*``.  Rows that are not all finite
    are planned over every grade, as ``*`` takes them, so an overflow keeps
    its NaN.  Overflow warnings are off: a product that overflows keeps its
    non-finite coefficients, which the stage matrix and ``check`` report."""
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, BLADE_COUNT)
    if not len(rows):
        return rows
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(rows).all():
            left = right = tuple(range(7))  # every grade: the 4096 pairs of *
        return planned_products(rows, _plan(left, right, len(rows) // 2))


#: For each of _PLUS, _MINUS, _SUM, _DIFF: the factors of v on the plus
#: and on the minus generators, as (2, 1) columns.
_ROW_FACTORS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])[:, :, None]
#: The blades of the plus generators, then of the minus generators.
_SECTOR_BLADES = np.concatenate((PLUS_BLADES, MINUS_BLADES))


def _factor_rows(operands) -> np.ndarray:
    """The (n, 64) grade-1 coefficient rows of (vector, row) operands.

    Every nonzero coefficient is the one of the sector-vector arithmetic
    (v+ + v- and v+ - v- included); only the sign of a zero may differ, and
    no product sees it: a zero factor makes a zero term, which leaves a sum
    that starts from +0 unchanged.
    """
    if not operands:
        return np.empty((0, BLADE_COUNT))
    vectors, which = zip(*operands)
    copies = _ROW_FACTORS.take(which, axis=0) * np.array(vectors)[:, None]
    rows = np.zeros((len(vectors), BLADE_COUNT))
    rows[:, _SECTOR_BLADES] = copies.reshape(-1, 6)
    return rows


def build(drafts) -> list:
    """The transforms of ``drafts``, in order, byte-identical to the closed
    forms evaluated with ``*``.

    The grade-1 x grade-1 factor products of every draft are one planned
    product, and the translation vectors of every draft are embedded in one
    ``embed_vectors`` call; each F makes a half a + b F of its draft's
    closed form, all halves in one array expression, and the (0,2) x (0,2)
    products of the halves of each draft that has two are a second planned
    product.  A perspective is finished from the versors of its two parts.
    """
    drafts = list(drafts)
    leaves = [leaf for d in drafts for leaf in (d.parts or (d,))]
    # the versors of two halves first, then those of one, translations last
    order = sorted(range(len(leaves)),
                   key=lambda i: (-len(leaves[i].halves), leaves[i].vector is not None))
    ranked = [leaves[i] for i in order]
    operands = [operand for d in ranked for pair in d.factors for operand in pair]
    vectors = [d.vector for d in ranked if d.vector is not None]
    F = np.concatenate((_pair_products(_factor_rows(operands), (1,), (1,)),
                        embed_vectors(np.array(vectors).reshape(-1, 3))))
    a, b = np.array([half for d in ranked for half in d.halves]).reshape(-1, 2).T
    halves = F * b[:, None]
    halves[:, 0] += a
    pairs = 2 * sum(len(d.halves) == 2 for d in ranked)
    rows = np.concatenate((_pair_products(halves[:pairs], (0, 2), (0, 2)), halves[pairs:]))
    versors = [None] * len(leaves)
    for i, d, U in zip(order, ranked, Multivector._raw_rows(rows)):
        versors[i] = HodgeVersor(U, 1.0) if d.star else Versor(U, d.epsilon, d.kind)
    versors = iter(versors)
    return [d.finish(*(next(versors) for _ in d.parts)) if d.parts else next(versors)
            for d in drafts]


def _build_one(kind, *args):
    (transform,) = build([draft(kind, *args)])
    return transform


# -- constructors (closed forms of the exponentials) -----------------------

def reflection_versor(n) -> Versor:
    """Reflection across the plane through the origin with unit normal n:
    U = n+ n-, epsilon = -1."""
    return _build_one(REFLECTION, _vector("n", n))


def rotation_versor(u, v, theta) -> Versor:
    """Rotation by theta in the plane of the orthonormal pair (u, v).

    The generator splits into commuting sector exponentials, each a circular
    rotor, U = (c + s u+ v+)(c - s u- v-) with c, s = cos, sin(theta/2); the
    resulting map takes v toward u for theta > 0
    (u -> cos(theta) u - sin(theta) v, v -> cos(theta) v + sin(theta) u).
    """
    return _build_one(ROTATION, _vector("u", u), _vector("v", v), _scalar("theta", theta))


def hyperbolic_versor(u, v, eta) -> Versor:
    """Hyperbolic rotation by eta in the plane of the orthonormal pair (u, v):
    U = (ch + sh u- v+)(ch + sh v- u+) with ch, sh = cosh, sinh(eta/2)."""
    return _build_one(HYPERBOLIC, _vector("u", u), _vector("v", v), _scalar("eta", eta))


def shear_versor(u, v, t) -> Versor:
    """Shear p -> p + t p_v u in the plane of the orthogonal pair (u, v).

    The generator is nilpotent, so the exponential terminates after the
    linear term: U = 1 + shear_generator(u, v, t).
    """
    return _build_one(SHEAR, _vector("u", u), _vector("v", v), _scalar("t", t))


def scale_versor(u, t) -> Versor:
    """Non-uniform scale by e^t along the unit direction u:
    U = ch + sh u- u+ with ch, sh = cosh, sinh(t/2)."""
    return _build_one(SCALE, _vector("u", u), _scalar("t", t))


def translation_versor(v) -> Versor:
    """Translation by v; the generator v/2 squares to zero."""
    return _build_one(TRANSLATION, _vector("v", v))


# -- application -----------------------------------------------------------

def apply_sandwich(versor: Versor, p: Paravector) -> Paravector:
    """epsilon U P (reversed U), extracted back to a weighted point.

    Residue errors propagate from extraction when the sandwich does not
    preserve the point subspace (it does for every constructed versor), and
    DomainError when the arithmetic overflows.
    """
    return versor.apply(p)


# -- Hodge-conjugate form ---------------------------------------------------

class HodgeVersor(Transform):
    """A versor for star-sandwich application: P' = star^-1[U' (star P) (rev U')].

    For a sandwich versor U satisfying the volume-scaling condition, the
    equivalent U' is lam * (star conjugate of U) with lam > 0.  Like a
    Versor, it keeps the grade set of U' and no table of rev U'.
    """

    _fields = ("uprime", "lam")

    def __init__(self, uprime: Multivector, lam: float):
        self.__dict__.update(uprime=uprime, lam=lam)

    @cached_property
    def _grades(self) -> tuple:
        """The grade set of U', kept for the stage's images and points."""
        return grade_set(self.uprime.coeffs)

    def sandwiches(self, rows) -> np.ndarray:
        """U' m (rev U') for each (n, 64) coefficient row m in the span of
        the stars of POINT_BASIS, as (n, 64) rows: the star-sandwich before
        its stars."""
        return sandwich_products(self.uprime.coeffs, rows, (self._grades, _STAR_BASIS_GRADES))

    def images(self) -> np.ndarray:
        """Read-only, and kept as ``_images`` for ``certifies``, with
        the images before their star, U' (star b) (rev U') for each b of
        POINT_BASIS, as ``_prestar``."""
        before = self.__dict__["_prestar"] = self.sandwiches(_STAR_BASIS_ROWS)
        before.flags.writeable = False
        out = self.__dict__["_images"] = hodge_star_rows(before)
        out.flags.writeable = False
        return out

def cotranslation_versor(v) -> HodgeVersor:
    """The translation versor of v packaged for star-sandwich application."""
    return _build_one(COTRANSLATION, _vector("v", v))


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
    return _build_one(PSEUDO_PERSPECTIVE, _vector("n", n))


def pseudo_perspective(n, p: Paravector) -> Paravector:
    """Cotranslation by the unit view direction n.

    Sends the eye point (weight 1, position -n) to the point at infinity in
    direction -n and maps a view frustum to a box.
    """
    return pseudo_perspective_map(n).apply(p)


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
    versors are built once, with the stage: by ``build`` of its draft, which
    lays them out as translation rows beside every other versor of a
    pipeline.
    """

    _fields = ("eye", "n", "c")

    def __init__(self, eye: Paravector, n: np.ndarray, c: float):
        check_finite("eye", [eye.weight, *eye.vector])
        n = _vector("n", n)
        c = float(check_finite("c", c))
        (built,) = build([draft(PERSPECTIVE, eye, n, c)])
        self.__dict__.update(vars(built))

    @classmethod
    def _of(cls, *values) -> "PerspectiveMap":
        """The stage of checked values of _PERSPECTIVE_FIELDS, in order,
        without checking them: ``build`` finishes a perspective draft so."""
        stage = object.__new__(cls)
        for name, value in zip(_PERSPECTIVE_FIELDS, values):
            object.__setattr__(stage, name, value)
        return stage

    def images(self) -> np.ndarray:
        """from_eye's four images, then cotranslate's four."""
        return np.concatenate((self.from_eye.images(), self.cotranslate.images()))

    @cached_property
    def to_eye(self) -> np.ndarray:
        """S, the to-eye step of ``sandwich_points`` in closed form: weight
        1 - w_eye, column -eye; read-only."""
        s = np.eye(4)
        s[0, 0] -= self.eye.weight
        s[1:, 0] = -self.eye.vector
        s.flags.writeable = False
        return s

    def _assemble(self, points):
        """from_eye's matrix @ cotranslate's @ ``to_eye``, read-only; the
        two versors keep theirs.  Raises DomainError when the arithmetic
        overflows."""
        from_eye = self.from_eye._keep(points[:4])
        cotranslate = self.cotranslate._keep(points[4:])
        with np.errstate(over="ignore", invalid="ignore"):
            m = from_eye @ cotranslate @ self.to_eye
        if not np.isfinite(m).all():
            raise DomainError("the perspective matrix is not finite: the arithmetic overflowed")
        m.flags.writeable = False
        return m


#: The fields of a PerspectiveMap in the order of ``_of``'s values.
_PERSPECTIVE_FIELDS = ("eye", "n", "c", "a", "from_eye", "cotranslate")


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

class Composed(Transform):
    """Stages applied in order: ``matrix`` is the product of the stage
    matrices, which ``apply_points`` applies to a batch of points at once."""

    _fields = ("stages",)

    def __init__(self, stages: tuple):
        self.__dict__["stages"] = stages

    @cached_property
    def matrix(self) -> np.ndarray:
        """Product of the stage matrices, the first stage rightmost; read-only.

        Each stage builds its images once, in order, until an ``images``
        call raises, and all are read in one extract_points call, whose
        failing row names the failing stage.  The stages before it are
        assembled, each keeping its matrix as its ``matrix`` (a
        perspective keeps its two versors' too); then its error is raised:
        a DomainError (overflow) prefixed with the stage number, any other
        error unchanged.  No step's radius is computed here.  The kept
        matrices let ``certifies`` carry the steps' radii through the
        stages without building images again, so that ``cl33 matrix`` skips
        its probe points when the radii prove they pass and takes them
        through the sandwich chain otherwise, with the same output either
        way.
        """
        images, failure = [], None
        with np.errstate(over="ignore", invalid="ignore"):
            for stage in self.stages:
                try:
                    images.append(stage.images())
                except ValueError as exc:
                    failure = exc
                    break
            rows = np.concatenate(images) if images else np.empty((0, BLADE_COUNT))
            bounds = np.cumsum([0, *map(len, images)])
            try:
                points = extract_points(rows)
            except ValueError as exc:
                failure = exc
                bounds = bounds[:np.searchsorted(bounds, exc.row, side="right")]
                points = extract_points(rows[:bounds[-1]])
            m = np.eye(4)
            for idx, (stage, start, end) in enumerate(zip(self.stages, bounds, bounds[1:]),
                                                      start=1):
                try:
                    m = stage._keep(points[start:end]) @ m
                except DomainError as exc:
                    raise DomainError(f"stage {idx}: {exc}") from exc
                if not np.isfinite(m).all():
                    raise DomainError(f"stage {idx}: the pipeline matrix through this stage "
                                      "is not finite: the arithmetic overflowed")
        if isinstance(failure, DomainError):
            raise DomainError(f"stage {len(bounds)}: {failure}") from failure
        if failure is not None:
            raise failure
        m.flags.writeable = False
        return m


def _linear_steps(transform) -> list:
    """The linear steps of ``transform``, in order: the stages of a Composed
    in turn, and a PerspectiveMap itself (its to-eye step), then its
    cotranslate and from_eye.  Classes match exactly; any other is one step."""
    if type(transform) is Composed:
        return [step for stage in transform.stages for step in _linear_steps(stage)]
    if type(transform) is PerspectiveMap:
        return [transform, transform.cotranslate, transform.from_eye]
    return [transform]


def sandwich_points(transform: Transform, rows) -> np.ndarray:
    """The (n, 4) images of (w, x, y, z) rows through the sandwich chain of
    the ``_linear_steps``, every row at once; a step of a class not defined
    here is its own ``apply_points``.  The reference the probe and selftest
    hold ``matrix`` to: it evaluates no ``matrix`` and no radius, and
    raises the error of a failing row, not always the first's."""
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in _linear_steps(transform):
            if type(step) is Versor:
                rows = extract_points(step.sandwiches(embed_points(rows)))
            elif type(step) is HodgeVersor:
                stars = hodge_star_rows(embed_points(rows))
                rows = extract_points(hodge_star_rows(step.sandwiches(stars)))
            elif type(step) is PerspectiveMap:
                w = rows[:, :1]
                rows = np.hstack((w - w * step.eye.weight, rows[:, 1:] - w * step.eye.vector))
            else:
                rows = step.apply_points(rows)
    return rows


_GAMMA_2, _GAMMA_4 = _gamma(2), _gamma(4)
_IDENTITY = np.eye(4)
#: The largest coefficient of an image is at least L of its point's
#: coordinates divided by these: a vector coordinate is twice its blade's.
_POINT_DIVISORS = np.array([1.0, 2.0, 2.0, 2.0])[:, None]


def certifies(transform: Transform, rows, want, limit) -> bool:
    """Whether the componentwise rounding radii of the steps prove, without
    taking a point through them, that ``sandwich_points(transform, rows)``
    raises nothing and returns rows each within its ``limit`` of the same
    row of ``want`` in every coordinate (J. R. Shewchuk, *Discrete Comput.
    Geom.* 18, 1997: a filter that proves a predicate or leaves it to the
    exact test).  False for a step of a class not defined here, a ``want``
    that is not finite, a residue too close to its tolerance, or a radius
    that is not finite (a value that could overflow), which fails every
    comparison.

    It reads ``transform.matrix`` first, raising what that raises, so that
    every step keeps its matrix and images.  A center goes through the step
    matrices, and at each step a radius takes in what the step's matrix
    does to the radius so far, the rounding of the center's product, the
    matrix of the step's radius (``_step_radii``) twice, once for its
    matrix's columns and once for the chain's own image, and a floor of
    _FLOOR per unit of the step's size and of 1 + |x|_1.  A perspective's
    to-eye step has an exact matrix, and the chain rounds its two
    operations by gamma_2.  Each residue check of the step's radius is held
    to its tolerance on the worst point of the bounds.  Then |center -
    want| + radius, widened by _BOUND_SLACK, must lie within ``limit`` row
    by row.  Computes the steps' radii, which nothing keeps.
    """
    steps = _linear_steps(transform)
    if (any(type(step) not in (Versor, HodgeVersor, PerspectiveMap) for step in steps)
            or not np.isfinite(want).all()):
        return False
    transform.matrix  # every step keeps its matrix and images
    center = np.array(rows, dtype=np.float64).reshape(-1, 4).T
    radius = np.zeros_like(center)
    # every check is made once, at the end: a value that overflows turns
    # every later one to inf or NaN, which fails its comparison
    worst, magnitudes = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for step, step_radius in zip(steps, _step_radii(steps)):
            if type(step) is PerspectiveMap:
                m, checks = step.to_eye, ()
                shift = np.abs(m - _IDENTITY)
                chain, size = _GAMMA_2 * (_IDENTITY + shift), 4.0 * (1.0 + shift.max())
            else:
                m, (chain, checks, size) = step.matrix, step_radius
                chain = 2.0 * chain
            magnitude = np.abs(center)
            upper = magnitude + radius
            floor = (1.0 + upper.sum(axis=0)) * size * _FLOOR
            center = m @ center
            radius = (np.abs(m) @ (radius + _GAMMA_4 * magnitude) + chain @ upper
                      + floor) * _BOUND_SLACK
            low = np.max(np.maximum(np.abs(center) - radius, 0.0) / _POINT_DIVISORS, axis=0)
            for residues, divisor in checks:
                worst.append(residues @ upper + floor)
                magnitudes.append(low / divisor)
        if not np.all(np.array(worst) * _BOUND_SLACK <= tolerance(np.array(magnitudes))):
            return False
        dev = np.max(np.abs(center.T - want) + radius.T, axis=1) * _BOUND_SLACK
        return bool(np.all(dev <= limit))


def _append(stages, stage):
    prev = stages[-1] if stages else None
    if isinstance(stage, Versor) and isinstance(prev, Versor):
        stages[-1] = Versor(stage.U * prev.U, stage.epsilon * prev.epsilon, COMPOSITE)
    elif isinstance(stage, HodgeVersor) and isinstance(prev, HodgeVersor):
        stages[-1] = HodgeVersor(stage.uprime * prev.uprime, stage.lam * prev.lam)
    else:
        stages.append(stage)


def compose(transforms) -> Composed:
    """Fuse a transform sequence stage by stage.

    Adjacent sandwiches fuse into one versor, the geometric product of
    theirs (U21 = U2 * U1, epsilons multiplied); adjacent star-sandwiches
    fuse the same way (U'21 = U'2 * U'1, lams multiplied).  Mixed
    sequences stay as a stage list, applied in order.  An empty input is the
    identity.
    """
    stages: list[Transform] = []
    # a fused versor that overflows keeps its non-finite coefficients, which
    # the stage matrix and ``check`` report
    with np.errstate(over="ignore", invalid="ignore"):
        for t in transforms:
            if not isinstance(t, Transform):
                raise TypeError(f"not a Transform: {t!r}")
            for s in t.stages if isinstance(t, Composed) else (t,):
                _append(stages, s)
    return Composed(tuple(stages))


# -- sector behavior ---------------------------------------------------------

class SectorReport(NamedTuple):
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


#: The coefficient rows of 1 and the six generators.
_SECTOR_ROWS = np.array([b.coeffs for b in (ONE, *GENERATORS)])


def sector_image(versor: Versor) -> SectorReport:
    """Sandwich 1 and each of the six generators.

    The sandwich is linear, so the images of 1 and of a sector's three
    generators cover every point whose vector part lives in that sector.  A
    sector is preserved when these four images stay inside scalar + that
    sector's vector span, within tolerance.  Raises DomainError when the
    images or the scale |U|^2 of the tolerance are not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        images = np.abs(versor.sandwiches(_SECTOR_ROWS))
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
