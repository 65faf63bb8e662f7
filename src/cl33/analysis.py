"""Which operators keep points points: preservation conditions, classification
of infinitesimal generators, and 4x4 matrix extraction.

A general sandwich P -> Psi P (reversed Psi) lands back in the point subspace
only if four grade-balance conditions on the grade parts of Psi hold, the
grade 4 and 5 parts of the image vanish, and the image's vector part is free
of covector components.  The checker below evaluates all of these as explicit
residual multivectors.

The condition formulas are written once, over coefficient rows, in
``_conditions``.  Operator terms (r1, r2 and their corrections d1, d2)
depend on Psi only; probe terms (r3, r4, d3, d4) are linear in the embedded
probe p, as is the image Psi (1 + p) (reversed Psi).  Every product in them
goes through one of two batched calls of ``planned_products``: the first
holds the operator products and the products of a grade part with p, the
second everything that multiplies a result of the first.  Each call's plan
keeps only the blade pairs of the result coefficients that are read (the
correction terms read grade 4 or 5 of their products), and skips those in
which a factor is zero by grade, and the products of a grade part that no
operator of the call carries.  It is built on first use for each set of
grade parts; a call whose operand rows are not all finite takes the plan of
all seven parts.  ``paravector_conditions`` evaluates the formulas at one
probe; ``worst_residuals_of`` evaluates them for several operators at
once, at the three axes E[0..2], reads their images at POINT_BASIS
(``versors.basis_images``: the package's one sandwich routine, for each
operator a planned product and a second one, planned when its grades make
it sparse and tabled otherwise), and reaches the 12 probe points by
linearity.  The operators share the two planned products of the formulas,
laid side by side, and each keeps its own results, so ``worst_residuals``,
its case of one operator, gives every value byte for byte.  ``_layers``
puts operands and results at fixed rows, read as slices.  Every sum is added
left to right as written, never regrouped (as ``np.add.reduceat`` would) or
scaled apart, which changes last bits; only the worst values, a maximum,
come from one pass over all residuals.

Both fixed probe sets, the 12 points of ``probe_points()`` and the 10
weighted points of ``projective_matrix_probe``, are literal tables of their
seeded draws (``_PROBE_ROWS``, ``_MATRIX_PROBE_ROWS``), so that checking,
classifying or probing an operator does not load ``numpy.random``.  Only
the public ``probe_points`` and ``composed_family_report`` still draw.

For finite Psi every residual is byte for byte what the same formulas give
through ``Multivector`` products.  Psi must be finite: a non-finite operator,
or residuals that overflow, raise DomainError instead of yielding NaN.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .blades import BLADE_COUNT, GRADE_SELECTORS, INVOLUTION_SIGNS, MINUS_BLADES, PLUS_BLADES
from .errors import DomainError, NotLinearError
from .euclid import (
    E_STAR,
    POINT_BASIS_ROWS,
    Paravector,
    embed_covector,
    embed_paravector,
    embed_points,
    embed_vector,
    g,
)
from .multivector import (
    Multivector,
    grade_set,
    outer_product,
    planned_products,
    product_plan,
    reversion,
    tile_plan,
    tolerance,
)
from .versors import (
    Transform,
    basis_images,
    certifies,
    check_finite,
    sandwich_points,
)

#: Classification thresholds: residuals at or below ACCEPT_FACTOR * scale are
#: exact-to-rounding; residuals above REJECT_FACTOR * scale^2 are genuine.
#: The band in between yields an "inconclusive" verdict.
ACCEPT_FACTOR = 1e-12
REJECT_FACTOR = 1e-6

#: Names of the preservation residuals, in the order of
#: ConditionReport.residuals.
RESIDUALS = ("cond1", "cond2", "cond3", "cond4", "covector", "grade45")


def grade_parts(psi: Multivector) -> tuple[Multivector, ...]:
    """The seven homogeneous parts of psi; their sum reconstructs psi."""
    return tuple(psi.grade(k) for k in range(7))


# -- the condition formulas ---------------------------------------------------
#
# A product is written (left, "*" or "^", right) over named operand rows, with
# "2" before the left factor when the formulas only read it doubled, and then
# the one grade of its result that is read, if only one is.  Its result rows
# are named left + op + right ("P1*P5", without the 2).  The probe p has one
# row per probe, and so has every product with a factor that has.  The terms
# of two formulas alternate, so that ``_conditions`` adds a term to both at once.

#: The first layer: products whose factors are known up front.  The
#: products of d1 and d2, and of d3 and d4 below, carry the grade each
#: correction term reads (4 or 5); the other products are read whole.
_FIRST = (
    # d1 = 2 P1 P5 + 2 P2 (P4-P6) + P3 (-P3+2P5) + P4 P4 and
    # d2 = 2 P1 (P4-P6) + 2 P2 (-P3+P5) + 2 P3 P4
    ("2P1", "*", "P5", 4), ("2P1", "*", "P4-P6", 5), ("2P2", "*", "P4-P6", 4),
    ("2P2", "*", "-P3+P5", 5), ("P3", "*", "-P3+2P5", 4), ("2P3", "*", "P4", 5),
    ("P4", "*", "P4", 4),
    # r1 = 2 P0 P4 - P2^P2 - 2 P1^P3 + d1 and r2 = 2 P0 P5 + d2, then the
    # operator factors of r3 (r4 shares those of r1)
    ("2P0", "*", "P4"), ("2P0", "*", "P5"), ("P2", "^", "P2"), ("2P1", "^", "P3"),
    ("2P0", "*", "P3"), ("2P1", "^", "P2"),
    # the left products P_k p of d3 and d4, and both sides of the
    # contractions of p into P5 and P6
    ("P1", "*", "p"), ("P2", "*", "p"), ("P3", "*", "p"), ("P4", "*", "p"),
    ("p", "*", "P5"), ("p", "*", "P6"), ("iP5", "*", "p"), ("iP6", "*", "p"),
)

#: The second layer: everything that multiplies a first-layer result, which
#: it reads doubled where the first layer doubles it.  "p.P5" and "p.P6" are
#: the contractions of p into P5 and P6.
_SECOND = (
    # d3 = 2 (P1 p)(P4-P6) + 2 (P2 p)(-P3+P5) + 2 (P3 p)(P4-P6) + 2 (P4 p) P5
    # and d4 = 2 (P1 p) P5 + 2 (P2 p)(P4-P6) + (P3 p)(-P3+2P5) + (P4 p) P4
    ("2P1*p", "*", "P4-P6", 4), ("2P1*p", "*", "P5", 5), ("2P2*p", "*", "-P3+P5", 4),
    ("2P2*p", "*", "P4-P6", 5), ("2P3*p", "*", "P4-P6", 4), ("P3*p", "*", "-P3+2P5", 5),
    ("2P4*p", "*", "P5", 4), ("P4*p", "*", "P4", 5),
    # r3 = (2 P0 P3)^p - (2 P1^P2)^p + 2 P0 (p.P5) + d3 and
    # r4 = (2 P0 P4)^p - (P2^P2)^p + (2 P1^P3)^p - 2 P0 (p.P6) + d4
    ("P0*P3", "^", "p"), ("P0*P4", "^", "p"), ("P1^P2", "^", "p"), ("P2^P2", "^", "p"),
    ("2P0", "*", "p.P5"), ("P1^P3", "^", "p"), ("2P0", "*", "p.P6"),
)

#: The grade parts of an operator of every grade.
_ALL_PARTS = tuple(range(7))


def _layer(products, rows, grades):
    """The plan of one layer's products over operand rows of the given
    grades, operand ``name`` at ``rows[name]``; each result's rows, one per
    row of its factors; and each result row's factor, as a column."""
    pairs, reads, made, factors = [], [], {}, []
    for a, op, b, *read in products:
        factor, a = (2.0, a[1:]) if a[0] == "2" else (1.0, a)
        n = max(len(rows[a]), len(rows[b]))
        made[a + op + b] = np.arange(len(pairs), len(pairs) + n)
        pairs += [(rows[a][j % len(rows[a])], rows[b][j % len(rows[b])], op == "^")
                  for j in range(n)]
        reads += [read or None] * n
        factors += [factor] * n
    return product_plan(grades, pairs, reads), made, np.array(factors)[:, None]


@functools.lru_cache(maxsize=64)
def _layers(m: int, parts: tuple):
    """The two layers of ``_conditions`` at m probes, for one operator
    whose nonzero grade parts are among ``parts``: the plans, the operand
    rows of each, and the factors of their result rows (``_layer``).

    Built on first use: importing the package plans nothing.  A sum of
    parts carries those of its parts that are present.  The second layer's
    operand rows are the first's, its results, then p.P5 and p.P6.
    """
    nominal = {f"P{k}": (k,) for k in range(7)}
    nominal.update({"P4-P6": (4, 6), "-P3+P5": (3, 5), "-P3+2P5": (3, 5), "iP5": (5,), "iP6": (6,)})
    rows = {name: np.arange(k, k + 1) for k, name in enumerate(nominal)}
    rows["p"] = len(nominal) + np.arange(m)
    grades = [tuple(k for k in ks if k in parts) for ks in nominal.values()] + [(1,)] * m
    first, made, one = _layer(_FIRST, rows, grades)
    rows.update((name, len(grades) + at) for name, at in made.items())
    start = len(grades) + len(first.grades)
    rows.update({"p.P5": start + np.arange(m), "p.P6": start + m + np.arange(m)})
    sides = zip(first.grades[-4 * m:-2 * m], first.grades[-2 * m:])
    grades += list(first.grades) + [tuple(sorted(set(a + b))) for a, b in sides]
    second, _, two = _layer(_SECOND, rows, grades)
    return (first, second), (len(nominal) + m, len(grades)), (one, two)


@functools.lru_cache(maxsize=64)
def _plans(m: int, count: int, parts: tuple) -> tuple:
    """The plans of the two layers of ``_conditions`` at m probes for
    ``count`` operators: those of ``_layers(m, parts)``, each tiled
    ``count`` times (``tile_plan``).  Built on first use and kept in a
    bounded cache, since the stage count of a pipeline has no bound."""
    plans, sizes, _ = _layers(m, parts)
    if count == 1:
        return plans
    return tuple(tile_plan(plan, rows, count) for plan, rows in zip(plans, sizes))


def _evaluate(layer, rows, m, parts) -> np.ndarray:
    """The results of layer 0 or 1 of ``_conditions`` at m probes for S
    operators, shape (S, results, 64), from its operand rows, shape (S,
    rows, 64).

    The plan is that of the grade parts ``parts``, whose products by a zero
    part it drops: a finite number times zero adds a zero.  When an operand
    row is not finite, it is the plan of all seven parts instead, which
    forms every product the formulas name, so that an overflow keeps the
    NaN it has without the pruning; the operand rows of the second layer
    hold those of the first, so the second layer does the same."""
    if not np.isfinite(rows).all():
        parts = _ALL_PARTS
    plan = _plans(m, len(rows), parts)[layer]
    return planned_products(rows, plan).reshape(len(rows), -1, BLADE_COUNT)


def _conditions(P, probes):
    """The condition left-hand sides r1, r2, r3, r4 and their correction
    terms d1, d2, d3, d4 of S operators, as coefficient rows.

    ``P`` holds the grade parts of each Psi, shape (7, S, 1, 64);
    ``probes`` the embedded grade-1 probes, shape (m, 64).  For each
    operator the operator terms r1, r2, d1, d2 come out as one row, shape
    (S, 1, 64), the probe terms as one row per probe, (S, m, 64).  All S
    operators share the two planned products, planned for the grade parts
    any of them carries, and each keeps its own results: they are byte for
    byte those of the operator alone.  Every sum is the one _FIRST and
    _SECOND write, added left to right, two formulas side by side.
    """
    count, m = P.shape[1], len(probes)
    parts = grade_set(P)
    factors = _layers(m, parts)[2]
    neg3 = -1 * P[3]
    rows = np.concatenate((*P, P[4] - P[6], neg3 + P[5], neg3 + 2 * P[5],
                           *(P[5:] * INVOLUTION_SIGNS), np.repeat(probes[None], count, axis=0)),
                          axis=1)
    # rows of _FIRST's results, in order, doubled where the formulas double them
    t = _evaluate(0, rows, m, parts) * factors[0]
    # each correction term sums the one grade its products are planned for
    d12 = t[:, 0:2] + t[:, 2:4]
    d12 += t[:, 4:6]
    d12[:, :1] += t[:, 6:7]
    r1 = t[:, 7:8] - t[:, 9:10] - t[:, 10:11] + d12[:, :1]
    r2 = t[:, 8:9] + d12[:, 1:]
    # the vector contraction of p into a is (p a - (grade involution of a) p) / 2
    dots = (t[:, -4 * m:-2 * m] - t[:, -2 * m:]) * 0.5
    t = _evaluate(1, np.concatenate((rows, t, dots), axis=1), m, parts) * factors[1]
    # one entry of _SECOND's results each, all of m rows
    t = t.reshape(count, len(_SECOND), m, BLADE_COUNT)
    d34 = t[:, 0:2] + t[:, 2:4]
    d34 += t[:, 4:6]
    d34 += t[:, 6:8]
    # the scalar/grade-5 cross term completes the third condition; without it
    # operators carrying both parts (e.g. rotation composed with translation)
    # would be flagged even though their images stay points
    r34 = t[:, 8:10] - t[:, 10:12]
    r34 += t[:, 12:14]
    r34[:, 1] -= t[:, 14]
    r34 += d34
    return r1, r2, r34[:, 0], r34[:, 1], d12[:, :1], d12[:, 1:], d34[:, 0], d34[:, 1]


def _grade_rows(coeffs) -> np.ndarray:
    """The grade parts of S operators as (7, S, 1, 64) coefficient rows:
    grade k of each of the (S, 64) rows of ``coeffs``, or grade k of row k
    of (7, 1, 64) rows, the seven parts of one operator."""
    return np.where(_GRADE_ROWS[:, None], coeffs, 0.0)[:, :, None]


_OVERFLOW = ("the preservation residuals of psi overflow: its coefficients are too large "
             "in magnitude")


def _check_residuals(*values):
    if not all(np.isfinite(v).all() for v in values):
        raise DomainError(_OVERFLOW)


def correction_terms(parts, p: Multivector):
    """The four higher-grade cross terms d1..d4 entering the preservation
    conditions, as multivectors.

    ``parts`` are the grade parts of Psi and ``p`` is an embedded grade-1
    probe (ignored by the first two terms).
    """
    if not p.is_homogeneous(1, tol=tolerance(p.max_abs())):
        raise DomainError("the probe p must be of grade 1")
    rows = np.array([part.coeffs for part in parts])[:, None]
    d = _conditions(_grade_rows(rows), p.grade(1).coeffs[None])[4:]
    return tuple(Multivector._raw(x) for x in d)


#: Grade selectors as (7, 64) rows; coefficient rows of the axes E[0..2]
#: and of the covectors e_i*; the blades of grades 4 and 5.
_GRADE_ROWS = np.array([GRADE_SELECTORS[k] for k in range(7)])
_E_ROWS = POINT_BASIS_ROWS[1:]
_E_STAR_ROWS = np.array([e.coeffs for e in E_STAR])
_GRADE45 = np.flatnonzero(GRADE_SELECTORS[4] | GRADE_SELECTORS[5])


def _covector_part(images: np.ndarray) -> np.ndarray:
    """Covector components of the vector parts of (..., 64) image coefficients."""
    return (images.take(PLUS_BLADES, axis=-1) - images.take(MINUS_BLADES, axis=-1)) @ _E_STAR_ROWS


class ConditionReport(NamedTuple):
    """Residuals of the point-preservation analysis at one probe point.

    ``r1``..``r4`` are the four condition left-hand sides, which equal the
    grade-4/5 parts of Psi (rev Psi) and Psi p (rev Psi) respectively;
    ``direct4`` and ``direct5`` are the grade-4 and grade-5 parts of the
    transformed point (their sum); ``covector_residual`` collects the
    covector components of its vector part.  All must vanish for the image
    to be a point.
    """

    r1: Multivector
    r2: Multivector
    r3: Multivector
    r4: Multivector
    covector_residual: Multivector
    direct4: Multivector
    direct5: Multivector

    def residuals(self) -> tuple:
        """Largest coefficient of each residual, named as in RESIDUALS."""
        return (self.r1.max_abs(), self.r2.max_abs(), self.r3.max_abs(),
                self.r4.max_abs(), self.covector_residual.max_abs(),
                max(self.direct4.max_abs(), self.direct5.max_abs()))

    def max_residual(self) -> float:
        return max(self.residuals())


def paravector_conditions(psi: Multivector, p) -> ConditionReport:
    """Evaluate every preservation residual for Psi at the probe point p.

    The per-probe reference for ``worst_residuals``, from the same formulas.
    Raises DomainError when psi or p is not finite or a residual overflows.
    """
    check_finite("psi", psi)
    check_finite("p", p)
    pm = embed_vector(p)
    with np.errstate(over="ignore", invalid="ignore"):
        r1, r2, r3, r4 = _conditions(_grade_rows(psi.coeffs[None]), pm.coeffs[None])[:4]
        image = psi * embed_paravector(Paravector(1.0, p)) * reversion(psi)
        cov = Multivector._raw(_covector_part(image.coeffs))
    report = ConditionReport(*(Multivector._raw(x) for x in (r1, r2, r3, r4)),
                             cov, image.grade(4), image.grade(5))
    _check_residuals(report.residuals())
    return report


def probe_points(extra=8, seed=51966):
    """Deterministic probe set: the zero vector, the three axes, and
    ``extra`` seeded points with coordinates in [-1, 1]."""
    rng = np.random.default_rng(seed)
    pts = [np.zeros(3), np.eye(3)[0], np.eye(3)[1], np.eye(3)[2]]
    pts.extend(rng.uniform(-1.0, 1.0, size=3) for _ in range(extra))
    return pts


#: The probe paravectors 1 + p, p in probe_points(), as (12, 4) coordinates
#: on POINT_BASIS.  The values are those seeded draws written out, so that a
#: process that analyses an operator does not load numpy.random.
_PROBE_ROWS = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [1.0, 1.0, 0.0, 0.0],
    [1.0, 0.0, 1.0, 0.0],
    [1.0, 0.0, 0.0, 1.0],
    [1.0, 0.7899416326398052, -0.12216019380564824, 0.2389185476495468],
    [1.0, 0.16380455089941504, -0.7611377438139815, -0.7088377542264122],
    [1.0, -0.5575044914349989, -0.17545048856015444, -0.05213300443011337],
    [1.0, -0.013904674009248774, 0.9266835398743294, 0.5979339649934121],
    [1.0, -0.38699797523065804, -0.7541533569343737, 0.555170420681576],
    [1.0, -0.5895080202257983, -0.978626385639821, -0.28684868491463766],
    [1.0, 0.6831694821535703, 0.653744504909084, 0.4531757336773352],
    [1.0, -0.4746303225400961, 0.2868469017346116, -0.8489055102930554],
])
_PROBE_ROWS.flags.writeable = False
#: The embedded probe points 1 + p; and where each value of the max pass of
#: ``_residuals_and_images`` starts, per operator, in rows of 64: the whole
#: image, r1, r2, and at every probe r3, r4, the covector part, grades 4, 5.
_PROBE_POINTS = embed_points(_PROBE_ROWS)
_WORST_STARTS = np.cumsum([0, 12, 1, 1, 12, 12, 12]) * BLADE_COUNT


def worst_residuals(psi: Multivector) -> dict:
    """Worst value of each preservation residual of Psi over probe_points(),
    keyed by the names in RESIDUALS: ``worst_residuals_of([psi])[0]``.

    The operator terms are evaluated once and the probe terms at the three
    axes, then combined for every probe point; the result equals the maximum
    of ``paravector_conditions(psi, p).residuals()`` to rounding.  Raises
    DomainError when psi is not finite or a residual overflows."""
    (worst,) = worst_residuals_of([psi])
    return worst


def worst_residuals_of(psis) -> list:
    """``worst_residuals`` of each operator of ``psis``, in order.

    The condition formulas of all operators share the two planned products,
    and the images of POINT_BASIS are ``versors.basis_images``, two
    products for each operator; each operator keeps its own
    results: every value is byte for byte the one of the operator alone.
    Raises DomainError when an operator is not finite, before any product,
    or when the residuals of one overflow; the error of the first such
    operator carries its index as ``row``.
    """
    return _residuals_and_images(psis)[0]


def _residuals_and_images(psis):
    """``worst_residuals_of(psis)`` and the probe images it reads: Psi (1 +
    p) (reversed Psi) of operator s at every probe point, which the images
    of POINT_BASIS cover by linearity, are row s of an (S, 12, 64) array."""
    rows = np.array([check_finite("psi", psi) for psi in psis]).reshape(-1, BLADE_COUNT)
    if not len(rows):
        return [], []
    with np.errstate(over="ignore", invalid="ignore"):
        r1, r2, r3, r4 = _conditions(_grade_rows(rows), _E_ROWS)[:4]
        # each operator's matrix products are the 2-d ones it makes alone
        images = np.array([_PROBE_ROWS @ basis for basis in basis_images(rows)])
        r34 = np.array([(_PROBE_ROWS[:, 1:] @ a, _PROBE_ROWS[:, 1:] @ b) for a, b in zip(r3, r4)])
        covector = np.array([_covector_part(image) for image in images])
        # max is exact in any order: one pass over every operator's values,
        # the whole image first, which is finite when its largest value is
        parts = (images, r1, r2, r34, covector, images.take(_GRADE45, axis=-1))
        values = np.abs(np.concatenate([x.reshape(len(rows), -1) for x in parts], axis=1))
        worst = np.maximum.reduceat(values, _WORST_STARTS, axis=1)
        finite = np.isfinite(worst).all(axis=1)
    if not finite.all():
        exc = DomainError(_OVERFLOW)
        exc.row = int(np.argmin(finite))
        raise exc
    return [dict(zip(RESIDUALS, w)) for w in worst[:, 1:].tolist()], images


ACCEPT = "accept"
REJECT = "reject"
INCONCLUSIVE = "inconclusive"


class Classification(NamedTuple):
    verdict: str
    max_residual: float
    acts_as_identity: bool
    detail: str = ""


def classify_infinitesimal(k: int, psi: Multivector) -> Classification:
    """Decide whether 1 + 0.01 psi (psi homogeneous of grade k) preserves
    points, by evaluating the residuals over the probe set.

    Residual at rounding level: accepted (with a flag when the action is the
    identity, as for plain vector-vector bivector generators).  Residual
    clearly above rounding: rejected.  The band between the two thresholds
    reports an inconclusive verdict instead of guessing.  Raises DomainError
    when psi is not finite, k is not a grade, or a residual overflows.
    """
    check_finite("psi", psi)
    if not psi.is_homogeneous(k, tol=tolerance(psi.max_abs())):
        raise ValueError(f"psi must be homogeneous of grade {k}")
    phi = 1.0 + 0.01 * psi
    scale = max(1.0, phi.max_abs())
    (residuals,), (images,) = _residuals_and_images([phi])
    worst = max(residuals.values())
    if worst <= ACCEPT_FACTOR * scale:
        moved = np.max(np.abs(images - _PROBE_POINTS))
        identity = bool(moved <= tolerance(scale ** 2))
        return Classification(ACCEPT, worst, identity)
    if worst > REJECT_FACTOR * scale * scale:
        return Classification(REJECT, worst, False)
    return Classification(
        INCONCLUSIVE, worst, False,
        detail=f"residual {worst:.3e} falls between the accept and reject thresholds")


# -- matrices ----------------------------------------------------------------

def affine_matrix(v, a, b, eps) -> np.ndarray:
    """First-order matrix of the sandwich with (1 + eps v)(1 + eps a ^ b*):
    weight row (1,0,0,0), translation column 2 eps v, block I + eps a b^T."""
    v = np.asarray(v, dtype=np.float64).reshape(3)
    a = np.asarray(a, dtype=np.float64).reshape(3)
    b = np.asarray(b, dtype=np.float64).reshape(3)
    m = np.eye(4)
    m[1:, 0] = 2.0 * eps * v
    m[1:, 1:] += eps * np.outer(a, b)
    return m


def cotranslation_matrix(v, a, b, eps) -> np.ndarray:
    """First-order matrix of the star-sandwich with the same operator:
    weight row picks up 2 eps v, block I - eps b a^T, plus eps g(a,b) times
    the identity."""
    v = np.asarray(v, dtype=np.float64).reshape(3)
    a = np.asarray(a, dtype=np.float64).reshape(3)
    b = np.asarray(b, dtype=np.float64).reshape(3)
    m = np.eye(4)
    m[0, 1:] = 2.0 * eps * v
    m[1:, 1:] -= eps * np.outer(b, a)
    return m + eps * g(a, b) * np.eye(4)


#: The 10 weighted points of ``projective_matrix_probe``, as (10, 4) rows
#: (w, x, y, z): the draws of ``np.random.default_rng(7151)``, each row w
#: then x, y, z uniform in [-1, 1], written out as ``_PROBE_ROWS`` is.
_MATRIX_PROBE_ROWS = np.array([
    [0.07090334629322337, -0.8763246361723551, -0.20996763161780563, 0.9596171324304203],
    [0.85877387193221, 0.4755141748605882, 0.5446361560499529, 0.13560505613785057],
    [-0.4023833854275334, -0.05860644686672423, -0.6110883483913465, -0.42987146377094554],
    [0.3037649360996373, -0.37420681179160176, -0.43287499004033525, -0.09664000845908749],
    [0.7532903899447649, -0.03461241654477054, 0.3140869465513858, -0.8777461935190403],
    [-0.8133061477065102, -0.8465893399284878, 0.4502576206252591, -0.9249465166807365],
    [-0.748834702847931, -0.24540730448197445, -0.9277464341346753, -0.5136599253585221],
    [0.6703259997402398, 0.7686320174828822, -0.9585489362479529, -0.6930062534477432],
    [-0.19896197633282653, -0.016912544790342432, 0.36832495363604245, 0.6588977113791059],
    [-0.8937971314233808, -0.9504608832663457, -0.37209647584822947, -0.6244693075494636],
])
_MATRIX_PROBE_ROWS.flags.writeable = False


def _probe_limit(want: np.ndarray) -> np.ndarray:
    """The deviation the probe allows each row of ``want``: 1e-9 of its
    largest coordinate, or of 1 when that is smaller."""
    return 1e-9 * np.maximum(1.0, np.max(np.abs(want), axis=1))


def _probe_failure(transform: Transform, want: np.ndarray, rows: np.ndarray):
    """What fails when ``sandwich_points(transform, rows)`` is held to the
    probe's bound of ``want``, the rows' images under the matrix: None when
    every row lies within it, the ValueError (the family of every error of
    this package) that the call raises, or a NotLinearError for the first
    row whose deviation is not within it, NaN included."""
    try:
        got = sandwich_points(transform, rows)
    except ValueError as exc:
        return exc
    with np.errstate(over="ignore", invalid="ignore"):
        dev = np.max(np.abs(got - want), axis=1)
        failed = ~(dev <= _probe_limit(want))
    if not failed.any():
        return None
    return NotLinearError(f"transform deviates from its probe matrix by "
                          f"{dev[np.argmax(failed)]:.3e} at a random point")


def projective_matrix_probe(transform: Transform) -> np.ndarray:
    """The 4x4 matrix of a transform, ``transform.matrix`` (read off the
    basis of (weight, vector) space), verified on the 10 fixed weighted
    points of ``_MATRIX_PROBE_ROWS`` to a relative 1e-9.  Raises
    NotLinearError on mismatch, a NaN deviation included.

    The points are skipped when ``versors.certifies`` proves, from the
    componentwise rounding radii of the steps, that each lands within the
    probe's limit (``_probe_limit``) of its image under the matrix.  That
    costs two unsigned 64x64 table products per step and a few 4x4
    products over the stage matrices that ``transform.matrix`` keeps; the
    steps of ``versors`` whose values stay well inside their tolerances are
    proved so.  Otherwise (a transform of another class, a value that is
    not finite, or radii too loose to decide) the points go through
    ``sandwich_points`` in one batch, and when that fails, one at a time,
    so that the error raised is the first failing point's
    (``_probe_failure``).  Either way the matrix, the error and its text
    are the same.
    """
    m = transform.matrix
    rows = _MATRIX_PROBE_ROWS
    want = np.array([m @ row for row in rows])
    if (certifies(transform, rows, want, _probe_limit(want))
            or _probe_failure(transform, want, rows) is None):
        return m
    for i in range(len(rows)):
        failure = _probe_failure(transform, want[i:i + 1], rows[i:i + 1])
        if failure is not None:
            raise failure
    return m


# -- composed infinitesimal families ------------------------------------------

def family_two_vectors(eps, eta, v, u):
    """(1 + eps v)(1 + eta u): grades 0..2, with a vector-vector bivector."""
    return (1.0 + eps * embed_vector(v)) * (1.0 + eta * embed_vector(u))


def family_vector_mixed(eps, eta, v, a, b):
    """(1 + eps v)(1 + eta a ^ b*): grades 0..3."""
    return (1.0 + eps * embed_vector(v)) * \
        (1.0 + eta * outer_product(embed_vector(a), embed_covector(b)))


def family_two_mixed(eps, eta, u, v, a, b):
    """(1 + eps u ^ v*)(1 + eta a ^ b*): grades 0, 2, 4."""
    return (1.0 + eps * outer_product(embed_vector(u), embed_covector(v))) * \
        (1.0 + eta * outer_product(embed_vector(a), embed_covector(b)))


class FamilyResult(NamedTuple):
    family: str
    eps: float
    eta: float
    max_residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.threshold


def composed_family_report() -> list:
    """Evaluate the preservation residuals of the three composed infinitesimal
    families over the probe set, for eps and eta each 0.1 or 0.01 and three
    seeded random parameter draws per pair.

    Every family preserves points exactly, so every residual must sit at
    rounding level (1e-12 times the scale).
    """
    rng = np.random.default_rng(60221)
    results = []
    for eps in (0.1, 0.01):
        for eta in (0.1, 0.01):
            for _ in range(3):
                v, u, a, b = (rng.uniform(-1, 1, 3) for _ in range(4))
                fams = [
                    ("two-vectors", family_two_vectors(eps, eta, v, u)),
                    ("vector-and-mixed-bivector", family_vector_mixed(eps, eta, v, a, b)),
                    ("two-mixed-bivectors", family_two_mixed(eps, eta, u, v, a, b)),
                ]
                for name, psi in fams:
                    scale = (1.0 + psi.max_abs()) ** 2 * 2.0
                    worst = max(worst_residuals(psi).values())
                    results.append(FamilyResult(name, eps, eta, worst,
                                                ACCEPT_FACTOR * scale))
    return results
