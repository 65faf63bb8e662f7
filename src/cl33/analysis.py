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
skips the blade pairs in which a factor is zero by grade, and is built on
first use.  ``paravector_conditions`` evaluates the formulas at one probe;
``worst_residuals`` evaluates them at the three axes E[0..2], reads the
image at POINT_BASIS (``Versor.images``), and reaches the 12 probe points by
linearity.

For finite Psi every residual is byte for byte what the same formulas give
through ``Multivector`` products.  Psi must be finite: a non-finite operator,
or residuals that overflow, raise DomainError instead of yielding NaN.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .blades import GRADE_SELECTORS, INVOLUTION_SIGNS, MINUS_BLADES, PLUS_BLADES
from .errors import DomainError, NotLinearError
from .euclid import (
    E,
    E_STAR,
    POINT_BASIS,
    Paravector,
    embed_covector,
    embed_paravector,
    embed_vector,
    g,
)
from .multivector import (
    Multivector,
    outer_product,
    planned_products,
    product_plan,
    reversion,
    tolerance,
)
from .versors import COMPOSITE, Transform, Versor, check_finite

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
# A product is written (left, "*" or "^", right) over named operand rows.
# The operands of the first layer are the grade parts P0..P6 of Psi, the sums
# of them that are right factors, the grade involutions iP5 and iP6, and the
# probe p.  Operands named in _PER_PROBE have one row per probe, and so has
# every product with such a factor.

#: The first layer: products whose factors are known up front.
_FIRST = (
    # d1 and d2
    ("P1", "*", "P5"), ("P2", "*", "P4-P6"), ("P3", "*", "-P3+2P5"), ("P4", "*", "P4"),
    ("P1", "*", "P4-P6"), ("P2", "*", "-P3+P5"), ("P3", "*", "P4"),
    # r1 and r2, then the operator factors of r3 (r4 shares those of r1)
    ("P0", "*", "P4"), ("P2", "^", "P2"), ("P1", "^", "P3"), ("P0", "*", "P5"),
    ("P0", "*", "P3"), ("P1", "^", "P2"),
    # the left products P_k p of d3 and d4, and both sides of the
    # contractions of p into P5 and P6
    ("P1", "*", "p"), ("P2", "*", "p"), ("P3", "*", "p"), ("P4", "*", "p"),
    ("p", "*", "P5"), ("iP5", "*", "p"), ("p", "*", "P6"), ("iP6", "*", "p"),
)

#: The second layer: everything that multiplies a first-layer result.
#: "P1p" is P1 p, "p.P5" the contraction of p into P5, "2P0P3" is 2 (P0 P3).
_SECOND = (
    # d3 and d4
    ("P1p", "*", "P4-P6"), ("P2p", "*", "-P3+P5"), ("P3p", "*", "P4-P6"), ("P4p", "*", "P5"),
    ("P1p", "*", "P5"), ("P2p", "*", "P4-P6"), ("P3p", "*", "-P3+2P5"), ("P4p", "*", "P4"),
    # r3 and r4
    ("2P0P3", "^", "p"), ("2P1^P2", "^", "p"), ("P0", "*", "p.P5"),
    ("2P0P4", "^", "p"), ("P2^P2", "^", "p"), ("2P1^P3", "^", "p"), ("P0", "*", "p.P6"),
)

_PER_PROBE = frozenset({"p", "P1p", "P2p", "P3p", "P4p", "p.P5", "p.P6"})


def _layer(products, grades, m):
    """One layer at m probes: its product plan, its operand names in row
    order, and the row slice of each product's results."""
    names = list(dict.fromkeys(n for a, _, b in products for n in (a, b)))
    sizes = [m if n in _PER_PROBE else 1 for n in names]
    start = dict(zip(names, np.cumsum([0] + sizes).tolist()))
    pairs, slices = [], {}
    for a, op, b in products:
        rows = m if _PER_PROBE & {a, b} else 1
        slices[a, op, b] = slice(len(pairs), len(pairs) + rows)
        pairs += [(start[a] + j * (a in _PER_PROBE), start[b] + j * (b in _PER_PROBE), op == "^")
                  for j in range(rows)]
    row_grades = [grades[n] for n, size in zip(names, sizes) for _ in range(size)]
    return product_plan(row_grades, pairs), names, slices


@functools.cache
def _layers(m: int):
    """The two layers of ``_conditions`` at m probes.

    Built on first use, like ``_probe_rows``: importing the package plans
    nothing.  The grades of a second-layer operand are those of the
    first-layer products it is made of.
    """
    grades = {f"P{k}": (k,) for k in range(7)}
    grades.update({"P4-P6": (4, 6), "-P3+P5": (3, 5), "-P3+2P5": (3, 5),
                   "iP5": (5,), "iP6": (6,), "p": (1,)})
    first = _layer(_FIRST, grades, m)
    made = {key: first[0].grades[rows.start] for key, rows in first[2].items()}
    grades.update({f"P{k}p": made[f"P{k}", "*", "p"] for k in range(1, 5)})
    grades.update({"2P0P3": made["P0", "*", "P3"], "2P1^P2": made["P1", "^", "P2"],
                   "2P0P4": made["P0", "*", "P4"], "P2^P2": made["P2", "^", "P2"],
                   "2P1^P3": made["P1", "^", "P3"]})
    for k in (5, 6):
        sides = made["p", "*", f"P{k}"] + made[f"iP{k}", "*", "p"]
        grades[f"p.P{k}"] = tuple(sorted(set(sides)))
    return first, _layer(_SECOND, grades, m)


def _evaluate(layer, operands) -> dict:
    """Results of one layer, keyed by product, from its named operand rows."""
    plan, names, slices = layer
    out = planned_products(np.concatenate([operands[n] for n in names]), plan)
    return {key: out[rows] for key, rows in slices.items()}


def _grade(rows, k):
    return np.where(GRADE_SELECTORS[k], rows, 0.0)


def _conditions(P, probes):
    """The condition left-hand sides r1, r2, r3, r4 and their correction
    terms d1, d2, d3, d4, as coefficient rows.

    ``P`` holds the grade parts of Psi, shape (7, 1, 64); ``probes`` the
    embedded grade-1 probes, shape (m, 64).  The operator terms r1, r2, d1,
    d2 come out as one row, the probe terms as one row per probe.
    """
    first, second = _layers(len(probes))
    iP = P * INVOLUTION_SIGNS
    ops = {f"P{k}": P[k] for k in range(7)}
    ops.update({"P4-P6": P[4] - P[6], "-P3+P5": -1 * P[3] + P[5],
                "-P3+2P5": -1 * P[3] + 2 * P[5], "iP5": iP[5], "iP6": iP[6], "p": probes})
    one = _evaluate(first, ops)
    d1 = (2 * _grade(one["P1", "*", "P5"], 4) + 2 * _grade(one["P2", "*", "P4-P6"], 4)
          + _grade(one["P3", "*", "-P3+2P5"], 4) + _grade(one["P4", "*", "P4"], 4))
    d2 = (2 * _grade(one["P1", "*", "P4-P6"], 5) + 2 * _grade(one["P2", "*", "-P3+P5"], 5)
          + 2 * _grade(one["P3", "*", "P4"], 5))
    ops.update({f"P{k}p": one[f"P{k}", "*", "p"] for k in range(1, 5)})
    ops.update({"2P0P3": 2 * one["P0", "*", "P3"], "2P1^P2": 2 * one["P1", "^", "P2"],
                "2P0P4": 2 * one["P0", "*", "P4"], "P2^P2": one["P2", "^", "P2"],
                "2P1^P3": 2 * one["P1", "^", "P3"]})
    # the vector contraction of p into a is (p a - (grade involution of a) p) / 2
    for k in (5, 6):
        ops[f"p.P{k}"] = (one["p", "*", f"P{k}"] - one[f"iP{k}", "*", "p"]) * 0.5
    r1 = ops["2P0P4"] - ops["P2^P2"] - ops["2P1^P3"] + d1
    r2 = 2 * one["P0", "*", "P5"] + d2
    two = _evaluate(second, ops)
    d3 = (2 * _grade(two["P1p", "*", "P4-P6"], 4) + 2 * _grade(two["P2p", "*", "-P3+P5"], 4)
          + 2 * _grade(two["P3p", "*", "P4-P6"], 4) + 2 * _grade(two["P4p", "*", "P5"], 4))
    d4 = (2 * _grade(two["P1p", "*", "P5"], 5) + 2 * _grade(two["P2p", "*", "P4-P6"], 5)
          + _grade(two["P3p", "*", "-P3+2P5"], 5) + _grade(two["P4p", "*", "P4"], 5))
    # the scalar/grade-5 cross term completes the third condition; without it
    # operators carrying both parts (e.g. rotation composed with translation)
    # would be flagged even though their images stay points
    r3 = (two["2P0P3", "^", "p"] - two["2P1^P2", "^", "p"]
          + 2 * two["P0", "*", "p.P5"] + d3)
    r4 = (two["2P0P4", "^", "p"] - two["P2^P2", "^", "p"] + two["2P1^P3", "^", "p"]
          - 2 * two["P0", "*", "p.P6"] + d4)
    return r1, r2, r3, r4, d1, d2, d3, d4


def _grade_rows(coeffs) -> np.ndarray:
    """Grade k of row k of ``coeffs`` (one row for all seven grades, or
    seven rows), as (7, 1, 64) coefficient rows."""
    return np.where(_GRADE_ROWS, coeffs, 0.0)[:, None]


def _check_residuals(*values):
    if not all(np.isfinite(v).all() for v in values):
        raise DomainError("the preservation residuals of psi overflow: its coefficients "
                          "are too large in magnitude")


def correction_terms(parts, p: Multivector):
    """The four higher-grade cross terms d1..d4 entering the preservation
    conditions, as multivectors.

    ``parts`` are the grade parts of Psi and ``p`` is an embedded grade-1
    probe (ignored by the first two terms).
    """
    if not p.is_homogeneous(1, tol=tolerance(p.max_abs())):
        raise DomainError("the probe p must be of grade 1")
    d = _conditions(_grade_rows([part.coeffs for part in parts]), p.grade(1).coeffs[None])[4:]
    return tuple(Multivector._raw(x) for x in d)


#: Grade selectors as (7, 64) rows; coefficient rows of the axes E[0..2]
#: and of the covectors e_i*; the blades of grades 4 and 5.
_GRADE_ROWS = np.array([GRADE_SELECTORS[k] for k in range(7)])
_E_ROWS = np.array([e.coeffs for e in E])
_E_STAR_ROWS = np.array([e.coeffs for e in E_STAR])
_GRADE45 = GRADE_SELECTORS[4] | GRADE_SELECTORS[5]


def _covector_part(images: np.ndarray) -> np.ndarray:
    """Covector components of the vector parts of (..., 64) image coefficients."""
    return (images[..., PLUS_BLADES] - images[..., MINUS_BLADES]) @ _E_STAR_ROWS


@dataclass(frozen=True)
class ConditionReport:
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
        r1, r2, r3, r4 = _conditions(_grade_rows(psi.coeffs), pm.coeffs[None])[:4]
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


@functools.cache
def _probe_rows() -> np.ndarray:
    """The probe paravectors 1 + p, p in probe_points(), as (12, 4)
    coordinates on POINT_BASIS.

    Built on first use: probe_points() loads numpy.random, which costs
    memory and import time in processes that never analyse an operator.
    """
    probes = np.array(probe_points())
    rows = np.column_stack((np.ones(len(probes)), probes))
    rows.flags.writeable = False
    return rows


def _probe_images(psi: Multivector) -> np.ndarray:
    """Psi (1 + p) (reversed Psi) at every probe point, as (12, 64)
    coefficients: the sandwich is linear in 1 + p, so the images of
    POINT_BASIS cover all probes."""
    return _probe_rows() @ Versor(psi, +1, COMPOSITE).images()


def worst_residuals(psi: Multivector) -> dict:
    """Worst value of each preservation residual of Psi over probe_points(),
    keyed by the names in RESIDUALS.

    The operator terms are evaluated once and the probe terms at the three
    axes, then combined for every probe point; the result equals the maximum
    of ``paravector_conditions(psi, p).residuals()`` to rounding.  Raises
    DomainError when psi is not finite or a residual overflows."""
    return _residuals_and_images(psi)[0]


def _residuals_and_images(psi: Multivector):
    """``worst_residuals(psi)`` and the ``_probe_images(psi)`` it reads."""
    check_finite("psi", psi)
    with np.errstate(over="ignore", invalid="ignore"):
        r1, r2, r3, r4 = _conditions(_grade_rows(psi.coeffs), _E_ROWS)[:4]
        probes = _probe_rows()[:, 1:]
        images = _probe_images(psi)
        worst = (np.max(np.abs(r1)), np.max(np.abs(r2)), np.max(np.abs(probes @ r3)),
                 np.max(np.abs(probes @ r4)), np.max(np.abs(_covector_part(images))),
                 np.max(np.abs(images[:, _GRADE45])))
    _check_residuals(worst, images)
    return dict(zip(RESIDUALS, map(float, worst))), images


ACCEPT = "accept"
REJECT = "reject"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Classification:
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
    residuals, images = _residuals_and_images(phi)
    worst = max(residuals.values())
    if worst <= ACCEPT_FACTOR * scale:
        basis = np.array([b.coeffs for b in POINT_BASIS])
        moved = np.max(np.abs(images - _probe_rows() @ basis))
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


@functools.cache
def _matrix_probe_rows() -> np.ndarray:
    """The 10 seeded weighted points of ``projective_matrix_probe``, as
    (10, 4) rows (w, x, y, z); built on first use, as ``_probe_rows`` is."""
    rng = np.random.default_rng(7151)
    rows = np.array([[rng.uniform(-1, 1), *rng.uniform(-1, 1, 3)] for _ in range(10)])
    rows.flags.writeable = False
    return rows


def _probe_passes(transform: Transform, m: np.ndarray, rows: np.ndarray) -> bool:
    """Whether ``transform.apply_points(rows)`` lies within the probe's bound
    of ``m`` at every row.  False when it raises a ValueError (the family of
    every error of this package) or a deviation is NaN, so that the
    reference decides every such case."""
    want = np.array([m @ row for row in rows])
    try:
        got = transform.apply_points(rows)
        with np.errstate(over="ignore", invalid="ignore"):
            dev = np.max(np.abs(got - want), axis=1)
            return bool(np.all(dev <= 1e-9 * np.maximum(1.0, np.max(np.abs(want), axis=1))))
    except ValueError:
        return False


def projective_matrix_probe(transform: Transform) -> np.ndarray:
    """The 4x4 matrix of a transform, ``transform.matrix`` (read off the
    basis of (weight, vector) space), verified on 10 seeded random weighted
    points to a relative 1e-9.  Raises NotLinearError on mismatch.

    The points go through ``transform.apply_points`` in one batch.  When
    the batch raises or a point deviates, the points go through ``apply``,
    the batch of one, one at a time, which raises the error of the first
    point that fails.
    """
    m = transform.matrix
    rows = _matrix_probe_rows()
    if _probe_passes(transform, m, rows):
        return m
    for row in rows:
        p = Paravector(row[0], row[1:])
        got = transform.apply(p)
        want = m @ row
        dev = max(abs(got.weight - want[0]), float(np.max(np.abs(got.vector - want[1:]))))
        scale = max(1.0, float(np.max(np.abs(want))))
        if dev > 1e-9 * scale:
            raise NotLinearError(
                f"transform deviates from its probe matrix by {dev:.3e} at a random point")
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


@dataclass(frozen=True)
class FamilyResult:
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
