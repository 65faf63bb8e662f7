"""Which operators keep points points: preservation conditions, classification
of infinitesimal generators, and 4x4 matrix extraction.

A general sandwich P -> Psi P (reversed Psi) lands back in the point subspace
only if four grade-balance conditions on the grade parts of Psi hold, the
grade 4 and 5 parts of the image vanish, and the image's vector part is free
of covector components.  The checker below evaluates all of these as explicit
residual multivectors.

The condition formulas come in two kinds, each written once: operator terms
(r1, r2 and their corrections d1, d2) depend on Psi only, and probe terms
(r3, r4, d3, d4) are linear in the embedded probe p, as is the image
Psi (1 + p) (reversed Psi).  ``paravector_conditions`` evaluates both kinds at
one probe and is the reference.  ``worst_residuals`` evaluates the operator
terms once, the probe terms at the three axes E[0..2] and the image at
POINT_BASIS (``Versor.images``), and reaches every probe point by one array
product per residual.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .blades import GRADE_SELECTORS
from .errors import NotLinearError
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
    reversion,
    tolerance,
    vector_contract,
)
from .versors import COMPOSITE, Transform, Versor

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


def _operator_terms(P):
    """r1, r2 and their correction terms d1, d2: functions of the grade parts
    P of Psi alone."""
    g4 = lambda m: m.grade(4)
    g5 = lambda m: m.grade(5)
    d1 = (2 * g4(P[1] * P[5]) + 2 * g4(P[2] * (P[4] - P[6]))
          + g4(P[3] * (-1 * P[3] + 2 * P[5])) + g4(P[4] * P[4]))
    d2 = (2 * g5(P[1] * (P[4] - P[6])) + 2 * g5(P[2] * (-1 * P[3] + P[5]))
          + 2 * g5(P[3] * P[4]))
    r1 = 2 * (P[0] * P[4]) - outer_product(P[2], P[2]) - 2 * outer_product(P[1], P[3]) + d1
    r2 = 2 * (P[0] * P[5]) + d2
    return r1, r2, d1, d2


def _probe_terms(P, p: Multivector):
    """r3, r4 and their correction terms d3, d4: linear in the embedded
    grade-1 probe p."""
    g4 = lambda m: m.grade(4)
    g5 = lambda m: m.grade(5)
    d3 = (2 * g4(P[1] * p * (P[4] - P[6])) + 2 * g4(P[2] * p * (-1 * P[3] + P[5]))
          + 2 * g4(P[3] * p * (P[4] - P[6])) + 2 * g4(P[4] * p * P[5]))
    d4 = (2 * g5(P[1] * p * P[5]) + 2 * g5(P[2] * p * (P[4] - P[6]))
          + g5(P[3] * p * (-1 * P[3] + 2 * P[5])) + g5(P[4] * p * P[4]))
    # the scalar/grade-5 cross term completes the third condition; without it
    # operators carrying both parts (e.g. rotation composed with translation)
    # would be flagged even though their images stay points
    r3 = (outer_product(2 * (P[0] * P[3]), p)
          - outer_product(2 * outer_product(P[1], P[2]), p)
          + 2 * (P[0] * vector_contract(p, P[5])) + d3)
    r4 = (outer_product(2 * (P[0] * P[4]), p)
          - outer_product(outer_product(P[2], P[2]), p)
          + outer_product(2 * outer_product(P[1], P[3]), p)
          - 2 * (P[0] * vector_contract(p, P[6])) + d4)
    return r3, r4, d3, d4


def correction_terms(parts, p: Multivector):
    """The four higher-grade cross terms entering the preservation conditions.

    ``parts`` are the grade parts of Psi and ``p`` is an embedded grade-1
    probe (ignored by the first two terms).
    """
    return _operator_terms(parts)[2:] + _probe_terms(parts, p)[2:]


#: Coefficient rows of the covectors e_i*, and the blades of grades 4 and 5.
_E_STAR_ROWS = np.array([e.coeffs for e in E_STAR])
_GRADE45 = GRADE_SELECTORS[4] | GRADE_SELECTORS[5]


def _covector_part(images: np.ndarray) -> np.ndarray:
    """Covector components of the vector parts of (..., 64) image coefficients."""
    return (images[..., [1, 2, 4]] - images[..., [8, 16, 32]]) @ _E_STAR_ROWS


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

    The per-probe reference for ``worst_residuals``, built from the same
    operator and probe terms."""
    parts = grade_parts(psi)
    r1, r2, _, _ = _operator_terms(parts)
    r3, r4, _, _ = _probe_terms(parts, embed_vector(p))
    image = psi * embed_paravector(Paravector(1.0, p)) * reversion(psi)
    cov = Multivector._raw(_covector_part(image.coeffs))
    return ConditionReport(r1, r2, r3, r4, cov, image.grade(4), image.grade(5))


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
    of ``paravector_conditions(psi, p).residuals()`` to rounding."""
    return _residuals_and_images(psi)[0]


def _residuals_and_images(psi: Multivector):
    """``worst_residuals(psi)`` and the ``_probe_images(psi)`` it reads."""
    parts = grade_parts(psi)
    r1, r2, _, _ = _operator_terms(parts)
    axes = [_probe_terms(parts, e) for e in E]
    probes = _probe_rows()[:, 1:]
    r3 = probes @ np.array([t[0].coeffs for t in axes])
    r4 = probes @ np.array([t[1].coeffs for t in axes])
    images = _probe_images(psi)
    worst = (r1.max_abs(), r2.max_abs(), np.max(np.abs(r3)), np.max(np.abs(r4)),
             np.max(np.abs(_covector_part(images))), np.max(np.abs(images[:, _GRADE45])))
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
    reports an inconclusive verdict instead of guessing.
    """
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


def projective_matrix_probe(transform: Transform) -> np.ndarray:
    """The 4x4 matrix of a transform, ``transform.matrix`` (read off the
    basis of (weight, vector) space), verified against ``transform.apply``
    on 10 seeded random weighted points to a relative 1e-9.  Raises
    NotLinearError on mismatch.
    """
    m = transform.matrix
    rng = np.random.default_rng(7151)
    for _ in range(10):
        p = Paravector(rng.uniform(-1, 1), rng.uniform(-1, 1, 3))
        got = transform.apply(p)
        want = m @ np.concatenate(([p.weight], p.vector))
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
