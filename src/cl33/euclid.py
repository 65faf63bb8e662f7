"""The Euclidean model inside the algebra.

A 3-vector v embeds as v = (v+ + v-)/2, where v+ and v- are the copies of v
over the plus and minus generator sectors; the matching covector is
v* = (v+ - v-)/2.  Embedded vectors are null (v^2 = 0) and satisfy
v v* + v* v = |v|^2.  A point with weight w at position p is the paravector
w + p.
"""

from __future__ import annotations

import numpy as np

from .blades import BLADE_COUNT, GRADES, MINUS_BLADES, PLUS_BLADES
from .errors import CovectorResidue, DomainError, NonParavectorResidue
from .multivector import ATOL, ONE, RTOL, GENERATORS, Frozen, Multivector, tolerance

_HIGH_GRADE_BLADES = np.flatnonzero(GRADES >= 2)
#: The blades a point is read from, and their factors: w is the scalar
#: part and p_i twice the e_i+ coefficient.
POINT_BLADES = np.array([0, *PLUS_BLADES])
POINT_SCALES = np.array([1.0, 2.0, 2.0, 2.0])

_EP = GENERATORS[:3]
_EM = GENERATORS[3:]


def _vec3(v) -> np.ndarray:
    """A read-only copy of the 3-vector ``v``."""
    arr = np.array(v, dtype=np.float64).reshape(3)
    arr.flags.writeable = False
    return arr


#: Coefficient rows of the generators, (2, 3, 64): plus sector, minus sector.
_GENERATOR_ROWS = np.array([[e.coeffs for e in _EP], [e.coeffs for e in _EM]])


def _sector_copies(v) -> np.ndarray:
    """Coefficients of v+ and v- of the 3-vectors of ``v`` (shape (..., 3)),
    as (..., 2, 64) arrays.

    Each row is the generator sum v0 g0 + v1 g1 + v2 g2 computed as array
    arithmetic in the same order, so every coefficient, signed zeros
    included, is the one the multivector sum gives.
    """
    t = np.asarray(v, dtype=np.float64)[..., None, :, None] * _GENERATOR_ROWS
    return t[..., 0, :] + t[..., 1, :] + t[..., 2, :]


def sector_vector(v, sector: int) -> Multivector:
    """The copy of the 3-vector over one generator sector: v+ or v-."""
    return Multivector._raw(_sector_copies(_vec3(v))[0 if sector > 0 else 1])


def embed_vectors(vectors) -> np.ndarray:
    """The (n, 64) coefficient rows (v+ + v-)/2 of the 3-vectors of an
    (n, 3) array, each byte for byte ``embed_vector`` of its row."""
    copies = _sector_copies(vectors)
    return (copies[:, 0] + copies[:, 1]) * 0.5


def embed_vector(v) -> Multivector:
    """v = (v+ + v-)/2; squares to zero."""
    return Multivector._raw(embed_vectors(_vec3(v)[None])[0])


def embed_covector(v) -> Multivector:
    """v* = (v+ - v-)/2."""
    plus, minus = _sector_copies(_vec3(v))
    return Multivector._raw((plus - minus) * 0.5)


#: Embedded basis vectors e_i and covectors e_i*.
E = tuple(embed_vector(np.eye(3)[i]) for i in range(3))
E_STAR = tuple(embed_covector(np.eye(3)[i]) for i in range(3))

#: The embedded basis 1, e1, e2, e3 of (weight, vector) space.  A linear
#: point map is fixed by its images of these four.
POINT_BASIS = (ONE, *E)
#: The coefficient rows of POINT_BASIS, (4, 64), read-only.
POINT_BASIS_ROWS = np.array([b.coeffs for b in POINT_BASIS])
POINT_BASIS_ROWS.flags.writeable = False

#: Sector pseudoscalars and the full volume element.
I_PLUS = _EP[0] * _EP[1] * _EP[2]
I_MINUS = _EM[0] * _EM[1] * _EM[2]
I_FULL = I_PLUS * I_MINUS

#: Euclidean volume trivector e1 e2 e3 (equal to the signed sector sum / 8).
OMEGA_V = E[0] * E[1] * E[2]

_I_PLUS_INV = -I_PLUS  # (I+)^2 = -1


def star_conjugate(a: Multivector) -> Multivector:
    """Conjugation by the plus-sector pseudoscalar: A -> I+ A (I+)^-1.

    Sends embedded vectors to their covectors and vice versa (up to sign);
    defined for arbitrary multivectors.
    """
    return I_PLUS * a * _I_PLUS_INV


class Paravector(Frozen):
    """A weighted point: weight w plus position 3-vector p.

    Affine points have w = 1.  A weight-0 paravector is the point at infinity
    in the direction of its vector part.  Negative weights flip orientation:
    the location of (w, p) is p/w for w > 0 and p/|w| for w < 0.  Equal
    points have equal weights and vectors; a point is unhashable, since it
    compares by value.  The vector is the point's own read-only copy, so no
    alias of the array it was made from can change the point.
    """

    def __init__(self, weight: float, vector=(0.0, 0.0, 0.0)):
        self.__dict__.update(weight=float(weight), vector=_vec3(vector))

    def __eq__(self, other):
        if not isinstance(other, Paravector):
            return NotImplemented
        return self.weight == other.weight and np.array_equal(self.vector, other.vector)

    def __sub__(self, other: "Paravector") -> "Paravector":
        return Paravector(self.weight - other.weight, self.vector - other.vector)

    @property
    def is_at_infinity(self) -> bool:
        return bool(at_infinity(self.weight, self.vector))

    def location(self) -> np.ndarray:
        """Represented position: p/w for w > 0, p/|w| for w < 0."""
        if self.is_at_infinity:
            raise ZeroDivisionError("point at infinity has no finite location")
        return self.vector / abs(self.weight)

    def approx_eq(self, other: "Paravector", atol=ATOL, rtol=RTOL) -> bool:
        a = np.concatenate(([self.weight], self.vector))
        b = np.concatenate(([other.weight], other.vector))
        return bool(np.all(np.abs(a - b) <= atol + rtol * np.maximum(np.abs(a), np.abs(b))))

    def __repr__(self):
        x, y, z = self.vector
        return f"Paravector(w={self.weight:g}, p=({x:g}, {y:g}, {z:g}))"


def at_infinity(weight, vector):
    """Whether weighted points lie at infinity: |w| <= tolerance(max |p_i|).

    ``weight`` has shape (...) and ``vector`` shape (..., 3); the result is a
    boolean of the weight's shape, so one call tests a whole (N, 4) array as
    ``at_infinity(rows[:, 0], rows[:, 1:])``.
    """
    return np.abs(weight) <= tolerance(np.max(np.abs(vector), axis=-1, initial=0.0))


def embed_paravector(p: Paravector) -> Multivector:
    """w + embedded vector."""
    return p.weight + embed_vector(p.vector)


def embed_points(rows) -> np.ndarray:
    """The (n, 64) coefficient rows of (n, 4) weighted points (w, x, y, z):
    w on the scalar blade and p_i/2 on the e_i+ and e_i- blades.

    Every nonzero coefficient is the one ``embed_paravector`` gives; only
    the sign of a zero may differ, which no product sees (a zero term
    leaves a sum that starts from +0 unchanged).
    """
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 4)
    out = np.zeros((len(rows), BLADE_COUNT))
    out[:, 0] = rows[:, 0]
    out[:, PLUS_BLADES] = out[:, MINUS_BLADES] = rows[:, 1:] * 0.5
    return out


def extract_paravector(a: Multivector) -> Paravector:
    """Read a weighted point back out of a multivector: extract_points of
    its coefficients as one row, with the same errors."""
    (point,) = extract_points(a.coeffs[None])
    return Paravector(point[0], point[1:])


def _residue_parts(rows, mags):
    """The two residues that ``extract_points`` holds (n, 64) coefficient
    rows to, given ``mags``, their magnitudes, as two (n,) arrays: the
    largest magnitude of each row's grade >= 2 coefficients, and of the
    differences of its e_i+ and e_i- coefficients."""
    with np.errstate(over="ignore", invalid="ignore"):
        covector = np.abs(rows.take(PLUS_BLADES, 1) - rows.take(MINUS_BLADES, 1)).max(axis=1)
    return mags.take(_HIGH_GRADE_BLADES, 1).max(axis=1), covector


def point_residues(rows) -> np.ndarray:
    """The residue ``extract_points`` holds each of (n, 64) coefficient rows
    to, as (n,): the larger of its two ``_residue_parts``.  A row that is
    not finite gives NaN or inf."""
    rows = np.asarray(rows)
    return np.maximum(*_residue_parts(rows, np.abs(rows)))


def extract_points(rows) -> np.ndarray:
    """Read weighted points back out of (n, 64) coefficient rows, as (n, 4)
    rows (w, x, y, z).

    The weight is the scalar part and p_i is twice the e_i+ coefficient.
    Each row is held to the tolerance of its own largest coefficient, and
    the first row that fails raises: DomainError when a coefficient is not
    finite (the arithmetic that produced it overflowed), NonParavectorResidue
    when a grade >= 2 coefficient exceeds the tolerance, and CovectorResidue
    when the e_i+ and e_i- coefficients disagree (the vector part then
    contains a covector component).  Every error carries the index of that
    row as ``row``, and a residue error the row's offending magnitude as
    ``residual``.
    """
    rows = np.asarray(rows)
    mags = np.abs(rows)
    high, covector = _residue_parts(rows, mags)
    # inf or NaN exactly for the rows that hold a coefficient that is not finite
    tol = tolerance(mags.max(axis=1))
    passed = (np.maximum(high, covector) <= tol) & (tol < np.inf)
    if not passed.all():
        i = int(np.argmin(passed))
        if not tol[i] < np.inf:
            exc = DomainError("the extracted point is not finite: the arithmetic overflowed")
        elif high[i] > tol[i]:
            exc = NonParavectorResidue(
                f"grade >= 2 residue {high[i]:.3e} exceeds tolerance {tol[i]:.3e}",
                residual=float(high[i]))
        else:
            exc = CovectorResidue(
                f"covector residue {covector[i]:.3e} exceeds tolerance {tol[i]:.3e}",
                residual=float(covector[i]))
        exc.row = i
        raise exc
    return rows.take(POINT_BLADES, 1) * POINT_SCALES


def normalize_point(p: Paravector) -> Paravector:
    """Rescale to unit |weight|, preserving orientation.

    (w, p) becomes (sign(w), p/|w|); weight-0 inputs (points at infinity)
    are returned unchanged.
    """
    if p.is_at_infinity:
        return p
    s = 1.0 if p.weight > 0 else -1.0
    return Paravector(s, p.vector / abs(p.weight))


def g(u, v) -> float:
    """Euclidean metric on coordinate 3-vectors."""
    return float(np.dot(_vec3(u), _vec3(v)))
