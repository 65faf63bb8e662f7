"""Hodge duality with respect to the Euclidean volume trivector.

The star takes grade k to grade 3 - k and is built from contraction into
Omega_V = e1 e2 e3.  On a blade of k signed generators g_a g_b ... the value
is 2^k times the product of the generator sector signs times the successive
contraction of the factors into Omega_V (first factor innermost).  The factor
2^k compensates the 1/2 in each null contraction (e_i* . e_j = delta_ij / 2),
so that the star closes on the Euclidean exterior algebra and squares to the
identity there.
"""

from __future__ import annotations

import numpy as np

from .blades import BLADE_COUNT, GENERATOR_COUNT, GRADES, INVOLUTION_SIGNS, PRODUCT_SIGNS
from .errors import DomainError
from .multivector import Multivector, tolerance
from .euclid import OMEGA_V


def _star_table() -> np.ndarray:
    """The star on every blade of grade <= 3, as a (64, 64) matrix (columns
    of higher grades are zero).

    Column m starts as Omega_V and takes the contraction of each factor of
    m in ascending bit order.  Contracting generator g into blade b lands on
    blade b ^ g with coefficient (s(g, b) - (-1)^grade(b) s(b, g)) / 2, s
    the Cayley sign, so each factor is one signed row permutation of the
    columns holding it.
    """
    masks = np.arange(BLADE_COUNT)
    star = np.repeat(OMEGA_V.coeffs[:, None], BLADE_COUNT, axis=1)
    for bit in range(GENERATOR_COUNT):
        g = 1 << bit
        coeff = 0.5 * (PRODUCT_SIGNS[g] - INVOLUTION_SIGNS * PRODUCT_SIGNS[:, g])
        source = masks ^ g
        has = (masks & g) != 0
        star[:, has] = coeff[source, None] * star[source][:, has]
    # 2 per plus-sector factor, -2 per minus-sector factor; the zeros take
    # the sign of this scale, as they do in a product of multivectors
    scale = 2.0 ** GRADES * np.where(GRADES[masks & 0b111000] & 1, -1.0, 1.0)
    star = (star + 0.0) * scale
    star[:, GRADES > 3] = 0.0
    return star


#: The star of every blade, read-only: column m is the star of blade m.
STAR = _star_table()
STAR.setflags(write=False)

_ABOVE_3 = GRADES > 3


def hodge_star(a: Multivector) -> Multivector:
    """Euclidean Hodge star, defined on grades 0..3.

    The star is its own inverse there ((-1)^(k(3-k)) = 1 for k = 0..3), so
    it is also the star^-1 of the star-sandwich.

    Raises DomainError when the input carries grade > 3 components above
    tolerance.
    """
    return Multivector._raw(hodge_star_rows(a.coeffs[None])[0])


def hodge_star_rows(rows: np.ndarray) -> np.ndarray:
    """``hodge_star`` of each row of (n, 64) coefficients, as (n, 64) rows.

    Each row is held to the tolerance of its own largest coefficient, and
    the DomainError names the first row's residue that exceeds it.  Every row
    takes the same matrix-vector product as a single star, so the rows are
    byte-identical to ``hodge_star`` of each.
    """
    tol = tolerance(np.max(np.abs(rows), axis=1))
    worst = star_residues(rows)
    over = worst[worst > tol]
    if over.size:
        raise DomainError(
            f"hodge star is defined on grades 0..3; grade > 3 residue {over[0]:.3e}")
    return np.matmul(STAR, rows[:, :, None])[:, :, 0]


def star_residues(rows: np.ndarray) -> np.ndarray:
    """The largest grade > 3 coefficient of each of (n, 64) rows: the
    residue ``hodge_star_rows`` holds each row to."""
    return np.max(np.abs(rows[:, _ABOVE_3]), axis=1, initial=0.0)
