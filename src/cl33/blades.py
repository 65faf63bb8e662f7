"""Basis-blade arithmetic for the 64-dimensional algebra with signature (3, 3).

A basis blade is a 6-bit mask.  Bits 0..2 select the generators that square
to +1 (printed ``e1p``, ``e2p``, ``e3p``); bits 3..5 select the generators
that square to -1 (``e1m``, ``e2m``, ``e3m``).  Factors are kept in ascending
bit order, so a mask alone identifies a blade, and the product of two blades
is the XOR of their masks times a sign.
"""

from __future__ import annotations

import numpy as np

GENERATOR_COUNT = 6
BLADE_COUNT = 64

#: Squares of the six generators, indexed by bit position.
SQUARES = (1, 1, 1, -1, -1, -1)

#: Masks of the generators e1p, e2p, e3p and of e1m, e2m, e3m: the
#: coefficients of a vector over the plus and over the minus sector.
PLUS_BLADES = np.array([1 << i for i, s in enumerate(SQUARES) if s > 0])
MINUS_BLADES = np.array([1 << i for i, s in enumerate(SQUARES) if s < 0])


def grade(mask: int) -> int:
    """Number of generator factors in the blade."""
    if not 0 <= mask < BLADE_COUNT:
        raise ValueError(f"blade mask out of range: {mask}")
    return int(mask).bit_count()


def blade_factors(mask: int) -> tuple[int, ...]:
    """Bit positions of the generators present in the blade, ascending."""
    return tuple(i for i in range(GENERATOR_COUNT) if mask >> i & 1)


def blade_name(mask: int) -> str:
    if mask == 0:
        return "1"
    parts = [f"e{i % 3 + 1}{'p' if i < 3 else 'm'}" for i in blade_factors(mask)]
    return "*".join(parts)


def blade_geometric_product(a: int, b: int) -> tuple[int, int]:
    """Geometric product of two basis blades, read from the Cayley table.

    Returns ``(sign, mask)`` with ``mask = a XOR b``.
    """
    if not 0 <= a < BLADE_COUNT or not 0 <= b < BLADE_COUNT:
        raise ValueError(f"blade mask out of range: {a}, {b}")
    return int(PRODUCT_SIGNS[a, b]), a ^ b


def _sign_table(per_grade):
    return np.array([per_grade(grade(m)) for m in range(BLADE_COUNT)], dtype=np.float64)


#: Grade of each blade mask.
GRADES = np.array([grade(m) for m in range(BLADE_COUNT)], dtype=np.int64)

#: Boolean mask selecting the coefficients of each grade.
GRADE_SELECTORS = {k: GRADES == k for k in range(GENERATOR_COUNT + 1)}

#: Per-blade signs of the three involutions.
INVOLUTION_SIGNS = _sign_table(lambda k: (-1) ** k)
REVERSION_SIGNS = _sign_table(lambda k: (-1) ** (k * (k - 1) // 2))
CONJUGATION_SIGNS = INVOLUTION_SIGNS * REVERSION_SIGNS

_A = np.arange(BLADE_COUNT, dtype=np.int64)[:, None]
_B = _A.T
# generators that square to -1, as a blade mask
_MINUS = sum(1 << i for i, s in enumerate(SQUARES) if s < 0)
# Merging the ascending factor lists of a and b moves each factor of b past
# every larger factor of a: popcount((a >> k) & b) of them at distance k.
# Each shared generator then contributes its square.
_FLIPS = sum(GRADES[(_A >> k) & _B] for k in range(1, GENERATOR_COUNT)) + GRADES[_A & _B & _MINUS]

#: Cayley tables: sign and result mask of every blade pair.
PRODUCT_SIGNS = np.where(_FLIPS & 1, -1.0, 1.0)
PRODUCT_MASKS = _A ^ _B

#: Signs restricted to disjoint blade pairs (the grade-raising part of the
#: product, i.e. the exterior product on blades).
OUTER_SIGNS = np.where((_A & _B) == 0, PRODUCT_SIGNS, 0.0)

del _A, _B, _MINUS, _FLIPS
