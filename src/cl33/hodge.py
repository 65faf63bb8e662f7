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

from .blades import BLADE_COUNT, GRADES, blade_factors
from .errors import DomainError
from .multivector import GENERATORS, Multivector, tolerance, vector_contract
from .euclid import OMEGA_V


def _star_of_blade(mask: int) -> Multivector:
    out = OMEGA_V
    scale = 1.0
    for bit in blade_factors(mask):
        out = vector_contract(GENERATORS[bit], out)
        scale *= 2.0 if bit < 3 else -2.0
    return scale * out


_STAR = np.zeros((BLADE_COUNT, BLADE_COUNT))
for _m in range(BLADE_COUNT):
    if GRADES[_m] <= 3:
        _STAR[:, _m] = _star_of_blade(_m).coeffs
_STAR.setflags(write=False)

_ABOVE_3 = GRADES > 3


def hodge_star(a: Multivector) -> Multivector:
    """Euclidean Hodge star, defined on grades 0..3.

    The star is its own inverse there ((-1)^(k(3-k)) = 1 for k = 0..3), so
    it is also the star^-1 of the star-sandwich.

    Raises DomainError when the input carries grade > 3 components above
    tolerance.
    """
    tol = tolerance(a.max_abs())
    worst = float(np.max(np.abs(a.coeffs[_ABOVE_3]), initial=0.0))
    if worst > tol:
        raise DomainError(
            f"hodge star is defined on grades 0..3; grade > 3 residue {worst:.3e}")
    return Multivector._raw(_STAR @ a.coeffs)

