import numpy as np
import pytest

from cl33.blades import (
    BLADE_COUNT,
    MINUS_BLADES,
    PLUS_BLADES,
    PRODUCT_MASKS,
    PRODUCT_SIGNS,
    SQUARES,
    blade_factors,
    blade_geometric_product,
    blade_name,
    grade,
)
from cl33.selftest import naive_blade_product


def test_blade_product_matches_sorted_list_oracle_exhaustively():
    for a in range(BLADE_COUNT):
        for b in range(BLADE_COUNT):
            assert blade_geometric_product(a, b) == naive_blade_product(a, b)


def test_defining_relations_exact():
    # masks 1, 2, 4 square to +1; masks 8, 16, 32 square to -1
    for i in range(6):
        sign, mask = blade_geometric_product(1 << i, 1 << i)
        assert mask == 0 and sign == SQUARES[i]
    for i in range(6):
        for j in range(6):
            if i == j:
                continue
            s_ij, m_ij = blade_geometric_product(1 << i, 1 << j)
            s_ji, m_ji = blade_geometric_product(1 << j, 1 << i)
            assert m_ij == m_ji == (1 << i) | (1 << j)
            assert s_ij == -s_ji


def test_associativity_exact_on_all_blade_triples():
    # signs are integers, so table-level associativity is exact over all 64^3
    s, m = PRODUCT_SIGNS, PRODUCT_MASKS
    lhs_sign = s[:, :, None] * s[m]          # s[a,b] * s[m[a,b], c]
    lhs_mask = m[m]                          # m[m[a,b], c]
    rhs_sign = s[None, :, :] * s[:, m]       # s[b,c] * s[a, m[b,c]]
    rhs_mask = m[:, m]                       # m[a, m[b,c]]
    assert np.array_equal(lhs_sign, rhs_sign)
    assert np.array_equal(lhs_mask, rhs_mask)


def test_grades_and_names():
    assert grade(0) == 0
    assert grade(0b111111) == 6
    assert blade_factors(0b100101) == (0, 2, 5)
    assert blade_name(0) == "1"
    assert blade_name(1) == "e1p"
    assert blade_name(8) == "e1m"
    assert blade_name(0b001001) == "e1p*e1m"


def test_mask_range_validation():
    with pytest.raises(ValueError):
        grade(64)
    with pytest.raises(ValueError):
        blade_geometric_product(-1, 0)
    with pytest.raises(ValueError):
        blade_geometric_product(0, 64)


def test_generator_layout():
    # e1p e2p e3p square to +1, e1m e2m e3m to -1, both sectors in axis order
    assert [blade_name(m) for m in PLUS_BLADES] == ["e1p", "e2p", "e3p"]
    assert [blade_name(m) for m in MINUS_BLADES] == ["e1m", "e2m", "e3m"]
    for masks, square in ((PLUS_BLADES, 1.0), (MINUS_BLADES, -1.0)):
        assert [blade_geometric_product(m, m) for m in masks] == [(square, 0)] * 3
