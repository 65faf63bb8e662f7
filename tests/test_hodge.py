import numpy as np
import pytest

from cl33 import (
    DomainError,
    E,
    GENERATORS,
    I_FULL,
    Multivector,
    OMEGA_V,
    Paravector,
    embed_covector,
    embed_paravector,
    embed_vector,
    hodge_star,
    outer_product,
    reversion,
    star_conjugate,
    vector_contract,
)

from cl33.blades import BLADE_COUNT, GRADES, blade_factors
from cl33.hodge import STAR, hodge_star_rows

W = outer_product


def star_of_blade(mask):
    """Reference star of one blade: successive contraction of its factors
    (first innermost) into Omega_V, times 2 per plus-sector factor and -2
    per minus-sector one."""
    out = OMEGA_V
    scale = 1.0
    for bit in blade_factors(mask):
        out = vector_contract(GENERATORS[bit], out)
        scale *= 2.0 if bit < 3 else -2.0
    return scale * out


def test_star_table_matches_blade_loop():
    want = np.zeros((BLADE_COUNT, BLADE_COUNT))
    for m in range(BLADE_COUNT):
        if GRADES[m] <= 3:
            want[:, m] = star_of_blade(m).coeffs
    assert np.array_equal(STAR, want)
    assert STAR.tobytes() == want.tobytes()  # signed zeros included


def lambda_v3_basis():
    return [Multivector.scalar(1.0), E[0], E[1], E[2],
            W(E[0], E[1]), W(E[0], E[2]), W(E[1], E[2]), OMEGA_V]


def random_euclid_exterior(rng):
    a = Multivector()
    for coeff, b in zip(rng.normal(size=8), lambda_v3_basis()):
        a = a + float(coeff) * b
    return a


def test_star_of_one_is_volume():
    assert hodge_star(Multivector.scalar(1.0)).approx_eq(OMEGA_V)


def test_star_of_volume_is_one():
    assert hodge_star(OMEGA_V).approx_eq(1.0)


def test_duality_table():
    assert hodge_star(E[0]).approx_eq(W(E[1], E[2]))
    assert hodge_star(E[1]).approx_eq(-1.0 * W(E[0], E[2]))
    assert hodge_star(E[2]).approx_eq(W(E[0], E[1]))
    assert hodge_star(W(E[0], E[1])).approx_eq(E[2])
    assert hodge_star(W(E[0], E[2])).approx_eq(-1.0 * E[1])
    assert hodge_star(W(E[1], E[2])).approx_eq(E[0])


def test_sector_sum_worked_values():
    # star of the full sector sum of e1^e2 wedges is twice the e3 sector sum
    s12 = Multivector()
    for sa in (0, 3):
        for sb in (0, 3):
            s12 = s12 + W(GENERATORS[0 + sa], GENERATORS[1 + sb])
    assert hodge_star(s12).approx_eq(2.0 * (GENERATORS[2] + GENERATORS[5]))
    # wedging in an embedded vector contracts down to 4 v3
    rng = np.random.default_rng(0)
    v = rng.normal(size=3)
    assert hodge_star(W(s12, embed_vector(v))).approx_eq(4.0 * v[2])


def test_star_of_point():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = rng.normal(size=3)
        sp = hodge_star(embed_paravector(Paravector(1.0, p)))
        want = OMEGA_V + 2.0 * vector_contract(embed_covector(p), OMEGA_V)
        assert sp.approx_eq(want)


def test_star_intermediate_for_axis_point():
    # star(1 + t e1) = volume + t e2 e3
    t = 0.8
    sp = hodge_star(1.0 + t * embed_vector([1, 0, 0]))
    assert sp.approx_eq(OMEGA_V + t * (E[1] * E[2]))


def test_star_inverse_equals_star():
    assert hodge_star(OMEGA_V).approx_eq(1.0)
    assert hodge_star(hodge_star(E[0])).approx_eq(E[0])
    p = embed_paravector(Paravector(1.0, [1, 2, 3]))
    assert hodge_star(hodge_star(p)).approx_eq(p)


def test_star_swaps_euclid_grades():
    # within the Euclidean exterior algebra the star takes grade k to 3 - k
    by_grade = {0: [Multivector.scalar(1.0)], 1: list(E),
                2: [W(E[0], E[1]), W(E[0], E[2]), W(E[1], E[2])], 3: [OMEGA_V]}
    for k, elements in by_grade.items():
        for a in elements:
            out = hodge_star(a)
            other = [g for g in range(7) if g != 3 - k]
            for g in other:
                assert out.grade(g).is_zero(1e-12), (k, g)


def test_star_is_involution_on_euclid_exterior():
    rng = np.random.default_rng(2)
    for _ in range(300):
        a = random_euclid_exterior(rng)
        assert hodge_star(hodge_star(a)).approx_eq(a)


def test_star_linearity():
    rng = np.random.default_rng(3)
    a, b = random_euclid_exterior(rng), random_euclid_exterior(rng)
    al, be = rng.normal(), rng.normal()
    lhs = hodge_star(float(al) * a + float(be) * b)
    rhs = float(al) * hodge_star(a) + float(be) * hodge_star(b)
    assert lhs.approx_eq(rhs)


def test_star_rejects_high_grades():
    with pytest.raises(DomainError):
        hodge_star(GENERATORS[0] * GENERATORS[1] * GENERATORS[2] * GENERATORS[3])
    with pytest.raises(DomainError):
        hodge_star(I_FULL)


def test_star_rows_are_the_star_of_each_row():
    rng = np.random.default_rng(37)
    rows = rng.normal(size=(6, 64)) * 10.0 ** rng.integers(-150, 151, size=(6, 64))
    rows[:, GRADES > 3] = 0.0
    rows[rng.random((6, 64)) < 0.3] = -0.0
    want = np.array([STAR @ row for row in rows])
    assert hodge_star_rows(rows).tobytes() == want.tobytes()  # signed zeros included
    # the error names the first row over its tolerance, not the worst one
    bad = np.zeros((3, 64))
    bad[:, 0] = 1.0
    bad[1, 0b001111], bad[2, 0b001111] = 0.25, 0.5
    with pytest.raises(DomainError, match=r"grade > 3 residue 2\.500e-01$"):
        hodge_star_rows(bad)


def test_star_accepts_single_sector_inputs():
    # every grade <= 3 blade is a valid input; check a bare plus-sector vector
    out = hodge_star(GENERATORS[0])
    want = 2.0 * vector_contract(GENERATORS[0], OMEGA_V)
    assert out.approx_eq(want)


def test_volume_dual_relation_to_star():
    # for grade-k inputs free of covector factors the dual against the full
    # volume element, the grade (6 - k) part of (reversed A) I, is
    # 2^(3-k) (star A)* ^ Omega_V; the k-dependence tracks the factor-2^k
    # normalization built into the star's contraction cases
    for k, a in [(0, Multivector.scalar(1.0)), (1, E[0]),
                 (2, W(E[0], E[1])), (3, OMEGA_V)]:
        lhs = (reversion(a) * I_FULL).grade(6 - k)
        rhs = 2.0 ** (3 - k) * W(star_conjugate(hodge_star(a)), OMEGA_V)
        assert not lhs.is_zero()
        assert lhs.approx_eq(rhs), a
