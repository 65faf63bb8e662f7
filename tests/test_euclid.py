import itertools

import numpy as np
import pytest

from cl33 import (
    CovectorResidue,
    DomainError,
    E,
    E_STAR,
    GENERATORS,
    I_FULL,
    I_MINUS,
    I_PLUS,
    Multivector,
    NonParavectorResidue,
    OMEGA_V,
    Paravector,
    embed_covector,
    embed_paravector,
    embed_vector,
    extract_paravector,
    normalize_point,
    sector_vector,
    star_conjugate,
    translation_versor,
)
from cl33.euclid import extract_points

EP1, EP2, EP3, EM1, EM2, EM3 = GENERATORS


def test_embed_vector_examples():
    assert embed_vector([1, 0, 0]).approx_eq(0.5 * (EP1 + EM1))
    assert embed_vector([0, 0, 0]).is_zero()
    v = embed_vector([3, -2, 5])
    assert (v * v).is_zero(1e-12)


def test_embed_covector_is_star_of_vector():
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = rng.normal(size=3)
        assert embed_covector(v).approx_eq(star_conjugate(embed_vector(v)))


def test_star_conjugate_examples():
    assert star_conjugate(E[0]).approx_eq(E_STAR[0])
    assert star_conjugate(Multivector.scalar(1.0)).approx_eq(1.0)
    # the minus-sector pseudoscalar flips the sign of the covector
    assert (I_MINUS * E[0] * I_MINUS).approx_eq(-1.0 * E_STAR[0])
    # applying the conjugation twice returns the embedded vector
    rng = np.random.default_rng(1)
    v = embed_vector(rng.normal(size=3))
    assert star_conjugate(star_conjugate(v)).approx_eq(v)


def test_pseudoscalar_invariants():
    assert (I_PLUS * I_PLUS).approx_eq(-1.0)
    assert (I_MINUS * I_MINUS).approx_eq(1.0)
    rng = np.random.default_rng(2)
    for _ in range(1000):
        v = embed_vector(rng.normal(size=3))
        assert (I_FULL * v + v * I_FULL).is_zero(1e-12)


def test_volume_trivector_annihilated_by_embedded_basis():
    for i in range(3):
        assert (E[i] * OMEGA_V).is_zero()
        assert (OMEGA_V * E[i]).is_zero()


def test_embed_paravector_coefficients():
    m = embed_paravector(Paravector(1.0, [2, 0, 0]))
    assert m.coeff(0) == 1.0
    assert m.coeff(1) == 1.0   # e1p
    assert m.coeff(8) == 1.0   # e1m
    assert np.count_nonzero(m.coeffs) == 3


def test_extract_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        p = Paravector(rng.uniform(-3, 3), rng.uniform(-3, 3, 3))
        q = extract_paravector(embed_paravector(p))
        assert q.approx_eq(p)


def test_extract_covector_residue():
    with pytest.raises(CovectorResidue):
        extract_paravector(1.0 + E_STAR[0])


def test_extract_high_grade_residue():
    with pytest.raises(NonParavectorResidue):
        extract_paravector(1.0 + EP1 * EP2)


def test_extract_points_raises_the_first_failing_row():
    # each row is held to its own tolerance: the first bad row's error and
    # figures are raised, not those of the worst row
    valid = embed_paravector(Paravector(2.0, [1e6, -3.0, 5.0])).coeffs
    covector_bad = (1.0 + 1e-6 * E_STAR[0]).coeffs
    grade2_bad = (1.0 + 1e-6 * EP1 * EP2).coeffs
    non_finite = valid.copy()
    non_finite[0] = np.inf
    with pytest.raises(CovectorResidue) as exc:
        extract_points([valid, covector_bad, non_finite])
    assert str(exc.value) == str(_alone(covector_bad))
    assert str(exc.value) == "covector residue 1.000e-06 exceeds tolerance 1.001e-09"
    assert exc.value.residual == _alone(covector_bad).residual == 1e-6
    # the first row's tolerance (5e-4) would pass the second row, and the
    # third row's residue (1e-3) is the worst
    with pytest.raises(NonParavectorResidue) as exc:
        extract_points([valid, grade2_bad, 1e3 * covector_bad])
    assert str(exc.value) == str(_alone(grade2_bad))
    assert exc.value.residual == 1e-6
    with pytest.raises(DomainError, match="not finite"):
        extract_points([valid, non_finite, covector_bad])
    rows = extract_points([valid, valid])
    assert rows.tobytes() == np.array([[2.0, 1e6, -3.0, 5.0]] * 2).tobytes()


def _alone(row):
    with pytest.raises((CovectorResidue, NonParavectorResidue, DomainError)) as exc:
        extract_paravector(Multivector(row))
    return exc.value


def test_extract_points_errors_carry_the_first_failing_row():
    # one bad row, or two of different kinds, at the first, a middle and the
    # last place of 5 rows: ``row`` is the index of the first, and the text
    # is the one that row raises alone
    valid = embed_paravector(Paravector(2.0, [1e6, -3.0, 5.0])).coeffs
    non_finite = valid.copy()
    non_finite[0] = np.inf
    bad = [(CovectorResidue, (1.0 + 1e-6 * E_STAR[0]).coeffs),
           (NonParavectorResidue, (1.0 + 1e-6 * EP1 * EP2).coeffs),
           (DomainError, non_finite)]
    for k, (error, row) in enumerate(bad):
        other = bad[(k + 1) % 3][1]
        for places in ((0,), (2,), (4,), (0, 4), (2, 3), (1, 4)):
            rows = [valid] * 5
            for place, r in zip(places, (row, other)):
                rows[place] = r
            with pytest.raises(error) as exc:
                extract_points(rows)
            assert type(exc.value) is error
            assert exc.value.row == places[0]
            assert str(exc.value) == str(_alone(row))


def test_normalize_point():
    p = normalize_point(Paravector(3.0, [3, 6, 9]))
    assert p.weight == 1.0 and np.allclose(p.vector, [1, 2, 3])
    q = Paravector(1.0, [4, 5, 6])
    assert normalize_point(q).approx_eq(q)
    inf = normalize_point(Paravector(0.0, [0, 0, -1]))
    assert inf.is_at_infinity
    assert np.allclose(inf.vector, [0, 0, -1])
    neg = normalize_point(Paravector(-2.0, [2, 0, 0]))
    assert neg.weight == -1.0 and np.allclose(neg.vector, [1, 0, 0])


def test_location_semantics():
    assert np.allclose(Paravector(2.0, [2, 4, 6]).location(), [1, 2, 3])
    # negative weight: location is p / |w|
    assert np.allclose(Paravector(-2.0, [2, 0, 0]).location(), [1, 0, 0])
    with pytest.raises(ZeroDivisionError):
        Paravector(0.0, [1, 0, 0]).location()


def test_paravector_sub():
    p, e = np.array([1.0, 2, 3]), np.array([0.5, 0, -1])
    d = Paravector(1, p) - Paravector(1, e)
    assert d.weight == 0.0 and np.allclose(d.vector, p - e)
    z = Paravector(1, [1, 2, 3]) - Paravector(1, [1, 2, 3])
    assert z.weight == 0.0 and np.allclose(z.vector, 0)
    d2 = Paravector(2, p) - Paravector(1, e)
    assert d2.weight == 1.0 and np.allclose(d2.vector, p - e)


def test_paravectors_compare_by_value_and_are_unhashable():
    p = Paravector(1, [1, 2, 3])
    assert p == Paravector(1.0, np.array([1.0, 2.0, 3.0])) and not p != Paravector(1, [1, 2, 3])
    assert p != Paravector(2, [1, 2, 3]) and p != Paravector(1, [1, 2, 4])
    assert p != (1, [1, 2, 3]) and Paravector(np.nan) != Paravector(np.nan)
    with pytest.raises(TypeError):
        hash(p)


def test_a_point_keeps_its_own_vector():
    # changing the array a point was made from leaves the point as it was,
    # and neither it nor an image of Transform.apply can be written
    v = np.array([1.0, 2, 3])
    p = Paravector(1, v)
    v[0] = 9
    assert p == Paravector(1, [1, 2, 3])
    image = translation_versor([0.5, 0, 0]).apply(p)
    for point in (p, image):
        with pytest.raises(ValueError):
            point.vector[0] = 9
    assert image == Paravector(1, [1.5, 2, 3])


def test_paravector_reversion_symmetry():
    from cl33 import reversion

    rng = np.random.default_rng(4)
    m = embed_paravector(Paravector(rng.uniform(-2, 2), rng.normal(size=3)))
    assert reversion(m).approx_eq(m)


def test_embeddings_match_generator_sum():
    # bit for bit, signed zeros included: the sums v0 g0 + v1 g1 + v2 g2 and
    # the sector combinations that define v+, v-, v and v*
    values = (0.0, -0.0, 1.5, -2.25, 3e-310)
    for v in itertools.product(values, repeat=3):
        plus = v[0] * EP1 + v[1] * EP2 + v[2] * EP3
        minus = v[0] * EM1 + v[1] * EM2 + v[2] * EM3
        for got, want in ((sector_vector(v, +1), plus), (sector_vector(v, -1), minus),
                          (embed_vector(v), 0.5 * (plus + minus)),
                          (embed_covector(v), 0.5 * (plus - minus))):
            assert got.coeffs.tobytes() == want.coeffs.tobytes(), v


def test_sector_vector():
    v = [1.0, 2.0, 3.0]
    plus = sector_vector(v, +1)
    assert plus.coeff(1) == 1.0 and plus.coeff(2) == 2.0 and plus.coeff(4) == 3.0
    minus = sector_vector(v, -1)
    assert minus.coeff(8) == 1.0 and minus.coeff(16) == 2.0 and minus.coeff(32) == 3.0
