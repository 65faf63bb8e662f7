import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cl33 import (
    ConvergenceError,
    DomainError,
    GENERATORS,
    Multivector,
    conjugation,
    exponential,
    geometric_product,
    grade_involution,
    grade_project,
    outer_product,
    reversion,
    vector_contract,
)
from cl33.blades import GRADES, PRODUCT_SIGNS
from cl33.multivector import planned_products, product_plan, product_tables, table_products
from cl33.euclid import E, OMEGA_V, embed_vector, sector_vector
from helpers import dense_product, naive_geometric_product

EP1, EP2, EP3, EM1, EM2, EM3 = GENERATORS

coeffs_strategy = st.lists(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, width=32),
    min_size=64, max_size=64,
)
mv_strategy = coeffs_strategy.map(lambda c: Multivector(np.array(c)))


def random_mv(rng, scale=1.0):
    return Multivector(rng.normal(size=64) * scale)


def random_homogeneous(rng, k):
    return Multivector(np.where(GRADES == k, rng.normal(size=64), 0.0))


def test_geometric_product_matches_naive_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        a, b = random_mv(rng), random_mv(rng)
        got = (a * b).coeffs
        want = naive_geometric_product(a.coeffs, b.coeffs)
        assert np.allclose(got, want, atol=1e-12)


def test_unit_element():
    rng = np.random.default_rng(1)
    a = random_mv(rng)
    one = Multivector.scalar(1.0)
    assert (one * a).approx_eq(a)
    assert (a * one).approx_eq(a)


def test_embedded_vector_squares_to_zero():
    e1 = E[0]
    assert (e1 * e1).is_zero()
    assert grade_project(e1 * e1, 0).is_zero()


def test_metric_via_covector():
    e1 = E[0]
    e1s = 0.5 * (EP1 - EM1)
    assert (e1 * e1s + e1s * e1).approx_eq(1.0)


def test_grade_projection_examples():
    a = 1.0 + EP1 * EP2
    assert grade_project(a, 2).approx_eq(EP1 * EP2)
    assert grade_project(a, 0).approx_eq(1.0)
    assert grade_project(EP1, 0).is_zero()
    with pytest.raises(DomainError):
        grade_project(a, 7)
    with pytest.raises(DomainError):
        grade_project(a, -1)


def test_grade_decomposition_reconstructs():
    rng = np.random.default_rng(2)
    a = random_mv(rng)
    total = Multivector()
    for k in range(7):
        total = total + a.grade(k)
    assert total.approx_eq(a)


def test_involutions_signs_by_grade():
    hat_signs = [1, -1, 1, -1, 1, -1, 1]
    tilde_signs = [1, 1, -1, -1, 1, 1, -1]
    bar_signs = [1, -1, -1, 1, 1, -1, -1]
    rng = np.random.default_rng(3)
    for k in range(7):
        a = random_homogeneous(rng, k)
        assert grade_involution(a).approx_eq(hat_signs[k] * a)
        assert reversion(a).approx_eq(tilde_signs[k] * a)
        assert conjugation(a).approx_eq(bar_signs[k] * a)


def test_reversion_fixes_paravectors():
    p = 1.0 + E[0]
    assert reversion(p).approx_eq(p)
    assert reversion(EP1 * EP2).approx_eq(-1.0 * EP1 * EP2)


@settings(max_examples=40, deadline=None)
@given(mv_strategy, mv_strategy)
def test_reversion_antiautomorphism(a, b):
    scale = max(1.0, a.max_abs() * b.max_abs() * 64)
    assert reversion(a * b).approx_eq(reversion(b) * reversion(a), atol=1e-9 * scale)


@settings(max_examples=40, deadline=None)
@given(mv_strategy, mv_strategy)
def test_involution_automorphism(a, b):
    scale = max(1.0, a.max_abs() * b.max_abs() * 64)
    assert grade_involution(a * b).approx_eq(
        grade_involution(a) * grade_involution(b), atol=1e-9 * scale)


@settings(max_examples=25, deadline=None)
@given(mv_strategy, mv_strategy, mv_strategy)
def test_associativity_random(a, b, c):
    scale = max(1.0, a.max_abs() * b.max_abs() * c.max_abs() * 64 * 64)
    assert ((a * b) * c).approx_eq(a * (b * c), atol=1e-9 * scale)


def test_contraction_examples():
    e1, e2 = E[0], E[1]
    e1s = 0.5 * (EP1 - EM1)
    assert vector_contract(e1s, e1).approx_eq(0.5)
    assert vector_contract(e1, e2).is_zero()
    assert vector_contract(EP1, outer_product(EP1, EP2)).approx_eq(EP2)


def test_contraction_requires_grade_one():
    with pytest.raises(DomainError):
        vector_contract(1.0 + E[0], E[1])


def test_product_splits_into_contraction_and_wedge():
    rng = np.random.default_rng(4)
    for k in range(7):
        v = Multivector(np.where(GRADES == 1, rng.normal(size=64), 0.0))
        a = random_homogeneous(rng, k)
        assert (v * a).approx_eq(vector_contract(v, a) + outer_product(v, a))


def test_contraction_leibniz_rule():
    rng = np.random.default_rng(5)
    for _ in range(30):
        k = rng.integers(1, 4)
        j = rng.integers(1, 3)
        v = Multivector(np.where(GRADES == 1, rng.normal(size=64), 0.0))
        a = random_homogeneous(rng, int(k))
        b = random_homogeneous(rng, int(j))
        lhs = vector_contract(v, outer_product(a, b))
        rhs = outer_product(vector_contract(v, a), b) + \
            (-1.0) ** int(k) * outer_product(a, vector_contract(v, b))
        assert lhs.approx_eq(rhs, atol=1e-9 * max(1.0, lhs.max_abs()))


def test_outer_product_properties():
    rng = np.random.default_rng(6)
    x = Multivector(np.where(GRADES == 1, rng.normal(size=64), 0.0))
    assert outer_product(x, x).is_zero(1e-12)
    assert outer_product(E[0], E[0]).is_zero()
    a, b, c = random_mv(rng), random_mv(rng), random_mv(rng)
    lhs = outer_product(outer_product(a, b), c)
    rhs = outer_product(a, outer_product(b, c))
    assert lhs.approx_eq(rhs, atol=1e-9 * max(1.0, lhs.max_abs()))


def test_volume_trivector_as_signed_sector_sum():
    total = Multivector()
    for s1 in (0, 3):
        for s2 in (0, 3):
            for s3 in (0, 3):
                total = total + GENERATORS[0 + s1] * GENERATORS[1 + s2] * GENERATORS[2 + s3]
    assert (total / 8.0).approx_eq(OMEGA_V)
    assert outer_product(outer_product(E[0], E[1]), E[2]).approx_eq(OMEGA_V)


def test_bivector_sector_decomposition():
    rng = np.random.default_rng(7)
    u, v = rng.normal(size=3), rng.normal(size=3)
    lhs = outer_product(embed_vector(u), embed_vector(v))
    total = Multivector()
    for su in (+1, -1):
        for sv in (+1, -1):
            total = total + outer_product(sector_vector(u, su), sector_vector(v, sv))
    assert lhs.approx_eq(total / 4.0)


def test_exponential_closed_forms():
    assert exponential(Multivector()).approx_eq(1.0)
    v = embed_vector([0.3, -1.2, 0.7])
    assert exponential(0.5 * v).approx_eq(1.0 + 0.5 * v)
    b = EM1 * EP1
    t = 0.9
    assert exponential((t / 2.0) * b).approx_eq(
        np.cosh(t / 2) + float(np.sinh(t / 2)) * b)


def test_exponential_convergence_error():
    with pytest.raises(ConvergenceError):
        exponential(50.0 * EP1 * EM1, max_terms=5)


def test_immutability():
    a = Multivector.scalar(1.0)
    with pytest.raises(AttributeError):
        a.coeffs = np.zeros(64)
    with pytest.raises(ValueError):
        a.coeffs[0] = 2.0


def test_scalar_arithmetic_and_repr():
    a = 1.0 + 2.0 * EP1
    assert a.coeff(0) == 1.0 and a.coeff(1) == 2.0
    assert (a - 1.0).approx_eq(2.0 * EP1)
    assert (1.0 - a).approx_eq(-2.0 * EP1)
    assert (a / 2.0).coeff(1) == 1.0
    assert "e1p" in repr(a)
    assert repr(Multivector()) == "Multivector(0)"
    assert geometric_product(2.0, EP1).approx_eq(2.0 * EP1)


def test_approx_eq_is_reflexive_and_symmetric():
    rng = np.random.default_rng(8)
    a = random_mv(rng)
    b = Multivector(a.coeffs + 1e-13 * rng.normal(size=64))
    assert a.approx_eq(a)
    assert a.approx_eq(b) and b.approx_eq(a)
    c = Multivector(a.coeffs + 1e-3)
    assert not a.approx_eq(c) and not c.approx_eq(a)


def _random_rows(rng, n):
    """Rows of 64 coefficients: dense or sparse, with -0.0 entries and
    exponents across +-200, so that some products overflow."""
    rows = rng.normal(size=(n, 64)) * 10.0 ** rng.integers(-200, 201, size=(n, 64))
    rows[rng.random((n, 64)) < rng.random()] = 0.0
    rows[rng.random((n, 64)) < 0.2] = -0.0
    return rows


def test_table_products_are_the_product_byte_for_byte():
    rng = np.random.default_rng(29)
    rows = lambda a, b: np.array([dense_product(x, y) for x, y in zip(a, b)])
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for _ in range(200):
            n = int(rng.integers(1, 8))
            a, b = _random_rows(rng, n), _random_rows(rng, n)
            # row by row, every row by one factor, and one row by every factor
            assert table_products(a, product_tables(b)).tobytes() == rows(a, b).tobytes()
            want = rows(a, [b[0]] * n)
            assert table_products(a, product_tables(b[0])).tobytes() == want.tobytes()
            want = rows([a[0]] * n, b)
            assert table_products(a[0], product_tables(b)).tobytes() == want.tobytes()
    # every term (a_i b_i) s(i, i) of the scalar part is -0 when a_i is -0
    # for the blades squaring to +1 and +0 for the rest; the sum is +0
    a = np.where(np.diagonal(PRODUCT_SIGNS) > 0, -0.0, 0.0)
    out = table_products(a, product_tables(np.zeros(64)))
    assert out.tobytes() == dense_product(a, np.zeros(64)).tobytes()
    assert not np.signbit(out[0, 0])


#: Coefficients with signed zeros, subnormals and exponents up to +-200
#: (2^664 is about 1e200), so that some products overflow or underflow.
odd_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 664)))


@st.composite
def planned_batches(draw):
    """Operand rows restricted to random grade sets (±0 elsewhere) and a
    list of products (left, right, outer) between them."""
    n = draw(st.integers(1, 4))
    grades = [draw(st.sets(st.integers(0, 6), min_size=1)) for _ in range(n)]
    rows = np.array([[draw(odd_floats) if GRADES[m] in g else draw(st.sampled_from([0.0, -0.0]))
                      for m in range(64)] for g in grades])
    index = st.integers(0, n - 1)
    products = draw(st.lists(st.tuples(index, index, st.booleans()), min_size=1, max_size=6))
    return grades, rows, products


@st.composite
def odd_rows(draw, n):
    """n rows of 64 ``odd_floats``, each with a drawn share of them ±0 and
    up to two of them inf, -inf or NaN."""
    rows = []
    for _ in range(n):
        kept = draw(st.sets(st.integers(0, 63)))
        row = [draw(odd_floats) if k in kept else draw(st.sampled_from([0.0, -0.0]))
               for k in range(64)]
        for k in draw(st.sets(st.integers(0, 63), max_size=2)):
            row[k] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        rows.append(row)
    return np.array(rows)


def _same(got, want):
    """Byte for byte outside NaN, and NaN at the same places: a table holds
    -b, so the sign of a NaN that b carries may differ."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(odd_rows(n), odd_rows(n))))
def test_products_and_tables_are_the_dense_product(operands):
    # the row-skipping product and the table products against every pair
    # formed and added by bincount: signed zeros, subnormals, overflow, and
    # inf or NaN in either factor
    a, b = operands
    with np.errstate(all="ignore"):
        want = np.array([dense_product(x, y) for x, y in zip(a, b)])
        got = np.array([(Multivector(x) * Multivector(y)).coeffs for x, y in zip(a, b)])
        assert got.tobytes() == want.tobytes()
        _same(table_products(a, product_tables(b)), want)
        _same(table_products(a, product_tables(b[0])),
              np.array([dense_product(x, b[0]) for x in a]))
        _same(table_products(a[0], product_tables(b)),
              np.array([dense_product(a[0], y) for y in b]))


@settings(max_examples=60, deadline=None)
@given(planned_batches())
def test_planned_products_are_the_products_byte_for_byte(batch):
    grades, rows, products = batch
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        got = planned_products(rows, product_plan(grades, products))
        for out, (a, b, outer) in zip(got, products):
            x, y = Multivector(rows[a]), Multivector(rows[b])
            want = (x ^ y).coeffs if outer else dense_product(rows[a], rows[b])
            assert out.tobytes() == want.tobytes()
