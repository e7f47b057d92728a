from fractions import Fraction as F
from itertools import chain
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvlaguerre.matrices import (MatPoly, MatQ,
                                 SingularMatrixError, build_A, build_J,
                                 build_K, commutator,
                                 exp_nilpotent, matexp_nilpotent)

small_rats = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def rand_matrix(n):
    return st.lists(st.lists(small_rats, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(MatQ)


def test_matq_basics():
    m = MatQ([[1, 2], [3, 4]])
    assert m.transpose() == MatQ([[1, 3], [2, 4]])
    assert m.det() == -2
    assert (m * m.inverse()) == MatQ.identity(2)
    assert MatQ.diag([1, 2]).leading_minors() == [1, 2]
    with pytest.raises(SingularMatrixError):
        MatQ([[1, 2], [2, 4]]).inverse()


@given(rand_matrix(3))
@settings(max_examples=40)
def test_inverse_roundtrip(m):
    if m.det() == 0:
        with pytest.raises(SingularMatrixError):
            m.inverse()
    else:
        assert m * m.inverse() == MatQ.identity(3)
        assert m.inverse() * m == MatQ.identity(3)


# Cross-check of the integer-numerator kernel against plain Fraction
# arithmetic: the triple loop and Gauss-Jordan elimination it replaced.

BIG_PRIMES = (10007, 65537, 999983, 2**31 - 1, 2**61 - 1)
entries = st.one_of(
    st.just(F(0)),
    small_rats,
    st.builds(F, st.integers(-10**12, 10**12), st.sampled_from(BIG_PRIMES)),
)


def ref_mul(x, y):
    n = len(x)
    return [[sum((x[i][k] * y[k][j] for k in range(n)), F(0)) for j in range(n)]
            for i in range(n)]


def ref_inverse(x):
    """Gauss-Jordan over Fractions; None when x is singular."""
    n = len(x)
    aug = [list(r) + [F(int(i == j)) for j in range(n)] for i, r in enumerate(x)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def ref_det(x):
    n = len(x)
    m = [list(r) for r in x]
    out = F(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return F(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            out = -out
        out *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return out


def assert_matches(m, expected):
    """Entrywise equality with a list of Fraction rows, and the canonical
    form: positive denominator with no factor common to every numerator."""
    assert m.rows == tuple(map(tuple, expected))
    assert [[m[i, j] for j in range(m.N)] for i in range(m.N)] == expected
    assert m.d > 0 and gcd(m.d, *chain.from_iterable(m.num)) == 1
    assert m == MatQ(expected) and hash(m) == hash(MatQ(expected))


@st.composite
def kernel_inputs(draw):
    n = draw(st.integers(1, 4))
    square = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    x, y = draw(square), draw(square)
    if n > 1 and draw(st.booleans()):
        x[-1] = [v * draw(small_rats) for v in x[0]]   # a singular x
    return x, y, draw(entries)


@given(kernel_inputs())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_fraction_reference(inputs):
    x, y, s = inputs
    n = len(x)
    a, b = MatQ(x), MatQ(y)
    assert_matches(a, x)
    assert_matches(a * b, ref_mul(x, y))
    assert_matches(a + b, [[u + v for u, v in zip(r, t)] for r, t in zip(x, y)])
    assert_matches(a - b, [[u - v for u, v in zip(r, t)] for r, t in zip(x, y)])
    assert_matches(-a, [[-u for u in r] for r in x])
    assert_matches(a * s, [[u * s for u in r] for r in x])
    assert_matches(s * a, [[s * u for u in r] for r in x])
    assert_matches(a.transpose(), [list(c) for c in zip(*x)])
    assert a.is_zero() == all(u == 0 for r in x for u in r)
    assert (a - a).is_zero() and (a * 0).is_zero()
    assert a.det() == ref_det(x)
    inv = ref_inverse(x)
    if inv is None:
        with pytest.raises(SingularMatrixError):
            a.inverse()
    else:
        assert_matches(a.inverse(), inv)
    # equal values reached by different routes are equal and hash alike
    for other in (a + MatQ.zero(n), (a * 3) * F(1, 3), a.transpose().transpose(),
                  MatQ(a.rows)):
        assert other == a and hash(other) == hash(a)
    assert (a == b) == (x == y)


def ref_canonical(rows):
    """(d, num) of Fraction rows: the lcm of the denominators and the
    numerators over it."""
    d = lcm(*(v.denominator for r in rows for v in r))
    return d, tuple(tuple(v.numerator * (d // v.denominator) for v in r) for r in rows)


@st.composite
def matrix_and_integer(draw):
    """Rows and an integer k: zero, small of either sign, a multiple of the
    rows' common denominator d, or a signed multiple of a divisor of d."""
    n = draw(st.integers(1, 4))
    x = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    d = ref_canonical(x)[0]
    k = draw(st.one_of(
        st.just(0),
        st.integers(-50, 50),
        st.integers(-6, 6).map(lambda t: t * d),
        st.tuples(st.integers(-9, 9), st.integers(1, 12)).map(
            lambda tm: tm[0] * (d // gcd(d, tm[1]))),
    ))
    return x, k


@given(matrix_and_integer())
@example(([[F(1, 6), F(5, 6)], [F(0), F(1, 2)]], 4))
@example(([[F(1, 6), F(5, 6)], [F(0), F(1, 2)]], -9))
@example(([[F(1, 6), F(5, 6)], [F(0), F(1, 2)]], 0))
@example(([[F(1, 6), F(5, 6)], [F(0), F(1, 2)]], -6))
@settings(max_examples=150, deadline=None)
def test_integer_scalar_product_is_the_canonical_fraction_product(inputs):
    x, k = inputs
    m = MatQ(x)
    expected = ref_canonical([[v * k for v in r] for r in x])
    for product in (m * k, k * m):
        assert (product.d, product.num) == expected
        assert product == m * F(k)


@given(kernel_inputs())
@example(([[F(1), F(0)], [F(0), F(1)]], [[F(0)] * 2] * 2, F(0)))
@settings(max_examples=60, deadline=None)
def test_products_with_the_identity_and_its_neighbours(inputs):
    """A product with I is the other factor, as an object; a product with a
    matrix next to I (2I, I/2, -I, I plus a matrix unit) is computed."""
    x, _, _ = inputs
    n = len(x)
    a, i = MatQ(x), MatQ.identity(n)
    assert MatQ(i.rows).is_identity() and not MatQ.zero(n).is_identity()
    assert a * i is a and (i * a is a or a.is_identity())
    assert_matches(i * a, x)
    for near in (i * 2, i * F(1, 2), -i, i + MatQ.unit(n, n - 1, 0)):
        assert not near.is_identity()
        rows = [list(r) for r in near.rows]
        assert_matches(a * near, ref_mul(x, rows))
        assert_matches(near * a, ref_mul(rows, x))


# MatQ.dot against a test-local sum of Fraction products.  A factor is a
# random matrix (big-prime, negative-signed and zero entries among them), the
# identity, one of its neighbours (2I, I/2, -I, I + E_N1) or zero.

FACTOR_KINDS = ("random", "random", "I", "2I", "I/2", "-I", "I+E", "0")


def kind_rows(n, kind):
    scale = {"I": 1, "2I": 2, "I/2": F(1, 2), "-I": -1, "I+E": 1, "0": 0}[kind]
    rows = [[F(scale) if i == j else F(0) for j in range(n)] for i in range(n)]
    if kind == "I+E":
        rows[n - 1][0] += 1
    return rows


def ref_add(x, y):
    return [[u + v for u, v in zip(r, t)] for r, t in zip(x, y)]


def ref_dot(pairs, n):
    out = [[F(0)] * n for _ in range(n)]
    for x, y in pairs:
        out = ref_add(out, ref_mul(x, y))
    return out


@st.composite
def dot_inputs(draw):
    n = draw(st.integers(1, 4))
    cell = st.one_of(entries, st.builds(F, st.integers(-20, 20), st.integers(-9, -1)))

    def factor():
        kind = draw(st.sampled_from(FACTOR_KINDS))
        if kind == "random":
            return draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
        return kind_rows(n, kind)

    return n, [(factor(), factor()) for _ in range(draw(st.integers(0, 5)))]


@given(dot_inputs())
@example((2, []))
@example((2, [([[F(1, 3), F(2)], [F(0), F(-5, 7)]], kind_rows(2, "I"))]))
@example((2, [(kind_rows(2, "I"), [[F(1, 3), F(1)], [F(2), F(5, 7)]]),
              ([[F(1, 2), F(-1)], [F(0), F(3)]], kind_rows(2, "I")),
              ([[F(1, 2), F(0)], [F(0), F(1)]], [[F(1), F(1)], [F(0), F(1)]]),
              ([[F(1, 3), F(0)], [F(0), F(1)]], [[F(1), F(1)], [F(0), F(1)]])]))
@example((2, [(kind_rows(2, "I/2"), kind_rows(2, "2I")), (kind_rows(2, "0"), kind_rows(2, "-I"))]))
@settings(max_examples=200, deadline=None)
def test_dot_matches_a_sum_of_fraction_products(inputs):
    """MatQ.dot is the exact sum of the products, in canonical form; one pair
    is the product itself (so a * I is a) and no pairs are the zero matrix."""
    n, pairs = inputs
    mats = [(MatQ(x), MatQ(y)) for x, y in pairs]
    out = MatQ.dot(mats, n)
    assert_matches(out, ref_dot(pairs, n))
    if len(mats) == 1 and mats[0][1].is_identity():
        assert out is mats[0][0]


def test_dot_rejects_a_dimension_mismatch():
    with pytest.raises(ValueError):
        MatQ.dot([(MatQ.identity(2), MatQ.identity(2)), (MatQ.identity(3), MatQ.identity(3))], 2)


# MatPoly products against a test-local schoolbook product of Fraction
# coefficient lists; leading zero coefficients are the bodies scale_x makes.

def ref_poly_mul(p, q, n):
    out = [[[F(0)] * n for _ in range(n)] for _ in range(len(p) + len(q) - 1)]
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] = ref_add(out[i + j], ref_mul(x, y))
    while out and not any(map(any, out[-1])):
        out.pop()
    return out


def matpoly(coeffs, n):
    return MatPoly([MatQ(c) for c in coeffs], n)


def assert_poly_matches(poly, expected):
    assert len(poly.coeffs) == len(expected)
    for c, rows in zip(poly.coeffs, expected):
        assert_matches(c, rows)


@st.composite
def poly_coeffs(draw, n):
    """Fraction coefficient lists of degree 0..4, some shifted up by scale_x."""
    kinds = st.sampled_from(("random", "random", "random", "I", "-I", "0"))
    square = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    coeffs = [draw(square) if k == "random" else kind_rows(n, k)
              for k in draw(st.lists(kinds, min_size=1, max_size=5))]
    return [kind_rows(n, "0")] * draw(st.integers(0, 2)) + coeffs


@st.composite
def poly_pairs(draw):
    n = draw(st.integers(1, 3))
    return n, draw(poly_coeffs(n)), draw(poly_coeffs(n))


@given(poly_pairs())
@settings(max_examples=120, deadline=None)
def test_matpoly_product_matches_the_schoolbook_product(inputs):
    n, p, q = inputs
    assert_poly_matches(matpoly(p, n) * matpoly(q, n), ref_poly_mul(p, q, n))
    assert_poly_matches(matpoly(p, n).scale_x(2) * matpoly(q, n),
                        ref_poly_mul([kind_rows(n, "0")] * 2 + p, q, n))


def test_matpoly_product_makes_one_gcd_pass_per_coefficient(monkeypatch):
    """Each coefficient of a product is one fused sum: one canonical-form
    pass, however many block products it adds up."""
    p = MatPoly([MatQ([[F(k + 1, 3), F(-2, k + 5)], [F(k, 7), F(5, k + 2)]]) for k in range(4)], 2)
    q = MatPoly([MatQ([[F(3, k + 2), F(1, 4)], [F(-k - 1, 5), F(k + 2, 3)]]) for k in range(3)], 2)
    passes = []
    canonical = MatQ._canonical

    def counting(num, d):
        passes.append(None)
        return canonical(num, d)

    monkeypatch.setattr(MatQ, "_canonical", staticmethod(counting))
    out = p * q
    monkeypatch.undo()
    assert len(out.coeffs) == 6
    assert len(passes) == 6


def test_positive_definiteness_by_minors():
    assert MatQ([[2, 6], [6, 30]]).is_positive_definite()
    assert not MatQ([[1, 3], [3, 1]]).is_positive_definite()
    assert not MatQ([[1, 2], [3, 4]]).is_positive_definite()


def test_build_A_J_commutator():
    for n, a in [(1, ()), (2, (F(3, 2),)), (4, (1, -2, F(1, 3)))]:
        A, J = build_A(a), build_J(n)
        assert A.N == n
        assert commutator(J, A) == A


def test_exp_nilpotent_identities():
    a = build_A((F(1, 2), -3))
    j = build_J(3)
    pos, neg = exp_nilpotent(a, +1), exp_nilpotent(a, -1)
    assert pos * neg == MatPoly.const(MatQ.identity(3))
    # e^{xA} J e^{-xA} = J - Ax
    lhs = pos * MatPoly.const(j) * neg
    assert lhs == MatPoly.const(j) - MatPoly.monomial(1, a)
    # entry formula: coefficient of x^{i-r} at (i, r) is (A^{i-r})_{i,r}/(i-r)!
    assert pos.coeff(2)[2, 0] == a[1, 0] * a[2, 1] / 2
    assert exp_nilpotent(MatQ.zero(1), 1) == MatPoly.const(MatQ.identity(1))
    with pytest.raises(ValueError):
        exp_nilpotent(MatQ([[0, 1], [0, 0]]), 1)


@given(st.integers(0, 6))
@settings(max_examples=10)
def test_build_K_conjugates_to_diagonal(n):
    nu, a, N = F(5, 2), (F(2), F(-1, 2), F(3)), 4
    A, J = build_A(a), build_J(N)
    k = build_K(n, nu, A)
    i = MatQ.identity(N)
    gamma = A * (i * (n + nu + 1) + J) - i * n - J
    lam = MatQ.diag([-(n + r) for r in range(1, N + 1)])
    assert k * lam * k.inverse() == gamma
    assert all(k[r, r] == 1 for r in range(N))
    # K_n^{-1} = exp(-A(n+nu+1+J)) is build_K at -A
    assert build_K(n, nu, -A) == k.inverse()


def test_build_K_subdiagonal_entry():
    # the conjugation property forces +a_1 (n+nu+2); the printed closed form
    # carries (-1)^{i-j}, which describes the inverse matrix instead
    n, nu, a = 3, F(1, 2), (F(7),)
    k = build_K(n, nu, build_A(a))
    assert k[1, 0] == a[0] * (n + nu + 2)
    assert build_K(n, nu, build_A((-a[0],)))[1, 0] == -a[0] * (n + nu + 2)


def test_matexp_nilpotent_matches_poly_at_one():
    a = build_A((2, 3))
    assert matexp_nilpotent(a) == exp_nilpotent(a, +1)(1)


@given(st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=20)
def test_matpoly_product_rule(d1, d2):
    import random

    rng = random.Random(d1 * 7 + d2)

    def rand_poly(deg):
        return MatPoly([
            MatQ([[F(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)])
            for _ in range(deg + 1)], 2)

    p, q = rand_poly(d1), rand_poly(d2)
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


def test_matpoly_transpose_involution_and_eval():
    p = MatPoly([MatQ([[1, 2], [3, 4]]), MatQ([[0, 1], [-1, 0]])], 2)
    assert p.transpose().transpose() == p
    assert p(F(1, 2)) == MatQ([[1, F(5, 2)], [F(5, 2), 4]])
    assert p.entry(0, 1) .coeffs == (2, 1)

