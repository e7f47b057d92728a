from fractions import Fraction as F
from itertools import chain
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvlaguerre.matrices import (MatLaurent, MatPoly, MatQ,
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


def test_positive_definiteness_by_minors():
    assert MatQ([[2, 6], [6, 30]]).is_positive_definite()
    assert not MatQ([[1, 3], [3, 1]]).is_positive_definite()
    assert not MatQ([[1, 2], [3, 4]]).is_positive_definite()


def test_build_A_J_commutator():
    for n, a in [(1, ()), (2, (F(3, 2),)), (4, (1, -2, F(1, 3)))]:
        A, J = build_A(a, n), build_J(n)
        assert commutator(J, A) == A
    with pytest.raises(ValueError):
        build_A((1, 2), 2)


def test_exp_nilpotent_identities():
    a = build_A((F(1, 2), -3), 3)
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
    k = build_K(n, nu, a, N)
    A, J = build_A(a, N), build_J(N)
    i = MatQ.identity(N)
    gamma = A * (i * (n + nu + 1) + J) - i * n - J
    lam = MatQ.diag([-(n + r) for r in range(1, N + 1)])
    assert k * lam * k.inverse() == gamma
    assert all(k[r, r] == 1 for r in range(N))
    # K_n^{-1} = exp(-A(n+nu+1+J)) is build_K at -a
    assert build_K(n, nu, tuple(-v for v in a), N) == k.inverse()


def test_build_K_subdiagonal_entry():
    # the conjugation property forces +a_1 (n+nu+2); the printed closed form
    # carries (-1)^{i-j}, which describes the inverse matrix instead
    n, nu, a = 3, F(1, 2), (F(7),)
    k = build_K(n, nu, a, 2)
    assert k[1, 0] == a[0] * (n + nu + 2)
    assert build_K(n, nu, (-a[0],), 2)[1, 0] == -a[0] * (n + nu + 2)


def test_matexp_nilpotent_matches_poly_at_one():
    a = build_A((2, 3), 3)
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


def test_matlaurent_roundtrip():
    p = MatPoly([MatQ([[1]]), MatQ([[2]])], 1)
    l = MatLaurent.from_poly(p)
    assert l.shift(-1).coeff(-1) == MatQ([[1]])
    assert l.derivative() == MatLaurent({0: MatQ([[2]])}, 1)
    assert (l - l).is_zero()
    assert (l * l).coeff(2) == MatQ([[4]])
