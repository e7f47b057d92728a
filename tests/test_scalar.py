from fractions import Fraction as F
from math import factorial

import fraction_reference as ref
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvlaguerre.scalar import (DomainError, RPoly, dual_hahn,
                               dual_hahn_via_recurrence, lambda_lattice,
                               laguerre_numerators, laguerre_poly, parse_phi,
                               pochhammer, rat, rat_str)

small_rats = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def test_pochhammer_base_cases():
    assert pochhammer(F(7, 3), 0) == 1
    assert pochhammer(2, 3) == 24
    assert pochhammer(F(5, 2), 1) == F(5, 2)


@given(small_rats, st.integers(0, 10), st.integers(0, 10))
def test_pochhammer_splits_additively(a, m, n):
    assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)


def test_rat_rejects_floats_and_formats():
    with pytest.raises(TypeError):
        rat(0.5)
    assert rat_str(F(3, 4)) == "3/4"
    assert rat_str(F(8, 4)) == "2"
    for bad in ("1/0", "0/0", "-3/0"):
        with pytest.raises(DomainError):
            rat(bad)


def test_laguerre_small_cases():
    assert laguerre_poly(F(1, 2), 0) == RPoly.one()
    assert laguerre_poly(0, 1) == RPoly((1, -1))
    # brute-force series at alpha = 0, n = 2: 1 - 2x + x^2/2
    assert laguerre_poly(0, 2) == RPoly((1, -2, F(1, 2)))


def _laguerre_by_pochhammer(alpha, n):
    """L_n^(alpha) coefficient by coefficient:
    (-1)^k (alpha+k+1)_{n-k} / ((n-k)! k!) at x^k."""
    coeffs = []
    for k in range(n + 1):
        rising = F(1)
        for t in range(n - k):
            rising *= alpha + k + 1 + t
        coeffs.append((-1) ** k * rising / (factorial(n - k) * factorial(k)))
    return RPoly(coeffs)


@given(st.one_of(st.sampled_from([F(-1), F(-2), F(-5)]),
                 st.fractions(-12, 12, max_denominator=7)),
       st.integers(0, 12))
@example(F(-1), 0)
@example(F(-1), 4)
@example(F(-2), 1)
@example(F(-2), 2)
@example(F(-2), 9)
@example(F(-5), 3)
@example(F(-5), 5)
@example(F(-5), 11)
def test_laguerre_poly_matches_the_pochhammer_formula(alpha, n):
    # at a negative integer alpha = -m with m <= n, the coefficients of
    # x^0..x^{m-1} vanish; the recurrence must reproduce those zeros exactly
    assert laguerre_poly(alpha, n) == _laguerre_by_pochhammer(alpha, n)


@pytest.mark.parametrize("alpha", [F(0), F(1, 2), F(7, 3)])
@pytest.mark.parametrize("n", [0, 1, 3, 7, 12])
def test_laguerre_value_at_zero(alpha, n):
    assert laguerre_poly(alpha, n)(0) == pochhammer(alpha + 1, n) / factorial(n)


@pytest.mark.parametrize("alpha", [F(0), F(1, 2), F(5, 2), F(9, 2)])
@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_laguerre_derivative_matches_coefficientwise(alpha, n):
    # d/dx L_n^(alpha) = -L_{n-1}^(alpha+1), and L_0 is constant
    assert laguerre_poly(alpha, n).derivative() == -laguerre_poly(alpha + 1, n - 1)
    assert laguerre_poly(alpha, 0).derivative().is_zero()


def test_laguerre_derivative_degree_one():
    assert laguerre_poly(F(3, 2), 1).derivative() == RPoly((-1,))


def test_dual_hahn_trivial_and_domain():
    assert dual_hahn(0, F(7, 5), F(1, 2), F(3), 4) == 1
    with pytest.raises(DomainError):
        dual_hahn(5, 1, F(1, 2), 0, 4)


def test_dual_hahn_recurrence_seed():
    gamma, M = F(1, 2), 3
    s1 = ref.dual_hahn_recurrence_step(F(1), F(0), 0, gamma, F(2), M, F(9))
    assert s1 == 9 + (gamma + 1) * (-M)


@pytest.mark.parametrize("gamma", [F(0), F(1, 2), F(2)])
@pytest.mark.parametrize("delta", [F(-1), F(0), F(3, 2)])
def test_dual_hahn_sum_equals_recurrence(gamma, delta):
    for M in range(1, 7):
        for k in range(M + 1):
            for x in (F(0), F(1), F(5, 2), F(-2, 3)):
                assert dual_hahn(k, x, gamma, delta, M) == \
                    dual_hahn_via_recurrence(k, x, gamma, delta, M)


def test_lambda_lattice():
    assert lambda_lattice(2, F(1), F(1)) == 2 * (2 + 3)


def test_rpoly_arithmetic():
    p = RPoly((1, 2, 3))
    q = RPoly((0, -1))
    assert (p * q).coeffs == (0, -1, -2, -3)
    assert p.derivative() == RPoly((2, 6))
    assert p(F(1, 2)) == 1 + 1 + F(3, 4)
    assert (p - p).is_zero() and RPoly.zero().degree == -1


def test_parse_phi():
    assert parse_phi("x^3+x^2") == RPoly((0, 0, 1, 1))
    assert parse_phi("1/2x^2 - 3x + 1") == RPoly((1, -3, F(1, 2)))
    assert parse_phi("2*x") == RPoly((0, 2))
    assert parse_phi("-x^4 + x") == RPoly((0, 1, 0, 0, -1))
    for bad in ("", "x^", "y+1", "x**2", "1/0x", "1/0", "x^2+0/0x"):
        with pytest.raises(DomainError):
            parse_phi(bad)


# Exactness of the integer-numerator closed forms against their
# Fraction-by-Fraction references: equal values, and a DomainError with the
# same message on exactly the same inputs.  The arguments reach negative,
# zero and large-height rationals, ints, 'p/q' strings and zero-denominator
# strings (rat raises DomainError on those, so the order of the checks shows).

any_rats = st.one_of(
    st.fractions(min_value=-12, max_value=12, max_denominator=12),
    st.integers(-8, 8).map(F),
    st.builds(F, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 30)),
    st.integers(-5, 5),
    st.sampled_from(["0", "-7/3", "22/7", "1/0", "-3/0"]),
)
# gamma at a negative integer makes (gamma+1)_m vanish inside the sum
gammas = st.one_of(any_rats, st.integers(-7, -1).map(F))
# x at a small integer makes the (-x)_m numerator factor vanish
nodes = st.one_of(any_rats, st.integers(0, 7))


def _outcome(f, *args):
    try:
        return "value", f(*args)
    except DomainError as exc:
        return "DomainError", str(exc)


@settings(max_examples=300)
@given(any_rats, st.integers(-3, 14))
@example(F(-3), 5)
@example(F(0), 0)
@example("1/0", -1)
def test_pochhammer_equals_the_fraction_reference(a, n):
    assert _outcome(pochhammer, a, n) == _outcome(ref.pochhammer, a, n)


@settings(max_examples=300)
@given(any_rats, st.integers(-2, 12))
@example(F(-4), 9)
@example(F(-1, 3), 0)
def test_laguerre_poly_equals_the_fraction_reference(alpha, n):
    assert _outcome(laguerre_poly, alpha, n) == _outcome(ref.laguerre_poly, alpha, n)


@given(any_rats.filter(lambda a: not isinstance(a, str)), st.integers(0, 12))
def test_laguerre_numerators_are_the_coefficients_over_one_denominator(alpha, n):
    nums, den = laguerre_numerators(alpha, n)
    alpha = F(alpha)
    assert len(nums) == n + 1 and all(isinstance(v, int) for v in nums)
    assert den == alpha.denominator ** n * factorial(n)
    assert nums[n] == (-alpha.denominator) ** n
    assert RPoly([F(v, den) for v in nums]) == ref.laguerre_poly(alpha, n)


@settings(max_examples=400)
@given(st.integers(-2, 7), nodes, gammas, any_rats, st.integers(-2, 7))
@example(1, F(0), F(-1), F(0), 3)
@example(2, F(1), F(1, 2), F(0), 1)
@example(3, "1/0", F(0), F(0), 2)
@example(-1, F(1), F(1), F(1), 2)
def test_dual_hahn_sum_equals_the_fraction_reference(k, x, gamma, delta, M):
    assert _outcome(dual_hahn, k, x, gamma, delta, M) == \
        _outcome(ref.dual_hahn, k, x, gamma, delta, M)


@settings(max_examples=400)
@given(st.integers(-2, 7), nodes, gammas, any_rats, st.integers(-2, 7))
@example(2, F(1), F(-2), F(0), 4)
@example(-1, F(1), F(1), F(1), 2)
@example(-1, "1/0", F(1), F(1), 2)
@example(3, F(2), F(1, 2), F(-5, 2), -1)
def test_dual_hahn_recurrence_equals_the_fraction_reference(k, x, gamma, delta, M):
    assert _outcome(dual_hahn_via_recurrence, k, x, gamma, delta, M) == \
        _outcome(ref.dual_hahn_via_recurrence, k, x, gamma, delta, M)


def test_the_exactness_inputs_reach_every_domain_error():
    """The drawn arguments above can hit each DomainError branch."""
    assert _outcome(pochhammer, 1, -1)[0] == "DomainError"
    assert _outcome(laguerre_poly, 1, -1)[0] == "DomainError"
    assert _outcome(dual_hahn, 1, F(0), F(-1), F(0), 3) == \
        ("DomainError", "vanishing denominator Pochhammer in 3F2 sum")
    assert _outcome(dual_hahn_via_recurrence, 2, F(1), F(-2), F(0), 4) == \
        ("DomainError", "vanishing normalization in dual Hahn recurrence")
    assert _outcome(dual_hahn_via_recurrence, -1, F(1), F(1), F(1), 2) == \
        ("DomainError", "pochhammer needs n >= 0")
    assert _outcome(dual_hahn, 1, "1/0", F(0), F(0), 2) == \
        ("DomainError", "zero denominator in '1/0'")
