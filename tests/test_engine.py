import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvlaguerre.dual_hahn import build_delta_family
from mvlaguerre.engine import (OPSeq, compute_monic_ops, moment_row,
                               scalar_laguerre_monic, verify_orthogonality,
                               verify_three_term)
from mvlaguerre.matrices import (MatPoly, MatQ, SingularMatrixError, exp_nilpotent,
                                 matexp_nilpotent)
from mvlaguerre.operators import apply_L_poly, make_named_operators, verify_L_poly
from mvlaguerre.scalar import RPoly
from mvlaguerre.weights import MomentTable, WeightSpec, inner_product

SPEC2 = WeightSpec(2, F(1), (F(1),), (F(1), F(1)))


def _ok(checks):
    bad = [c for c in checks if not c["pass"]]
    assert not bad, bad


def test_monic_and_low_degree_data():
    seq = compute_monic_ops(SPEC2, 3)
    for n, p in enumerate(seq.P):
        assert p.degree == n
        assert p.coeff(n) == MatQ.identity(2)
    assert seq.H[0] == MatQ([[2, 6], [6, 30]])
    assert seq.H[1] == MatQ([[3, 12], [12, 120]])
    assert seq.X[1] == MatQ([["-3/2", "-1/2"], [6, -6]])
    assert seq.X[2] == MatQ([["-16/3", "-2/3"], ["40/3", "-40/3"]])
    assert seq.Y[2] == MatQ([[4, "8/3"], [-40, "100/3"]])
    assert seq.C[1] == MatQ([["3/4", "1/4"], [-15, 7]])


def test_orthogonality_and_three_term():
    seq = compute_monic_ops(SPEC2, 5)
    _ok(verify_orthogonality(seq))
    _ok(verify_three_term(seq))


def test_uniqueness_under_permuted_projection_order():
    seq = compute_monic_ops(SPEC2, 4)
    permuted, _ = _subtract_chain(SPEC2, 4, lambda d: list(range(d))[::-1])
    assert all(a == b for a, b in zip(seq.P, permuted))


def test_scalar_reduction_matches_classical_recurrence():
    nu = F(1, 2)
    spec = WeightSpec(1, nu, (), (F(1),))
    seq = compute_monic_ops(spec, 6)
    p_ref, b_ref, c_ref = scalar_laguerre_monic(nu + 1, 6)
    for n in range(7):
        assert seq.P[n].entry(0, 0) == p_ref[n]
    assert seq.P[1].entry(0, 0) == RPoly((-(nu + 2), 1))
    for n in range(1, 7):
        assert seq.C[n][0, 0] == n * (n + nu + 1) == c_ref[n]
    for n in range(6):
        assert seq.B[n][0, 0] == b_ref[n]


def test_apply_L_poly_identity_and_square():
    seq = compute_monic_ops(SPEC2, 6)
    ops = make_named_operators(seq)
    vl = apply_L_poly(RPoly.x(), ops["L"])
    interior = range(1, 5)
    assert vl.agrees_with(ops["L"], interior)
    _ok(verify_L_poly(RPoly((0, 0, 1)), seq, ops))
    const = apply_L_poly(RPoly((F(7, 2),)), ops["L"])
    assert const.act(seq.P, 2) == MatPoly.const(MatQ.identity(2) * F(7, 2)) * seq.P[2]


def test_singular_weight_reported():
    # delta must be positive; the constructor rejects it before H can go bad
    with pytest.raises(ValueError):
        WeightSpec(2, F(1), (F(1),), (F(0), F(1)))


RATIONAL_SPECS = [
    WeightSpec(1, F(7, 3), (), (F(11, 4),)),
    WeightSpec(2, F(5, 8), (F(-9, 7),), (F(6, 5), F(7, 9))),
    WeightSpec(3, F(7, 3), (F(5, 2), F(-3, 7)), (F(2, 3), F(5), F(11, 4))),
    WeightSpec(4, F(5, 7), (F(-8, 5), F(9, 7), F(-6, 5)),
               (F(5, 6), F(7, 9), F(8, 5), F(9, 8))),
]


@pytest.mark.parametrize("spec", RATIONAL_SPECS, ids=lambda s: f"N={s.N}")
def test_norm_equals_full_self_product(spec):
    # the oracle takes H_n = <x^n I, P_n>; orthogonality makes it <P_n, P_n>
    seq = compute_monic_ops(spec, 5)
    for n in range(6):
        assert seq.H[n] == inner_product(seq.P[n], seq.P[n], seq.table)


@pytest.mark.parametrize("spec", RATIONAL_SPECS, ids=lambda s: f"N={s.N}")
def test_projection_order_does_not_change_the_family(spec):
    seq = compute_monic_ops(spec, 4)
    for order in (lambda d: list(range(d))[::-1],
                  lambda d: list(range(1, d, 2)) + list(range(0, d, 2))):
        P, H = _subtract_chain(spec, 4, order)
        C = tuple(H[k] * H[k - 1].inverse() for k in range(1, 5))
        assert (P, H, C) == (seq.P, seq.H, seq.C[1:])


def test_singular_norm_raises_when_first_needed():
    # delta_1 = 0 slips past the constructor's checks here; the first row of
    # every moment, and so of H_0, is then zero
    spec = WeightSpec(2, F(1), (F(1),), (F(1), F(1)))
    object.__setattr__(spec, "delta", (F(0), F(1)))
    assert compute_monic_ops(spec, 0).H[0].det() == 0
    with pytest.raises(SingularMatrixError,
                       match=r"^singular H_0; parameters violate the weight invariants$"):
        compute_monic_ops(spec, 1)


# the four rational specs and one dual Hahn family (c = 2, d = 1)
SHARED_SPECS = RATIONAL_SPECS + [build_delta_family(3, F(1, 2), 2, 1).spec]
SHARED_IDS = [f"N={s.N}" for s in RATIONAL_SPECS] + ["dual-Hahn"]


@pytest.mark.parametrize("spec", SHARED_SPECS, ids=SHARED_IDS)
def test_shared_matrices_match_the_slow_paths(spec):
    """The family's H_n^{-1}, K_n^{-1}, Q(x,n) and R(x,n) against the
    per-call computations they replaced: a fresh inverse, Q as P_n e^{xA},
    and R as exp(-B) times P_n e^{xA} with B = A(n+nu+1+J)."""
    seq = compute_monic_ops(spec, 4)
    i = MatQ.identity(spec.N)
    for n in range(5):
        assert seq.h_inv(n) == seq.H[n].inverse()
        assert seq.K_inv[n] == seq.K[n].inverse()
        q = seq.P[n] * exp_nilpotent(spec.A, +1)
        assert seq.Q[n] == q
        b = spec.A * (i * (n + spec.nu + 1) + spec.J)
        assert seq.R[n] == matexp_nilpotent(-b) * q


def test_family_is_immutable():
    seq = compute_monic_ops(SPEC2, 2)
    with pytest.raises(TypeError):
        seq.P[1] = seq.P[0]
    with pytest.raises(TypeError):
        seq.H[1] = seq.H[0]


def test_threads_racing_on_first_use_see_the_serial_values():
    """A shared family builds its derived matrices without a lock; threads
    racing on their first use may each compute them, and must all see the
    values a serial run computes.  Five fresh families, four threads each."""
    spec = RATIONAL_SPECS[2]

    def derived(seq):
        return seq.R, seq.K, seq.K_inv, tuple(seq.h_inv(n) for n in range(5))

    serial = derived(compute_monic_ops(spec, 4))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            seq, seen = compute_monic_ops(spec, 4), []
            start = threading.Barrier(4, timeout=60)

            def worker():
                start.wait()
                seen.append(derived(seq))

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert seen == [serial] * 4
    finally:
        sys.setswitchinterval(interval)


def _skewed(seq):
    """The family with A + J added to every coefficient below the leading
    I: still of degree n at n, but not orthogonal, and with nonsymmetric
    coefficients for N >= 2."""
    shift = seq.spec.A + seq.spec.J
    P = [MatPoly([c + shift for c in p.coeffs[:-1]] + [p.coeffs[-1]], p.N) for p in seq.P]
    return OPSeq(seq.spec, seq.table, P, seq.H)


def _assert_gram_rows_are_inner_products(seq):
    """On the family and on its skewed copy: the regrouped sum
    sum_b L_i[b] P_{j,b}^T over the moment row L_i = moment_row(P_i) equals
    inner_product(P_i, P_j) for every j < i, and verify_orthogonality's
    verdict for (i, j) is whether that inner product vanishes."""
    for family in (seq, _skewed(seq)):
        verdicts = {c["check_id"]: c["pass"] for c in verify_orthogonality(family)}
        for i, p in enumerate(family.P):
            row = moment_row(p, family.table)
            for j, q in enumerate(family.P[:i]):
                ip = inner_product(p, q, family.table)
                regrouped = MatQ.dot([(m, c.transpose()) for m, c in zip(row, q.coeffs)],
                                     family.spec.N)
                assert regrouped == ip
                assert verdicts[f"orthogonality n={i},m={j}"] == ip.is_zero()


@pytest.mark.parametrize("spec", SHARED_SPECS, ids=SHARED_IDS)
def test_gram_rows_equal_the_inner_product(spec):
    """The regrouped sum sum_b L_i[b] P_{j,b}^T against inner_product(P_i, P_j),
    on the oracle family (all zero) and on a skewed family (mostly not)."""
    seq = compute_monic_ops(spec, 5)
    _assert_gram_rows_are_inner_products(seq)
    skewed = _skewed(seq)
    assert any(not inner_product(p, q, seq.table).is_zero()
               for i, p in enumerate(skewed.P) for q in skewed.P[:i])
    assert not all(c["pass"] for c in verify_orthogonality(skewed)
                   if c["check_id"].startswith("orthogonality"))


@pytest.mark.parametrize("spec", SHARED_SPECS, ids=SHARED_IDS)
def test_moment_rows_and_the_C_ratio_side_are_inner_products(spec):
    """moment_row(P_i)[b] = <P_i, x^b I> for b <= i, on the oracle family
    and on a skewed one, and the C-ratio check compares C_k H_{k-1} with
    <x P_k, P_{k-1}>."""
    seq = compute_monic_ops(spec, 4)
    i_n = MatQ.identity(spec.N)
    for family in (seq, _skewed(seq)):
        assert [moment_row(p, family.table) for p in family.P] == [
            [inner_product(p, MatPoly.monomial(b, i_n), family.table) for b in range(i + 1)]
            for i, p in enumerate(family.P)]
    for k in range(1, seq.n_max + 1):
        assert seq.C[k] * seq.H[k - 1] == inner_product(seq.P[k].scale_x(1), seq.P[k - 1],
                                                        seq.table)


def test_C_ratio_fails_when_H_3_is_doubled():
    """C is built as H_k H_{k-1}^{-1}; with H_3 doubled, C_3 doubles while
    <x P_3, P_2> does not, so exactly C-ratio n=3 fails (C_4 H_3 is
    unchanged)."""
    seq = compute_monic_ops(SHARED_SPECS[1], 5)
    H = list(seq.H)
    H[3] = H[3] * 2
    broken = OPSeq(seq.spec, seq.table, seq.P, H)
    _ok(verify_orthogonality(seq))
    failed = [c["check_id"] for c in verify_orthogonality(broken)
              if c["equation"] == "recurrence-coefficients" and not c["pass"]]
    assert failed == ["C-ratio n=3"]


positive_rats = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9)
nonzero_rats = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


@st.composite
def weight_specs(draw, max_dim=3):
    n = draw(st.integers(1, max_dim))
    return WeightSpec(n, draw(positive_rats),
                      tuple(draw(st.lists(nonzero_rats, min_size=n - 1, max_size=n - 1))),
                      tuple(draw(st.lists(positive_rats, min_size=n, max_size=n))))


@given(weight_specs(), st.integers(0, 4))
@settings(max_examples=25, deadline=None)
def test_gram_rows_equal_the_inner_product_on_random_specs(spec, n_max):
    _assert_gram_rows_are_inner_products(compute_monic_ops(spec, n_max))


@pytest.mark.parametrize("i, k", [(1, 0), (3, 0), (3, 1), (4, 3)])
def test_orthogonality_fails_exactly_at_a_perturbed_coefficient(i, k):
    """Adding eps E_11 x^k (k < i) to P_i changes <P_i, P_j> by
    eps E_11 <x^k I, P_j>, which vanishes for k < j by orthogonality, and
    <P_l, P_i> for l > i by <P_l, x^k I> eps E_11^T = 0.  So exactly the
    checks n=i,m=j with j <= k fail: for the constant coefficient only
    m=0, for the one-but-leading every m < i.  The C-ratio side
    <x P_i, P_{i-1}> changes by eps E_11 <x^{k+1} I, P_{i-1}>, nonzero
    exactly for k >= i-2, and <x P_{i+1}, P_i> by
    <P_{i+1}, x^{k+1} I> eps E_11^T = 0; so C-ratio n=i fails too exactly
    when k >= i-2."""
    seq = compute_monic_ops(RATIONAL_SPECS[2], 5)
    eps = MatQ.unit(3, 0, 0) * F(1, 1000)
    P = list(seq.P)
    P[i] = P[i] + MatPoly.monomial(k, eps)
    checks = verify_orthogonality(OPSeq(seq.spec, seq.table, P, seq.H))
    failed = {c["check_id"] for c in checks if not c["pass"]}
    assert failed == ({f"orthogonality n={i},m={j}" for j in range(k + 1)}
                      | ({f"C-ratio n={i}"} if k >= i - 2 else set()))


def _subtract_chain(spec, n_max, projection_order=None):
    """Gram-Schmidt as one MatPoly subtraction per projection term, with a
    fresh H_m^{-1} per use: the loop the oracle's one-sum-per-coefficient
    form replaced."""
    table = MomentTable(spec, 2 * n_max + 2)
    P, H = [], []
    for deg in range(n_max + 1):
        xn = MatPoly.monomial(deg, MatQ.identity(spec.N))
        p = xn
        order = list(range(deg)) if projection_order is None else projection_order(deg)
        for m in order:
            coef = inner_product(xn, P[m], table) * H[m].inverse()
            p = p - MatPoly.const(coef) * P[m]
        P.append(p)
        H.append(inner_product(xn, p, table))
    return tuple(P), tuple(H)


ORDERS = {"natural": None, "reversed": lambda d: list(range(d))[::-1],
          "odd-even": lambda d: list(range(1, d, 2)) + list(range(0, d, 2))}


@pytest.mark.parametrize("order", list(ORDERS))
@pytest.mark.parametrize("spec", SHARED_SPECS, ids=SHARED_IDS)
def test_gram_schmidt_equals_the_subtraction_chain(spec, order):
    seq = compute_monic_ops(spec, 5)
    assert (seq.P, seq.H) == _subtract_chain(spec, 5, ORDERS[order])


@given(weight_specs(), st.integers(0, 4), st.sampled_from(list(ORDERS)))
@settings(max_examples=25, deadline=None)
def test_gram_schmidt_equals_the_subtraction_chain_on_random_specs(spec, n_max, order):
    seq = compute_monic_ops(spec, n_max)
    assert (seq.P, seq.H) == _subtract_chain(spec, n_max, ORDERS[order])
