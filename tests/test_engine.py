import sys
import threading
from fractions import Fraction as F

import fraction_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvlaguerre.dual_hahn import build_delta_family
from mvlaguerre.engine import (OPSeq, compute_monic_ops, quoted_check,
                               scalar_laguerre_monic, verify_orthogonality,
                               verify_three_term)
from mvlaguerre.matrices import MatPoly, MatQ, SingularMatrixError, exp_nilpotent
from mvlaguerre.operators import apply_L_poly, make_named_operators, verify_L_poly
from mvlaguerre.scalar import RPoly
from mvlaguerre.weights import (MomentTable, UnsupportedWeightError, WeightSpec, inner_product,
                               moment_row)

SPEC2 = WeightSpec(2, F(1), (F(1),), (F(1), F(1)))


def _ok(checks):
    bad = [c for c in checks if not c["pass"]]
    assert not bad, bad


def test_quoted_check_reports_only_what_it_compared():
    """No pairs give no row; otherwise one row whose pass and
    displayed_form_pass are the conjunctions of the corrected and the
    printed verdicts."""
    assert quoted_check("q", "eq", []) == []
    assert quoted_check("q", "eq", [(True, False), (True, False)]) == [
        {"check_id": "q", "equation": "eq", "pass": True, "displayed_form_pass": False}]
    [row] = quoted_check("q", "eq", [(True, True), (False, True)])
    assert row["pass"] is False and row["displayed_form_pass"] is True
    [row] = quoted_check("q", "eq", [(True, True), (True, False)])
    assert row["pass"] is True and row["displayed_form_pass"] is False


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


@pytest.mark.parametrize("spec", RATIONAL_SPECS, ids=lambda s: f"N={s.N}")
def test_prefix_is_the_family_of_fewer_degrees(spec):
    """prefix(m) of a deeper family equals the oracle run at n_max = m, down
    to the closed forms read off it, and shares the deeper family's P, H,
    moment table and H inverses."""
    whole = compute_monic_ops(spec, 4)
    assert whole.prefix(4) is whole
    for m in range(4):
        short, ref = whole.prefix(m), compute_monic_ops(spec, m)
        assert (short.n_max, short.P, short.H, short.X, short.Y, short.B, short.C) \
            == (m, ref.P, ref.H, ref.X, ref.Y, ref.B, ref.C)
        assert (short.K, short.R, short.G, short.I) == (ref.K, ref.R, ref.G, ref.I)
        assert short.xi.values == ref.xi.values
        assert short.table is whole.table
        assert all(short.P[n] is whole.P[n] and short.h_inv(n) is whole.h_inv(n)
                   for n in range(m + 1))
    for m in (-1, 5):
        with pytest.raises(ValueError):
            whole.prefix(m)


CLOSED_FORMS = ("HJH", "T", "Gamma", "K", "K_inv", "Q", "R", "G", "I")


def test_prefix_slices_the_closed_forms_of_its_family(monkeypatch):
    """A prefix's closed forms are the [:m+1] slices of its family's tuples
    and its xi table is the family's at n <= m: the xi table is read off R
    once, however many prefixes read it, and a prefix of a prefix slices the
    same objects."""
    import mvlaguerre.laguerre_forms as lf

    reads = []
    read_xi = lf.read_xi
    monkeypatch.setattr(lf, "read_xi", lambda seq: reads.append(seq.n_max) or read_xi(seq))
    whole = compute_monic_ops(RATIONAL_SPECS[2], 4)
    for m in range(4):
        short = whole.prefix(m)
        for name in CLOSED_FORMS:
            sliced, full = getattr(short, name), getattr(whole, name)
            assert len(sliced) == m + 1 and all(a is b for a, b in zip(sliced, full)), name
        assert short.xi.n_max == m
        assert short.xi.values == {k: v for k, v in whole.xi.values.items() if k[0] <= m}
        inner = whole.prefix(3).prefix(m)
        assert all(a is b for a, b in zip(inner.R, whole.R)) and inner.xi.values == short.xi.values
    assert reads == [4]


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
        q = seq.P[n] * exp_nilpotent(spec.A)
        assert seq.Q[n] == q
        b = spec.A * (i * (n + spec.nu + 1) + spec.J)
        assert seq.R[n] == exp_nilpotent(-b)(1) * q


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
            row = moment_row(p, family.table, range(i + 1))
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
        assert [moment_row(p, family.table, range(i + 1)) for i, p in enumerate(family.P)] == [
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


def _perturbed_families(spec, n_max):
    """The family of `spec`, then each family with one coefficient of one
    P_m bumped by E_11 / 1000 or zeroed (a zeroed leading coefficient drops
    the degree of P_m); B and C are read off the perturbed P."""
    seq = compute_monic_ops(spec, n_max)
    yield "clean", seq
    bump = MatQ.unit(spec.N, 0, 0) * F(1, 1000)
    for m, p in enumerate(seq.P):
        for k, c in enumerate(p.coeffs):
            for how, new in (("bumped", c + bump), ("zeroed", MatQ.zero(spec.N))):
                coeffs = list(p.coeffs)
                coeffs[k] = new
                P = list(seq.P)
                P[m] = MatPoly(coeffs, spec.N)
                yield f"P_{m} coefficient {k} {how}", OPSeq(spec, seq.table, P, seq.H)


@pytest.mark.parametrize("spec", RATIONAL_SPECS, ids=lambda s: f"N={s.N}")
def test_fused_three_term_matches_the_matpoly_identity(spec):
    """The one-fused-sum-per-coefficient check gives the verdict of the
    MatPoly identity x P_k = P_{k+1} + B_k P_k + C_k P_{k-1} at every k, on
    the family and on every one-coefficient perturbation of it, and each
    perturbation fails at some k."""
    for what, seq in _perturbed_families(spec, 4):
        fused = [c["pass"] for c in verify_three_term(seq)
                 if c["equation"] == "three-term-recurrence"]
        expected = ref.three_term_residuals(seq)
        assert fused == expected, what
        assert all(fused) == (what == "clean"), what


@pytest.mark.parametrize("n_max", [-1, -2])
def test_negative_degree_is_rejected(n_max):
    with pytest.raises(ValueError, match="n_max"):
        compute_monic_ops(SPEC2, n_max)


def test_phi_other_than_x_is_rejected_by_the_moments():
    spec = WeightSpec(2, F(1), (F(1),), (F(1), F(1)), RPoly((0, 0, 1)))
    with pytest.raises(UnsupportedWeightError, match="phi"):
        compute_monic_ops(spec, 2)


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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 30), st.data())
def test_entrywise_Gamma_is_the_matq_expression(N, n_max, data):
    """OPSeq.Gamma, built entry by entry on the numerators of A and nu,
    equals A(n+nu+1+J) - n - J at every degree.  Gamma reads only the spec
    and the number of degrees, so the family here is the identity at each."""
    rats = st.fractions(F(1, 30), 50, max_denominator=30)
    spec = WeightSpec(N, data.draw(rats),
                      [data.draw(rats) * data.draw(st.sampled_from([1, -1])) for _ in range(N - 1)],
                      [data.draw(rats) for _ in range(N)])
    i = MatQ.identity(N)
    seq = OPSeq(spec, None, [MatPoly.const(i)] * (n_max + 1), [i] * (n_max + 1))
    assert seq.Gamma == tuple(spec.A * (i * (n + spec.nu + 1) + spec.J) - i * n - spec.J
                              for n in range(n_max + 1))
