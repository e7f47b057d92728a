from fractions import Fraction as F
from functools import cache
from math import factorial

import fraction_reference as ref
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvlaguerre.dual_hahn import build_delta_family
from mvlaguerre.engine import OPSeq, check, compute_monic_ops, quoted_check
from mvlaguerre.laguerre_forms import (ClosedFormViolation, _K_closed_form,
                                       _K_coefficients, compute_GI,
                                       extract_xi,
                                       h_recursion_next, h1_from_h0,
                                       verify_H_recursion, verify_K_properties,
                                       verify_Q_relation, verify_R_eigen,
                                       verify_X1_bootstrap, verify_X_recursion,
                                       verify_displayed_xi_recursions,
                                       read_xi, verify_xi_tables, x1_from_h0,
                                       xi_by_recursion, XiTable)
from mvlaguerre.matrices import MatPoly, MatQ, commutator
from mvlaguerre.operators import second_order_diagonalized
from mvlaguerre.scalar import pochhammer
from mvlaguerre.weights import WeightSpec
# imported here, not inside a @given test: importing test_engine applies its
# own @given decorators, which hypothesis rejects as nested
from test_engine import RATIONAL_SPECS

SPEC2 = WeightSpec(2, F(1), (F(1),), (F(1), F(1)))
SPECS = [
    SPEC2,
    WeightSpec(2, F(5, 2), (F(-1),), (F(1), F(2))),
    WeightSpec(3, F(1, 2), (F(1), F(-2)), (F(1), F(1, 2), F(3))),
]


def _ok(checks):
    bad = [c for c in checks if not c["pass"]]
    assert not bad, bad


@pytest.fixture(scope="module", params=range(len(SPECS)))
def seq(request):
    return compute_monic_ops(SPECS[request.param], 5)


def test_K_properties(seq):
    _ok(verify_K_properties(seq))


@pytest.mark.parametrize("nu", [F(1, 2), F(1), F(5, 2)])
def test_K_properties_wide_grid(nu):
    spec = WeightSpec(4, nu, (F(1), F(-1, 2), F(3)), (F(1), F(1), F(2), F(1, 3)))
    _ok(verify_K_properties(compute_monic_ops(spec, 8)))


def test_R_eigen_equation(seq):
    _ok(verify_R_eigen(seq))


def test_operator_diagonalization(seq):
    from mvlaguerre.laguerre_forms import verify_diagonalization

    _ok(verify_diagonalization(seq.spec))


def test_extraction_frozen_values():
    seq = compute_monic_ops(SPEC2, 3)
    xi = extract_xi(seq)
    assert xi.get(0, 1, 1) == 1
    assert xi.get(0, 2, 1) == -1
    assert xi.get(1, 1, 1) == F(-1, 2)
    assert xi.get(1, 1, 2) == F(-1, 2)
    assert xi.get(1, 2, 1) == 2
    assert xi.get(2, 1, 1) == F(2, 3)


def test_extraction_zero_pattern(seq):
    xi = extract_xi(seq)
    for n in range(seq.n_max + 1):
        for i in range(1, seq.spec.N + 1):
            for j in range(1, seq.spec.N + 1):
                if n + i - j < 0:
                    assert xi.get(n, i, j) == 0
                    assert (n, i, j) not in xi.values
                else:
                    assert (n, i, j) in xi.values


def test_R_at_zero_corollary(seq):
    from mvlaguerre.scalar import pochhammer

    xi = extract_xi(seq)
    nu = seq.spec.nu
    for n in range(seq.n_max + 1):
        r0 = seq.R[n](0)
        for i in range(1, seq.spec.N + 1):
            for j in range(1, seq.spec.N + 1):
                deg = n + i - j
                if deg < 0:
                    assert r0[i - 1, j - 1] == 0
                else:
                    expect = pochhammer(nu + j + 1, deg) / factorial(deg) * xi.get(n, i, j)
                    assert r0[i - 1, j - 1] == expect
            if n + i <= seq.spec.N:
                assert r0[i - 1, n + i - 1] == xi.get(n, i, n + i)
            if 1 <= n + i - 1 <= seq.spec.N:
                assert r0[i - 1, n + i - 2] == (n + nu + i) * xi.get(n, i, n + i - 1)


def test_scalar_xi_is_signed_factorial():
    spec = WeightSpec(1, F(1, 2), (), (F(1),))
    seq = compute_monic_ops(spec, 6)
    xi = extract_xi(seq)
    for n in range(7):
        assert xi.get(n, 1, 1) == F(-1) ** n * factorial(n)
        # R coincides with P itself in the scalar case
        assert seq.R[n] == seq.P[n]


def test_GI_structure_and_frozen_values(seq):
    checks = compute_GI(seq)
    _ok(checks)


def test_extraction_rejects_corrupted_family():
    from mvlaguerre.matrices import MatPoly

    seq = compute_monic_ops(SPEC2, 3)
    P = list(seq.P)
    P[2] = P[2] + MatPoly.const(MatQ.unit(2, 0, 0))
    seq = OPSeq(seq.spec, seq.table, P, seq.H)
    with pytest.raises(ClosedFormViolation):
        extract_xi(seq)


def test_GI_frozen_example():
    seq = compute_monic_ops(SPEC2, 2)
    checks = compute_GI(seq)
    _ok(checks)
    assert seq.G[1] == MatQ([["-3/2", 0], [0, -6]])
    assert seq.I[0] == MatQ([[1, "1/2"], [0, 2]])


def test_xi_recursion_equals_extraction(seq):
    xi = extract_xi(seq)
    rec = xi_by_recursion(seq)
    _ok(verify_xi_tables(xi, rec))
    assert set(rec.values) == set(xi.values)


def _zero_pattern(checks):
    (ok,) = [c["pass"] for c in checks if c["check_id"] == "xi zero pattern"]
    return ok


@pytest.mark.parametrize("spec, key, value", [
    (SPEC2, (3, 1, 1), F(-3, 2)),
    (WeightSpec(3, 3, (F(-4, 3), F(-1, 4)), (F(3, 2), 1, F(5, 6))), (4, 2, 2), 0),
    # the dual Hahn family (c, d) = (0, 1)
    (WeightSpec(3, F(1, 2), (-1, -1), (1, F(1, 2), F(1, 2))), (1, 2, 2), 0),
])
def test_xi_zero_pattern_reads_the_keys_not_the_values(spec, key, value):
    """The table must hold xi(n,i,j) exactly where n+i-j >= 0, whatever the
    value (it may be 0 on the pattern): `key` dropped, or one key below the
    pattern added, fails the check."""
    seq = compute_monic_ops(spec, key[0])
    xi, rec = seq.xi, xi_by_recursion(seq)
    assert xi.values[key] == value
    _ok(verify_xi_tables(xi, rec))
    dropped, below = XiTable(xi.N, xi.n_max), XiTable(xi.N, xi.n_max)
    dropped.values = {k: v for k, v in xi.values.items() if k != key}
    below.values = {**xi.values, (0, 1, 2): F(0)}
    assert not _zero_pattern(verify_xi_tables(dropped, rec))
    assert not _zero_pattern(verify_xi_tables(below, rec))


def test_displayed_recursion_variants_fail(seq):
    checks = verify_displayed_xi_recursions(seq)
    _ok(checks)
    for c in checks:
        assert c["displayed_form_pass"] is False


@pytest.mark.parametrize("key, failing", [
    # read by the interior recursion alone
    ((2, 2, 1), {"multiplier-interior-recursion"}),
    # the n = 1 seed; the interior recursion and the i = 1 relation read it too
    ((1, 1, 2), {"multiplier-interior-recursion", "multiplier-boundary-seed",
                 "multiplier-boundary-relation"}),
    # the i = 1 relation at n = 2, and the interior recursion at (2, 2, 3)
    ((2, 1, 3), {"multiplier-interior-recursion", "multiplier-boundary-relation"}),
])
def test_displayed_xi_recursions_fail_on_a_perturbed_entry(key, failing):
    """A fresh family whose xi table has one entry raised by 1 fails the
    corrected side of exactly the recursions that read that entry."""
    seq = compute_monic_ops(SPECS[2], 4)
    bad = OPSeq(seq.spec, seq.table, seq.P, seq.H)
    bad.xi = seq.xi.prefix(seq.n_max)
    bad.xi.values[key] += 1
    good = verify_displayed_xi_recursions(seq)
    checks = verify_displayed_xi_recursions(bad)
    _ok(good)
    assert [c["check_id"] for c in checks] == [c["check_id"] for c in good]
    assert {c["equation"] for c in checks if not c["pass"]} == failing


def test_H_recursion_reproduces_oracle(seq):
    _ok(verify_H_recursion(seq))


def test_H_recursion_negative_control():
    seq = compute_monic_ops(SPEC2, 3)
    h = [seq.H[0], seq.H[1]]
    s = seq.spec
    wrong_a = WeightSpec(s.N, s.nu, (s.a[0] + 1,), s.delta, s.phi)
    assert h_recursion_next(s, h, [m.inverse() for m in h]) == seq.H[2]
    assert h_recursion_next(wrong_a, h, [m.inverse() for m in h]) != seq.H[2]


def test_scalar_H_ratio():
    nu = F(5, 2)
    spec = WeightSpec(1, nu, (), (F(1),))
    seq = compute_monic_ops(spec, 5)
    for n in range(1, 5):
        assert seq.H[n + 1][0, 0] * seq.H[n][0, 0] ** -1 == (n + 1) * (n + nu + 2)
    _ok(verify_H_recursion(seq))


def test_X1_bootstrap(seq):
    _ok(verify_X1_bootstrap(seq))


def test_X1_frozen_and_scalar():
    seq = compute_monic_ops(SPEC2, 2)
    x1 = x1_from_h0(seq.spec, seq.H[0])
    assert x1 == MatQ([["-3/2", "-1/2"], [6, -6]])
    assert h1_from_h0(seq.spec, seq.H[0]) == seq.H[1]
    nu = F(1, 2)
    h0 = MatQ([[nu + 1]])
    assert x1_from_h0(WeightSpec(1, nu, (), (1,)), h0) == MatQ([[-(nu + 2)]])


def test_Q_relation(seq):
    _ok(verify_Q_relation(seq))


def test_Q_relation_negative_control():
    seq = compute_monic_ops(SPEC2, 3)
    H = list(seq.H)
    H[1] = H[1] + MatQ.unit(2, 0, 0)  # corrupt a norm
    seq = OPSeq(seq.spec, seq.table, seq.P, H)
    checks = verify_Q_relation(seq)
    assert any(not c["pass"] for c in checks)


def test_X_recursion_and_diagonal_claim(seq):
    checks = verify_X_recursion(seq)
    _ok(checks)
    row = next(c for c in checks if "derived form" in c["check_id"])
    assert row["displayed_form_pass"] is False
    diag = next(c for c in checks if "diagonal equals" in c["check_id"])
    assert diag["pass"]


def test_corrupted_norm_fails_the_coupling_checks():
    """A family built with one corrupted H_n derives its HJH, T, G and I
    from that H_n; the coupling structure, the X recursion and the bracket
    identities each catch it."""
    from mvlaguerre.operators import verify_bracket_identities

    seq = compute_monic_ops(SPECS[2], 4)
    H = list(seq.H)
    H[2] = H[2] + MatQ.unit(3, 1, 1)
    bad = OPSeq(seq.spec, seq.table, seq.P, H)
    for checks in (compute_GI(bad), verify_X_recursion(bad),
                   verify_bracket_identities(bad)):
        assert any(not c["pass"] for c in checks)


@pytest.mark.parametrize("name, failing", [
    ("ladder_raising", "ladder diagonalization"),
    ("second_order_diagonalized", "second-order diagonalization"),
    ("casimir_mult", "multiplication diagonalization"),
])
def test_each_diagonalization_can_fail(monkeypatch, name, failing):
    """Right multiplication by E_22 added to one side of one conjugation
    identity fails that identity alone."""
    import mvlaguerre.laguerre_forms as lf
    from mvlaguerre.matrices import MatPoly
    from mvlaguerre.operators import right_mult

    build = getattr(lf, name)
    monkeypatch.setattr(lf, name, lambda spec: build(spec) + right_mult(
        MatPoly.const(MatQ.unit(spec.N, 1, 1))))
    checks = lf.verify_diagonalization(SPECS[2])
    assert [c["check_id"] for c in checks if not c["pass"]] == [failing]


def test_X_recursion_fails_on_a_perturbed_norm():
    seq = compute_monic_ops(SPECS[2], 4)
    H = list(seq.H)
    H[2] = H[2] + MatQ.unit(3, 0, 0)
    checks = verify_X_recursion(OPSeq(seq.spec, seq.table, seq.P, H))
    assert "X recursion rows, derived form" in {c["check_id"] for c in checks if not c["pass"]}


def test_X_recursion_displayed_form_reads_row_1_only():
    """With I(n) chosen so that row 1 of the printed item (a) holds and the
    last row does not, its report reads True."""
    seq = compute_monic_ops(SPECS[2], 4)
    spec = seq.spec
    i = MatQ.identity(spec.N)
    seq.I = [-(i * n + x * spec.A - x + i * (n + 1 + spec.nu)) + MatQ.unit(spec.N, 2, 0)
             for n, x in enumerate(seq.X)]
    row = next(c for c in verify_X_recursion(seq) if "derived form" in c["check_id"])
    assert row["pass"] and row["displayed_form_pass"] is True


# read_xi runs on integer numerators; it must give the table, and raise
# ClosedFormViolation, exactly where the Fraction reference does.

positive = st.one_of(st.fractions(F(1, 40), 30, max_denominator=40),
                     st.builds(F, st.integers(1, 10 ** 20), st.integers(1, 10 ** 15)))
nonzero = st.builds(lambda sign, v: sign * v, st.sampled_from([1, -1]), positive)


@st.composite
def weight_specs(draw):
    N = draw(st.integers(1, 3))
    return WeightSpec(N, draw(positive), tuple(draw(nonzero) for _ in range(N - 1)),
                      tuple(draw(positive) for _ in range(N)))


@settings(max_examples=25, deadline=None)
@given(weight_specs(), st.integers(0, 4))
def test_read_xi_equals_the_fraction_reference(spec, n_max):
    seq = compute_monic_ops(spec, n_max)
    assert read_xi(seq).values == ref.read_xi(seq).values


CONTROL_SPECS = SPECS + [WeightSpec(3, F(7, 3), (F(5, 2), F(-3, 7)),
                                    (F(2, 3), F(5), F(11, 4)))]


@cache
def _control_family(index):
    return compute_monic_ops(CONTROL_SPECS[index], 4)


def _with_entry_added(seq, n, i, j, k, value):
    """The family with `value` x^k added to entry (i, j) of R(x, n)."""
    R = list(seq.R)
    R[n] = R[n] + MatPoly.monomial(k, MatQ.unit(seq.spec.N, i - 1, j - 1) * value)
    family = OPSeq(seq.spec, seq.table, seq.P, seq.H)
    family.R = tuple(R)  # shadows the cached R
    return family


def _assert_both_reject(family, message):
    for read in (read_xi, ref.read_xi):
        with pytest.raises(ClosedFormViolation) as info:
            read(family)
        assert str(info.value) == message


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(CONTROL_SPECS) - 1), st.data())
def test_read_xi_rejects_one_perturbed_coefficient(index, data):
    """One coefficient of one R entry of degree >= 1 moved, at or above its
    degree: no multiple of L_deg^(nu+j) has that shape, since every
    coefficient of L_deg^(nu+j) is nonzero for nu + j > 0."""
    seq = _control_family(index)
    N = seq.spec.N
    n, i, j = (data.draw(st.integers(0, seq.n_max)), data.draw(st.integers(1, N)),
               data.draw(st.integers(1, N)))
    deg = n + i - j
    assume(deg >= 1)
    k = data.draw(st.integers(0, deg + 1))
    family = _with_entry_added(seq, n, i, j, k, data.draw(nonzero))
    _assert_both_reject(family, f"R({n})[{i},{j}] is not a multiple of L_{deg}^(nu+{j})")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(CONTROL_SPECS) - 1), st.data())
def test_read_xi_rejects_a_nonzero_entry_below_the_degree_pattern(index, data):
    seq = _control_family(index)
    N = seq.spec.N
    assume(N >= 2)
    i = data.draw(st.integers(1, N - 1))
    j = data.draw(st.integers(i + 1, N))
    n = data.draw(st.integers(0, j - i - 1))  # n + i - j < 0
    k = data.draw(st.integers(0, 3))
    family = _with_entry_added(seq, n, i, j, k, data.draw(nonzero))
    _assert_both_reject(family, f"R({n})[{i},{j}] nonzero below the degree pattern")


def test_read_xi_controls_are_exact_at_the_boundary():
    """The smallest changes: the constant of L_1 entry R(0)[2,1] of SPEC2
    moved by 1, and 1 placed at R(0)[1,2], where n + i - j = -1."""
    seq = compute_monic_ops(SPEC2, 1)
    assert read_xi(seq).values == ref.read_xi(seq).values
    _assert_both_reject(_with_entry_added(seq, 0, 2, 1, 0, 1),
                        "R(0)[2,1] is not a multiple of L_1^(nu+1)")
    _assert_both_reject(_with_entry_added(seq, 0, 1, 2, 0, 1),
                        "R(0)[1,2] nonzero below the degree pattern")


# verify_R_eigen, verify_Q_relation and verify_H_recursion run entry by
# entry on integer numerators, and the H pass inverts each H_m once; each
# must give, verdict for verdict, what the generic forms they replaced give.

def _R_eigen_reference(seq):
    """D_Q acting on R(x,n) against Lambda_n R(x,n), as matrix polynomials."""
    dq = second_order_diagonalized(seq.spec)
    N = seq.spec.N
    return [dq.act(r) == MatPoly.const(MatQ.diag([-(n + k) for k in range(1, N + 1)])) * r
            for n, r in enumerate(seq.R)]


def _Q_relation_reference(seq):
    """-Q J == x Q' - (n+J) Q + T_n Q(x,n-1), as matrix polynomials."""
    J, i = seq.spec.J, MatQ.identity(seq.spec.N)
    out = []
    for n, q in enumerate(seq.Q):
        rhs = q.derivative().scale_x(1) - MatPoly.const(i * n + J) * q
        if n >= 1:
            rhs = rhs + MatPoly.const(seq.T[n]) * seq.Q[n - 1]
        out.append(-(q * J) == rhs)
    return out


def _H_step_reference(spec, H, H_inv):
    """H_{n+2} from the last two of H (and H_{n-1}) as one chain of MatQ
    products and sums, every term formed afresh:
    b_n = -[J, H_n J H_n^{-1}] + (A-1) H_{n+1} (A^T-1) H_n^{-1}
          - H_n (A^T-1) H_{n-1}^{-1} (A-1),
    H_{n+2} = (A-1)^{-2} (b_n (A-1) - 2 - H_{n+1} J H_{n+1}^{-1} + H_n J H_n^{-1}
              + (A-1) [J, H_{n+1} J H_{n+1}^{-1}]
              + (A-1) H_{n+1} (A^T-1) H_n^{-1} (A-1)) H_{n+1} (A^T-1)^{-1}."""
    A, J = spec.A, spec.J
    i = MatQ.identity(spec.N)
    am1, at1 = A - i, A.transpose() - i
    n = len(H) - 2
    hn, hn1 = H[n], H[n + 1]
    hjh_n, hjh_n1 = hn * J * H_inv[n], hn1 * J * H_inv[n + 1]
    bn = -commutator(J, hjh_n) + am1 * hn1 * at1 * H_inv[n]
    if n >= 1:
        bn = bn - hn * at1 * H_inv[n - 1] * am1
    inner = (bn * am1 - i * 2 - hjh_n1 + hjh_n
             + am1 * commutator(J, hjh_n1) + am1 * (hn1 * at1 * H_inv[n]) * am1)
    return am1.inverse() * am1.inverse() * inner * hn1 * at1.inverse()


def _H_recursion_reference(seq):
    """Each step with inverses of its own, taken afresh."""
    return [_H_step_reference(seq.spec, seq.H[:n], [h.inverse() for h in seq.H[:n]]) == seq.H[n]
            for n in range(2, seq.n_max + 1)]


def _verdicts(checks):
    return [c["pass"] for c in checks]


def _assert_match_the_references(seq):
    """The three checks against their references; returns whether any failed."""
    got = (_verdicts(verify_R_eigen(seq)), _verdicts(verify_Q_relation(seq)),
           _verdicts(verify_H_recursion(seq)))
    assert got == (_R_eigen_reference(seq), _Q_relation_reference(seq),
                   _H_recursion_reference(seq))
    return not all(map(all, got))


def _with_P_entry_added(seq, m, i, j, k, value):
    """The family with `value` x^k added to entry (i, j) (1-based) of P_m."""
    P = list(seq.P)
    P[m] = P[m] + MatPoly.monomial(k, MatQ.unit(seq.spec.N, i - 1, j - 1) * value)
    return OPSeq(seq.spec, seq.table, P, seq.H)


def _with_H_entry_added(seq, m, i, j, value):
    H = list(seq.H)
    H[m] = H[m] + MatQ.unit(seq.spec.N, i - 1, j - 1) * value
    return OPSeq(seq.spec, seq.table, seq.P, H)


@cache
def _rational_family(index):
    """The RATIONAL_SPECS families and, at index 4, the (c, d) = (2, 1)
    dual Hahn family, to degree 5."""
    specs = RATIONAL_SPECS + [build_delta_family(3, F(1, 2), 2, 1).spec]
    return compute_monic_ops(specs[index], 5)


@pytest.mark.parametrize("index", range(4), ids=lambda k: f"N={k + 1}")
def test_entrywise_checks_match_the_generic_forms_on_rational_specs(index):
    """Clean, every check passes; one corrupted coefficient of each P_m and
    one corrupted entry of each H_m give the references' verdicts, and some
    verdict fails in each."""
    seq = _rational_family(index)
    N = seq.spec.N
    assert not _assert_match_the_references(seq)
    for m in range(seq.n_max + 1):
        assert _assert_match_the_references(_with_P_entry_added(seq, m, N, 1, m // 2, F(-3, 7)))
        assert _assert_match_the_references(_with_H_entry_added(seq, m, 1, N, F(5, 11)))


@settings(max_examples=20, deadline=None)
@given(weight_specs(), st.integers(0, 4), st.data())
def test_entrywise_checks_match_the_generic_forms(spec, n_max, data):
    seq = compute_monic_ops(spec, n_max)
    N = spec.N
    assert not _assert_match_the_references(seq)
    m = data.draw(st.integers(0, n_max))
    i, j = data.draw(st.integers(1, N)), data.draw(st.integers(1, N))
    _assert_match_the_references(_with_P_entry_added(seq, m, i, j, data.draw(st.integers(0, m)),
                                                     data.draw(nonzero)))
    _assert_match_the_references(_with_H_entry_added(seq, m, i, j, data.draw(nonzero)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.data())
def test_R_eigen_fails_at_the_degree_of_one_perturbed_P_entry(index, data):
    """value x^k added to entry (i, j) of P_m adds exactly value x^k to entry
    (i, j) of R(x, m), which is a multiple of L_{m+i-j}^(nu+j) only if it is
    a constant and m + i - j = 0."""
    seq = _rational_family(index)
    N = seq.spec.N
    m, i, j = (data.draw(st.integers(0, seq.n_max)), data.draw(st.integers(1, N)),
               data.draw(st.integers(1, N)))
    k = data.draw(st.integers(0, m))
    assume(k >= 1 or m + i - j != 0)
    bad = _with_P_entry_added(seq, m, i, j, k, data.draw(nonzero))
    assert [c["check_id"] for c in verify_R_eigen(bad) if not c["pass"]] \
        == [f"R eigen-equation n={m}"]


@pytest.mark.parametrize("index", [1, 2, 3], ids=lambda k: f"N={k + 1}")
def test_R_eigen_with_nu_plus_one_fails_at_every_degree(index):
    """R(x, n) read against D_Q and Lambda_n of nu + 1: for N >= 2 every
    degree holds an entry of positive degree, which no longer solves its
    Laguerre equation."""
    seq = _rational_family(index)
    s = seq.spec
    shifted = OPSeq(WeightSpec(s.N, s.nu + 1, s.a, s.delta), seq.table, seq.P, seq.H)
    shifted.R = seq.R  # shadows the cached R
    checks = verify_R_eigen(shifted)
    assert len(checks) == seq.n_max + 1
    assert not any(_verdicts(checks))
    assert _R_eigen_reference(shifted) == _verdicts(checks)


@pytest.mark.parametrize("m", range(6))
def test_H_recursion_fails_on_one_corrupted_norm(m):
    seq = _rational_family(2)
    failing = [c["check_id"] for c in verify_H_recursion(_with_H_entry_added(seq, m, 2, 2, 1))
               if not c["pass"]]
    assert failing
    if m >= 2:
        assert f"H-recursion n={m}" in failing


def test_Q_relation_fails_when_T_Q_outgrows_Q():
    """T_n Q(x, n-1) of higher degree than Q(x, n) fails the relation: Q(x, 2)
    replaced by Q(x, 2) cut to degree 1."""
    seq = compute_monic_ops(SPECS[2], 3)
    Q = list(seq.Q)
    Q[2] = MatPoly(Q[2].coeffs[:2], seq.spec.N)
    seq.Q = tuple(Q)  # shadows the cached Q
    assert len((seq.T[2] * seq.Q[1]).coeffs) > len(seq.Q[2].coeffs)
    assert [c["check_id"] for c in verify_Q_relation(seq) if not c["pass"]] \
        == ["Q relation n=2", "Q relation n=3"]
    assert _Q_relation_reference(seq) == _verdicts(verify_Q_relation(seq))


@pytest.mark.parametrize("index", range(4), ids=lambda k: f"N={k + 1}")
def test_h_recursion_next_is_the_reference_step(index):
    """h_recursion_next (one step of the shared pass, its terms formed for
    that step) equals the MatQ chain at every degree, also on a family with
    one corrupted norm, where the value it returns is not H_{n+2}."""
    seq = _rational_family(index)
    for H in (seq.H, _with_H_entry_added(seq, 1, 1, seq.spec.N, F(5, 11)).H):
        inverses = [h.inverse() for h in H]
        for n in range(2, seq.n_max + 1):
            assert h_recursion_next(seq.spec, H[:n], inverses[:n]) \
                == _H_step_reference(seq.spec, H[:n], inverses[:n])


# verify_X_recursion checks each identity as one fused sum; it must give
# what the MatQ expressions it replaced give.

def _X_rows_reference(seq):
    """(derived rows hold, printed row 1 holds) per n, as MatQ expressions."""
    spec = seq.spec
    A, X, i = spec.A, seq.X, MatQ.identity(spec.N)
    out = []
    for n in range(1, seq.n_max):
        head = i * n + X[n] * A - X[n]
        out.append((head - A * X[n + 1] + X[n + 1] == -(i * (n + 1 + spec.nu)) - seq.HJH[n],
                    not any((head + i * (n + 1 + spec.nu) + seq.I[n]).rows[0])))
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.booleans(), st.sampled_from(["X", "HJH", "I", None]), st.data())
def test_fused_X_rows_match_the_matq_expressions(index, printed_holds, name, data):
    """Clean, with I(n) chosen so that row 1 of the printed item holds (and
    the last row does not), and with one entry of one X_m, H_m J H_m^{-1} or
    I(m) perturbed: the fused sums give the reference's verdicts."""
    seq = _rational_family(index)
    family = OPSeq(seq.spec, seq.table, seq.P, seq.H)
    spec, N = seq.spec, seq.spec.N
    i = MatQ.identity(N)
    if printed_holds:  # shadows the cached I
        family.I = tuple(-(x * (spec.A - i) + i * (2 * n + 1 + spec.nu)) + MatQ.unit(N, N - 1, 0)
                         for n, x in enumerate(seq.X))
    if name:
        m = data.draw(st.integers(1, seq.n_max))
        r, c = data.draw(st.integers(0, N - 1)), data.draw(st.integers(0, N - 1))
        mats = list(getattr(family, name))
        mats[m] = mats[m] + MatQ.unit(N, r, c) * data.draw(nonzero)
        setattr(family, name, tuple(mats))
    [row] = [c for c in verify_X_recursion(family)
             if c["equation"] == "zero-shift-coefficient-entrywise"]
    assert [row] == quoted_check(row["check_id"], row["equation"], _X_rows_reference(family))
    if not name:
        assert (row["pass"], row["displayed_form_pass"]) == (True, printed_holds)


# verify_K_properties checks by products; each product check must still fail
# exactly at the degree whose matrix is wrong.

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.sampled_from(["K_inv", "Gamma"]), st.data())
def test_K_product_checks_fail_at_one_perturbed_entry(index, name, data):
    """One entry of K_inv[m] perturbed fails K-inverse n=m alone; one entry of
    Gamma_m perturbed fails K-conjugation n=m alone."""
    seq = _rational_family(index)
    family = OPSeq(seq.spec, seq.table, seq.P, seq.H)
    N = seq.spec.N
    m = data.draw(st.integers(0, seq.n_max))
    r, c = data.draw(st.integers(0, N - 1)), data.draw(st.integers(0, N - 1))
    mats = list(getattr(seq, name))
    mats[m] = mats[m] + MatQ.unit(N, r, c) * data.draw(nonzero)
    setattr(family, name, tuple(mats))  # shadows the cached tuple
    failing = [c["check_id"] for c in verify_K_properties(family) if not c["pass"]]
    label = "K-inverse" if name == "K_inv" else "K-conjugation"
    assert failing == [f"{label} n={m}"]


# The closed-form K_n entries take their rising factorials from one running
# product per column and degree.

@st.composite
def wide_specs(draw):
    N = draw(st.integers(1, 6))
    return WeightSpec(N, draw(positive), tuple(draw(nonzero) for _ in range(N - 1)),
                      tuple(draw(positive) for _ in range(N)))


@settings(max_examples=60, deadline=None)
@given(wide_specs(), st.integers(0, 30))
def test_K_closed_form_is_the_pochhammer_form(spec, n):
    coef = _K_coefficients(spec)
    entries = _K_closed_form(spec, n, coef)
    assert list(entries) == [(i, j) for j in range(1, spec.N + 1) for i in range(j, spec.N + 1)]
    assert all(den > 0 for _, den in entries.values())
    assert {key: F(*v) for key, v in entries.items()} == {
        (i, j): c * pochhammer(spec.nu + j + n + 1, i - j) for (i, j), c in coef.items()}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.data())
def test_K_closed_form_fails_at_one_perturbed_entry(index, data):
    """One entry on or below the diagonal of K_m perturbed: of the
    closed-form checks exactly K-closed-form n=m fails, and every failing
    check is at degree m."""
    seq = _rational_family(index)
    family = OPSeq(seq.spec, seq.table, seq.P, seq.H)
    N = seq.spec.N
    m = data.draw(st.integers(0, seq.n_max))
    r = data.draw(st.integers(0, N - 1))
    c = data.draw(st.integers(0, r))
    mats = list(seq.K)
    mats[m] = mats[m] + MatQ.unit(N, r, c) * data.draw(nonzero)
    family.K = tuple(mats)  # shadows the cached tuple
    failing = [x["check_id"] for x in verify_K_properties(family) if not x["pass"]]
    assert [x for x in failing if x.startswith("K-closed-form")] == [f"K-closed-form n={m}"]
    assert all(x.endswith(f" n={m}") for x in failing)


# compute_GI, the G(n) = X(n) diagonal claim and K-unipotent compare integer
# numerators, and the xi recursions form each G(n)_ii/(n+nu+i) once.  The
# Fraction forms they replaced are the references, read entry by entry
# through MatQ.__getitem__.

def _compute_GI_reference(seq):
    N = seq.spec.N
    checks = []
    for n in range(seq.n_max + 1):
        hjh, i_n = seq.HJH[n], seq.I[n]
        checks.append(check(f"I(n) bidiagonal n={n}", "coupling-structure",
                            all(i_n[r, c] == (r + 1 if r == c else 0)
                                for r in range(N) for c in range(N) if c != r + 1)))
        checks.append(check(f"I(n) superdiagonal n={n}", "coupling-diagonal-entries",
                            all(i_n[r, r + 1] == hjh[r, r + 1] for r in range(N - 1))))
        if n >= 1:
            hth, g_n = seq.T[n], seq.G[n]
            checks.append(check(f"G(n) diagonal n={n}", "coupling-structure",
                                all(g_n[r, c] == 0 for r in range(N) for c in range(N) if r != c)))
            checks.append(check(f"G(n) diagonal entries n={n}", "coupling-diagonal-entries",
                                all(g_n[r, r] == hth[r, r] for r in range(N))))
    return checks


def _G_equals_X_reference(seq):
    return all(seq.G[n][r, r] == seq.X[n][r, r]
               for n in range(1, seq.n_max + 1) for r in range(seq.spec.N))


def _K_unipotent_reference(seq):
    return [all(k[r, r] == 1 for r in range(seq.spec.N)) for k in seq.K]


def _xi_by_recursion_reference(seq):
    spec = seq.spec
    N, nu, a = spec.N, spec.nu, spec.a
    G, I = seq.G, seq.I
    table = XiTable(N, seq.n_max)
    for i in range(1, N + 1):
        for j in range(1, i + 1):
            table.values[0, i, j] = (seq.K_inv[0][i - 1, j - 1] * factorial(i - j)
                                     / pochhammer(nu + j + 1, i - j))
    if seq.n_max >= 1:
        for i in range(1, N):
            table.values[1, i, i + 1] = -I[0][i - 1, i]
    for j in range(1, N + 1):
        for i in range(j - 1, 0, -1):
            n = j - i
            if n > seq.n_max or n < 2:
                continue
            m, ii = n - 1, i + 1
            lead = G[m + 1][ii - 1, ii - 1] / (m + 1 + nu + ii) + 1
            cross = F(0)
            if ii < N:
                lead -= a[ii - 1] * I[m][ii - 1, ii]
                cross = I[m][ii - 1, ii] * G[m][ii, ii] / (m + nu + ii + 1)
            v = lead * table.get(m, ii, j)
            if ii < N:
                v += cross * table.get(m - 1, ii + 1, j)
            table.values[n, i, j] = v / a[i - 1]
    for n in range(1, seq.n_max + 1):
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                if n + i - j <= 0 or (n, i, j) in table.values:
                    continue
                if i == 1:
                    v = G[n][0, 0] / (n + nu + 1) * table.get(n - 1, 1, j)
                else:
                    v = -a[i - 2] * table.get(n, i - 1, j) \
                        + G[n][i - 1, i - 1] / (n + nu + i) * table.get(n - 1, i, j)
                table.values[n, i, j] = v
    return table


def _displayed_xi_reference(seq):
    nu, a, N = seq.spec.nu, seq.spec.a, seq.spec.N
    xi, G, I = seq.xi, seq.G, seq.I

    def interior(n, i, j):
        prev = a[i - 2] * xi.get(n, i - 1, j)
        tail = G[n][i - 1, i - 1] / (n + nu + i) * xi.get(n - 1, i, j)
        return xi.get(n, i, j) == tail - prev, xi.get(n, i, j) == tail + prev

    def seed(i):
        return xi.get(1, i, i + 1) == -I[0][i - 1, i], xi.get(1, i, i + 1) == I[0][i - 1, i]

    def relation(n):
        lo, hi = xi.get(n, 1, n + 1), xi.get(n - 1, 2, n + 1)
        n1 = G[n + 1][0, 0] / (n + nu + 2) + 1 - I[n][0, 1] * a[0]
        n2 = -I[n][0, 1] * G[n][1, 1] / (n + nu + 2)
        n1_disp = (nu + 2 * n + 3) * G[n + 1][0, 0] / (n + nu + 2) + (n + 2 + nu) \
            + I[n][0, 1] * (nu + 2 * n + 2) * a[0]
        n2_disp = I[n][0, 1] * (nu + 2 * n + 2) * G[n][1, 1] / (n + nu + 2)
        return n1 * lo == n2 * hi, n1_disp * lo == n2_disp * hi

    return [
        *quoted_check("interior recursion, corrected sign", "multiplier-interior-recursion",
                      [interior(n, i, j) for (n, i, j) in sorted(xi.values)
                       if n >= 1 and i >= 2 and n + i - j > 0]),
        *quoted_check("boundary seed xi(1,i,i+1), corrected sign", "multiplier-boundary-seed",
                      [seed(i) for i in range(1, N if seq.n_max >= 1 else 1)]),
        *quoted_check("i=1 boundary relation, derived coefficients",
                      "multiplier-boundary-relation",
                      [relation(n) for n in range(1, min(seq.n_max, N))]),
    ]


READER_IDS = ["N=1", "N=2", "N=3", "N=4", "dual Hahn"]


def _shadowed(seq, name, m, r, c, value):
    """A fresh family of seq's P and H whose `name` tuple has `value` added
    to entry (r, c) (0-based) at degree m; every other tuple is its own."""
    family = OPSeq(seq.spec, seq.table, seq.P, seq.H)
    mats = list(getattr(seq, name))
    mats[m] = mats[m] + MatQ.unit(seq.spec.N, r, c) * value
    setattr(family, name, tuple(mats))  # shadows the cached tuple
    return family


def _assert_readers_match_the_references(seq):
    assert compute_GI(seq) == _compute_GI_reference(seq)
    assert xi_by_recursion(seq).values == _xi_by_recursion_reference(seq).values
    gx = [c for c in verify_X_recursion(seq) if c["check_id"].startswith("G(n) diagonal")]
    assert [c["pass"] for c in gx] == ([_G_equals_X_reference(seq)] if seq.n_max >= 1 else [])
    unipotent = [c["pass"] for c in verify_K_properties(seq) if "unipotent" in c["check_id"]]
    assert unipotent == _K_unipotent_reference(seq)
    assert verify_displayed_xi_recursions(seq) == _displayed_xi_reference(seq)


@pytest.mark.parametrize("index", range(5), ids=READER_IDS)
def test_readers_match_their_fraction_forms(index):
    seq = _rational_family(index)
    _assert_readers_match_the_references(seq)
    assert all(c["pass"] for c in compute_GI(seq))


def _failing(checks):
    return [c["check_id"] for c in checks if not c["pass"]]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.data())
def test_a_perturbed_I_superdiagonal_fails_exactly_its_check(index, data):
    seq = _rational_family(index)
    N = seq.spec.N
    m, r = data.draw(st.integers(0, seq.n_max)), data.draw(st.integers(0, N - 2))
    family = _shadowed(seq, "I", m, r, r + 1, data.draw(nonzero))
    _assert_readers_match_the_references(family)
    assert _failing(compute_GI(family)) == [f"I(n) superdiagonal n={m}"]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.data())
def test_a_perturbed_G_entry_fails_exactly_its_checks(index, data):
    """A diagonal entry G(m)_ii fails `G(n) diagonal entries n=m`, the
    G = X diagonal claim and the xi recursion, whose table then differs from
    the extracted one; an off-diagonal entry fails `G(n) diagonal n=m`
    alone."""
    seq = _rational_family(index)
    N = seq.spec.N
    m = data.draw(st.integers(1, seq.n_max))
    r, c = data.draw(st.integers(0, N - 1)), data.draw(st.integers(0, N - 1))
    family = _shadowed(seq, "G", m, r, c, data.draw(nonzero))
    family.xi = seq.xi  # the oracle's table; G does not enter it
    _assert_readers_match_the_references(family)
    failing = _failing(compute_GI(family) + verify_X_recursion(family))
    xi_failing = _failing(verify_xi_tables(seq.xi, xi_by_recursion(family)))
    if r == c:
        assert failing == [f"G(n) diagonal entries n={m}", "G(n) diagonal equals X(n) diagonal"]
        assert xi_failing == ["xi extraction equals recursion"]
    else:
        assert failing == [f"G(n) diagonal n={m}"]
        assert xi_failing == []


def _first_mismatch(extracted, recursed):
    [row] = [c for c in verify_xi_tables(extracted, recursed)
             if c["check_id"] == "xi extraction equals recursion"]
    return row["first_mismatch"]


@pytest.mark.parametrize("index", range(5), ids=READER_IDS)
def test_no_first_mismatch_where_the_tables_agree(index):
    seq = _rational_family(index)
    assert _first_mismatch(seq.xi, xi_by_recursion(seq)) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.data())
def test_first_mismatch_is_the_first_key_a_perturbed_G_changes(index, data):
    """Shifting a diagonal entry G(m)_ii changes the recursed table; the
    reported first_mismatch is the first key, in sorted order, where the
    Fraction reference differs from the oracle's table."""
    seq = _rational_family(index)
    m, r = data.draw(st.integers(1, seq.n_max)), data.draw(st.integers(0, seq.spec.N - 1))
    family = _shadowed(seq, "G", m, r, r, data.draw(nonzero))
    reference = _xi_by_recursion_reference(family).values
    expected = next(k for k in sorted(seq.xi.values) if reference[k] != seq.xi.values[k])
    assert _first_mismatch(seq.xi, xi_by_recursion(family)) == str(expected)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.data())
def test_a_perturbed_K_diagonal_entry_fails_K_unipotent_at_its_degree(index, data):
    seq = _rational_family(index)
    m, r = data.draw(st.integers(0, seq.n_max)), data.draw(st.integers(0, seq.spec.N - 1))
    family = _shadowed(seq, "K", m, r, r, data.draw(nonzero))
    unipotent = [c for c in verify_K_properties(family) if "unipotent" in c["check_id"]]
    assert [c["pass"] for c in unipotent] == _K_unipotent_reference(family)
    assert _failing(unipotent) == [f"K-unipotent n={m}"]
    assert all(x.endswith(f" n={m}") for x in _failing(verify_K_properties(family)))
