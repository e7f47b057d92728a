from fractions import Fraction as F
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvlaguerre import dual_hahn as dh
from mvlaguerre.dual_hahn import (DHParams, build_delta_family,
                                  check_conditions, epsilon_seq, phi_psi,
                                  verify_boundary_recursion,
                                  verify_dual_hahn_closed_form,
                                  verify_gauge_ratio, verify_derivative_coupling,
                                  verify_q_recursions,
                                  xi_dual_hahn, xi_dual_hahn_displayed)
from mvlaguerre.engine import compute_monic_ops
from mvlaguerre.laguerre_forms import extract_xi
from mvlaguerre.matrices import MatQ
from mvlaguerre.scalar import DomainError, dual_hahn

GRID = [
    (2, F(1, 2), F(0), F(1)),
    (2, F(1), F(1), F(1)),
    (2, F(1, 2), F(2), F(1)),
    (3, F(1, 2), F(0), F(1)),
    (3, F(1), F(1), F(1)),
    (3, F(1, 2), F(2), F(1)),
    (3, F(1), F(1, 2), F(3)),
]


def _ok(checks):
    bad = [c for c in checks if not c["pass"]]
    assert not bad, bad


@pytest.fixture(scope="module", params=range(len(GRID)))
def family(request):
    n_dim, nu, c, d = GRID[request.param]
    params = build_delta_family(n_dim, nu, c, d)
    seq = compute_monic_ops(params.spec, 5)
    return params, seq, extract_xi(seq)


def test_construction_and_conditions():
    params = build_delta_family(3, F(1, 2), F(2), F(1))
    assert not check_conditions(params)
    assert params.delta_nu[0] == 1
    # N=2, c=0, d=1 collapses to the unit family
    flat = build_delta_family(2, F(1), F(0), F(1))
    assert flat.delta_nu == (1, 1)
    with pytest.raises(DomainError):
        build_delta_family(2, F(1), F(-3), F(1))


def test_handset_family_rejected():
    bad = DHParams(3, F(1, 2), F(1), F(1), (F(1), F(1), F(1)), (F(2), F(3), F(4)))
    assert check_conditions(bad)


def test_epsilon_sequence(family):
    params, _, _ = family
    n, i = 2, 1
    eps = epsilon_seq(n, i, params, n + i)
    assert eps[0] == 1
    assert eps[1] == (n + i) * params.c
    _ok(verify_gauge_ratio(params, n, i))
    with pytest.raises(DomainError):
        epsilon_seq(1, 1, params, 5)


_RATIONALS = st.fractions(min_value=F(1, 9), max_value=F(9), max_denominator=9)


@st.composite
def _families(draw):
    """A constrained family of size 1..5 with d > 0 and c >= 0 or
    -d < c < 0, and the rows (n, i), n <= n_max, in a drawn order."""
    n_dim, nu, d = draw(st.integers(1, 5)), draw(_RATIONALS), draw(_RATIONALS)
    c = draw(st.one_of(st.just(F(0)), _RATIONALS, _RATIONALS.map(lambda v: -d * v / (v + 1))))
    rows = [(n, i) for n in range(draw(st.integers(0, 5)) + 1) for i in range(1, n_dim + 1)]
    return build_delta_family(n_dim, nu, c, d), draw(st.permutations(rows))


@settings(max_examples=40, deadline=None)
@given(_families())
def test_row_holds_the_gauge_sequence_and_the_dual_Hahn_values(family):
    """params.row(n, i) is the row's eps_0..eps_{n+i} and its T_k, k < N,
    at the closed form's arguments, whichever rows were read before, and
    the family keeps it."""
    params, rows = family
    for n, i in rows:
        row = params.row(n, i)
        assert row.eps == epsilon_seq(n, i, params, n + i)
        assert row.t == [dual_hahn(k, *dh._t_arguments(params, n, i))
                         for k in range(params.N)]
    assert all(params.row(n, i) is params.row(n, i) for n, i in rows)


@settings(max_examples=40, deadline=None)
@given(_families())
def test_row_anchor_and_closed_form_equal_the_oracle(family):
    """Each row's anchor is the oracle's xi(n,i,1), and the closed form,
    which reads no oracle value, is the oracle's xi(n,i,j) at every column
    it covers, j <= min(N, n+i-1), on families with c = 0, c > 0 and
    -d < c < 0."""
    params, rows = family
    xi = compute_monic_ops(params.spec, max(n for n, _ in rows)).xi
    for n, i in rows:
        assert params.row(n, i).anchor == xi.get(n, i, 1)
        for j in range(1, min(params.N, n + i - 1) + 1):
            assert xi_dual_hahn(n, i, j, params) == xi.get(n, i, j)


def test_closed_form_fails_on_a_perturbed_anchor_entry():
    """xi(1,1,1) raised by 1 in a copy of the table fails the closed-form
    row n=1,i=1, whose one column is j = 1: the closed form forms its own
    anchor, so that row no longer compares xi(1,1,1) with itself."""
    params = build_delta_family(3, F(1, 2), F(2), F(1))
    xi = extract_xi(compute_monic_ops(params.spec, 4))
    bad = xi.prefix(xi.n_max)
    bad.values[1, 1, 1] += 1
    _ok(verify_dual_hahn_closed_form(xi, params))
    checks = verify_dual_hahn_closed_form(bad, params)
    assert [c["check_id"] for c in checks if not c["pass"]] == ["dual Hahn closed form n=1,i=1"]


def test_gauge_ratio_fails_off_the_closed_form(monkeypatch):
    """A sequence started at eps_0 = 2 still satisfies every ratio
    eps_{j+1} = (n+i-j)(dj+c) eps_j, but not the closed form.  The family
    keeps each row it formed, so the doubled sequence is read by a fresh
    one."""
    params = build_delta_family(3, F(1), F(1, 2), F(3))
    n, i = 2, 1
    doubled = [2 * e for e in epsilon_seq(n, i, params, n + i)]
    assert all(doubled[j + 1] == (n + i - j) * (params.d * j + params.c) * doubled[j]
               for j in range(n + i))
    _ok(verify_gauge_ratio(params, n, i))
    monkeypatch.setattr(dh, "epsilon_seq", lambda *args: doubled)
    [verdict] = verify_gauge_ratio(build_delta_family(3, F(1), F(1, 2), F(3)), n, i)
    assert verdict["check_id"] == f"gauge ratio n={n},i={i}"
    assert verdict["pass"] is False


def test_q_recursions(family):
    params, _, xi = family
    checks = verify_q_recursions(xi, params)
    _ok(checks)
    if params.c > 0:
        # the printed middle-term sign fails wherever the range is nonempty
        assert any(c["displayed_form_pass"] is False for c in checks)


def test_closed_form_equals_extraction(family):
    params, _, xi = family
    checks = verify_dual_hahn_closed_form(xi, params)
    _ok(checks)


def test_recurrence_cross_check_covers_every_argument_set(monkeypatch):
    """The 3F2 sum is compared with the recurrence at every (n, i, k < N),
    also where no closed-form check reads T_k: at n = 0, i = 1 none does."""
    params = build_delta_family(3, F(1, 2), F(2), F(1))
    xi = extract_xi(compute_monic_ops(params.spec, 3))
    recurrence = dh.dual_hahn_via_recurrence
    off = (2, params.N - 1, params.gamma, 1 - params.N, params.N - 1)  # k = 2 at n = 0, i = 1

    def bumped(*args):
        return recurrence(*args) + (args == off)

    monkeypatch.setattr(dh, "dual_hahn_via_recurrence", bumped)
    checks = verify_dual_hahn_closed_form(xi, params)
    assert [c["check_id"] for c in checks if not c["pass"]] \
        == ["3F2 equals recurrence at used arguments"]


@pytest.mark.parametrize("key, failing", [
    # j < n+i: the gauge relation and the closed form of (n, i) read it
    ((3, 1, 2), {"q three-term n=3,i=1", "dual Hahn closed form n=3,i=1"}),
    # j = n+i: the gauge relation and the boundary recursion read it
    ((1, 2, 3), {"q three-term n=1,i=2", "boundary recursion j=n+i"}),
    # j = n+i-1 = N-1: all three
    ((2, 1, 2), {"q three-term n=2,i=1", "dual Hahn closed form n=2,i=1",
                 "boundary recursion j=n+i"}),
])
def test_xi_forms_fail_on_a_perturbed_entry(key, failing):
    """One xi entry raised by 1 in a copy of the table fails the corrected
    side of exactly the gauge, closed-form and boundary rows that read it."""
    params = build_delta_family(3, F(1, 2), F(2), F(1))
    xi = extract_xi(compute_monic_ops(params.spec, 4))
    bad = xi.prefix(xi.n_max)
    bad.values[key] += 1
    verify = (verify_q_recursions, verify_dual_hahn_closed_form, verify_boundary_recursion)
    good = [c for v in verify for c in v(xi, params)]
    checks = [c for v in verify for c in v(bad, params)]
    _ok(good)
    assert [c["check_id"] for c in checks] == [c["check_id"] for c in good]
    assert {c["check_id"] for c in checks if not c["pass"]} == failing


def test_displayed_closed_form_is_not_read_below_c_zero():
    """build_delta_family accepts c in (-d, 0); the printed form needs c > 0,
    so every closed-form row there reports it as failing."""
    params = build_delta_family(3, F(1, 2), F(-1, 2), F(1))
    checks = verify_dual_hahn_closed_form(extract_xi(compute_monic_ops(params.spec, 4)), params)
    rows = [c for c in checks if c["equation"] == "dual-hahn-closed-form"]
    _ok(checks)
    assert rows and all(c["displayed_form_pass"] is False for c in rows)


def test_displayed_closed_form_has_a_witness():
    """At (1,2,1) the closed form, which forms its own anchor, is the
    oracle's value and the printed form is not."""
    params = build_delta_family(2, F(1), F(1), F(1))
    seq = compute_monic_ops(params.spec, 3)
    xi = extract_xi(seq)
    assert xi.get(1, 2, 1) == -2
    assert xi_dual_hahn(1, 2, 1, params) == -2
    assert xi_dual_hahn_displayed(1, 2, 1, params) == F(1, 3)  # != oracle


def test_closed_forms_reject_a_column_off_the_row():
    """The row holds T_k for k < N and eps_j for j <= n+i: a column j
    outside 1..N, or past n+i in the printed form, raises, and no index
    wraps round the row."""
    params = build_delta_family(3, F(1), F(1), F(1))
    for j in (0, -1, params.N + 1):
        with pytest.raises(DomainError):
            xi_dual_hahn(4, 2, j, params)
    with pytest.raises(DomainError):
        xi_dual_hahn_displayed(0, 1, 2, params)


def test_boundary_recursion(family):
    params, _, xi = family
    checks = verify_boundary_recursion(xi, params)
    _ok(checks)
    for c in checks:
        assert c["displayed_form_pass"] is False


def test_derivative_coupling(family):
    params, seq, _ = family
    checks = verify_derivative_coupling(seq, params)
    _ok(checks)
    entry = next(c for c in checks if "entry sign" in c["check_id"])
    assert entry["displayed_form_pass"] is False


def _patch_coupling(monkeypatch, change):
    """DHParams.coupling replaced by change(C, M*) of the true one."""
    coupling = DHParams.coupling.func
    patched = cached_property(lambda params: change(*coupling(params)))
    patched.__set_name__(DHParams, "coupling")
    monkeypatch.setattr(DHParams, "coupling", patched)


def test_derivative_coupling_negative_control(monkeypatch):
    # flips the transposed-conjugate term of C
    _patch_coupling(monkeypatch, lambda c_mat, m_star: (c_mat - m_star * 2, m_star))
    params = build_delta_family(2, F(1), F(1), F(1))
    seq = compute_monic_ops(params.spec, 3)
    checks = verify_derivative_coupling(seq, params)
    assert not next(c for c in checks if c["check_id"] == "derivative coupling n=1")["pass"]


def test_coupling_entry_sign_fails_on_one_flipped_entry(monkeypatch):
    """M*_{12} with its sign flipped, C left true: the entry-sign row fails
    and every derivative coupling row, which reads C alone, still passes."""
    _patch_coupling(monkeypatch, lambda c_mat, m_star: (
        c_mat, m_star - MatQ.unit(3, 0, 1) * (2 * m_star[0, 1])))
    params = build_delta_family(3, F(1), F(1), F(1))
    checks = verify_derivative_coupling(compute_monic_ops(params.spec, 3), params)
    assert [c["check_id"] for c in checks if not c["pass"]] \
        == ["conjugated-diagonal entry sign"]


def test_phi_psi(family):
    params, seq, _ = family
    phi, psi, checks = phi_psi(params, seq)
    _ok(checks)
    assert psi.degree == 1


def test_phi_psi_negative_control():
    good = build_delta_family(3, F(1), F(1), F(1))
    bad = DHParams(3, F(1), F(1), F(1), good.delta_nu,
                   (good.delta_nu1[0], good.delta_nu1[1], good.delta_nu1[2] * 2))
    _, _, checks = phi_psi(bad, compute_monic_ops(bad.spec, 0))
    # a wrong level nu+1 leaves Phi, Psi and D2 intact
    assert {c["check_id"] for c in checks if not c["pass"]} \
        == {"W Phi = W(nu+1)", "W Psi = d/dx W(nu+1)"}


def test_pearson_psi_identity_fails_alone(monkeypatch):
    """A wrong coupling term changes Psi but not Phi: W Phi = W(nu+1) still
    holds and W Psi = d/dx W(nu+1) fails."""
    _patch_coupling(monkeypatch, lambda c_mat, m_star: (c_mat, m_star * 2))
    params = build_delta_family(3, F(1), F(1), F(1))
    _, _, checks = phi_psi(params, compute_monic_ops(params.spec, 0))
    failed = {c["check_id"] for c in checks if not c["pass"]}
    assert "W Psi = d/dx W(nu+1)" in failed
    assert "W Phi = W(nu+1)" not in failed
