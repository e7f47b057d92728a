from fractions import Fraction as F

import pytest

from mvlaguerre import dual_hahn as dh
from mvlaguerre.dual_hahn import (DHParams, build_delta_family,
                                  check_conditions, epsilon_seq,
                                  derivative_coupling_matrices, phi_psi,
                                  verify_boundary_recursion,
                                  verify_dual_hahn_closed_form,
                                  verify_gauge_ratio, verify_derivative_coupling,
                                  verify_q_recursions,
                                  xi_dual_hahn, xi_dual_hahn_displayed)
from mvlaguerre.engine import compute_monic_ops
from mvlaguerre.laguerre_forms import extract_xi
from mvlaguerre.scalar import DomainError

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


def test_displayed_closed_form_has_a_witness():
    params = build_delta_family(2, F(1), F(1), F(1))
    seq = compute_monic_ops(params.spec, 3)
    xi = extract_xi(seq)
    assert xi.get(1, 2, 1) == -2
    assert xi_dual_hahn(1, 2, 1, params, xi.get(1, 2, 1)) == -2
    assert xi_dual_hahn_displayed(1, 2, 1, params) == F(1, 3)  # != oracle


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


def test_derivative_coupling_negative_control():
    params = build_delta_family(2, F(1), F(1), F(1))
    seq = compute_monic_ops(params.spec, 3)
    c_mat, m_star = derivative_coupling_matrices(params)
    wrong = c_mat - m_star * 2  # flips the transposed-conjugate term
    from mvlaguerre.matrices import MatQ, build_J

    n = 1
    r = seq.R[n]
    lhs = (r.derivative()(0) - r(0) * seq.spec.A) * wrong
    i = MatQ.identity(2)
    d_n = (build_J(2) * params.d - i * (params.d * 3 + params.c)) * n
    assert lhs != d_n * r(0)


def test_phi_psi(family):
    params, _, _ = family
    phi, psi, checks = phi_psi(params)
    _ok(checks)
    assert psi.degree == 1


def test_phi_psi_negative_control():
    good = build_delta_family(3, F(1), F(1), F(1))
    bad = DHParams(3, F(1), F(1), F(1), good.delta_nu,
                   (good.delta_nu1[0], good.delta_nu1[1], good.delta_nu1[2] * 2))
    _, _, checks = phi_psi(bad)
    # a wrong level nu+1 leaves Phi, Psi and D2 intact
    assert {c["check_id"] for c in checks if not c["pass"]} \
        == {"W Phi = W(nu+1)", "W Psi = d/dx W(nu+1)"}


def test_pearson_psi_identity_fails_alone(monkeypatch):
    """A wrong coupling term changes Psi but not Phi: W Phi = W(nu+1) still
    holds and W Psi = d/dx W(nu+1) fails."""
    coupling = dh.derivative_coupling_matrices

    def doubled_coupling(params):
        c_mat, m_star = coupling(params)
        return c_mat, m_star * 2

    monkeypatch.setattr(dh, "derivative_coupling_matrices", doubled_coupling)
    _, _, checks = phi_psi(build_delta_family(3, F(1), F(1), F(1)))
    failed = {c["check_id"] for c in checks if not c["pass"]}
    assert "W Psi = d/dx W(nu+1)" in failed
    assert "W Phi = W(nu+1)" not in failed
