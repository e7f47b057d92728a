from dataclasses import replace
from fractions import Fraction as F

import pytest

from mvlaguerre.engine import OPSeq, compute_monic_ops
from mvlaguerre.laguerre_forms import (ClosedFormViolation, compute_GI,
                                       extract_xi,
                                       h_recursion_next, h1_from_h0,
                                       verify_H_recursion, verify_K_properties,
                                       verify_Q_relation, verify_R_eigen,
                                       verify_X1_bootstrap, verify_X_recursion,
                                       verify_displayed_xi_recursions,
                                       verify_xi_tables, x1_from_h0,
                                       xi_by_recursion)
from mvlaguerre.matrices import MatQ
from mvlaguerre.scalar import factorial
from mvlaguerre.weights import WeightSpec

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


def test_displayed_recursion_variants_fail(seq):
    checks = verify_displayed_xi_recursions(seq)
    _ok(checks)
    for c in checks:
        assert c["displayed_form_pass"] is False


def test_H_recursion_reproduces_oracle(seq):
    _ok(verify_H_recursion(seq))


def test_H_recursion_negative_control():
    seq = compute_monic_ops(SPEC2, 3)
    h = [seq.H[0], seq.H[1]]
    wrong_a = replace(seq.spec, a=(seq.spec.a[0] + 1,))
    assert h_recursion_next(wrong_a, h) != seq.H[2]


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
    from mvlaguerre.operators import make_named_operators, verify_bracket_identities

    seq = compute_monic_ops(SPECS[2], 4)
    H = list(seq.H)
    H[2] = H[2] + MatQ.unit(3, 1, 1)
    bad = OPSeq(seq.spec, seq.table, seq.P, H)
    for checks in (compute_GI(bad), verify_X_recursion(bad),
                   verify_bracket_identities(bad, make_named_operators(bad))):
        assert any(not c["pass"] for c in checks)
