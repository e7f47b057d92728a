from fractions import Fraction as F
from functools import cache
from math import factorial

import fraction_reference as ref
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvlaguerre.engine import OPSeq, compute_monic_ops
from mvlaguerre.laguerre_forms import (ClosedFormViolation, compute_GI,
                                       extract_xi,
                                       h_recursion_next, h1_from_h0,
                                       verify_H_recursion, verify_K_properties,
                                       verify_Q_relation, verify_R_eigen,
                                       verify_X1_bootstrap, verify_X_recursion,
                                       verify_displayed_xi_recursions,
                                       read_xi, verify_xi_tables, x1_from_h0,
                                       xi_by_recursion)
from mvlaguerre.matrices import MatPoly, MatQ
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
    s = seq.spec
    wrong_a = WeightSpec(s.N, s.nu, (s.a[0] + 1,), s.delta, s.phi)
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
