from fractions import Fraction as F

import pytest

from mvlaguerre.engine import OPSeq, compute_monic_ops
from mvlaguerre.matrices import MatPoly, MatQ
from mvlaguerre.operators import (DiffOp, SeqOp, WindowError,
                                  diagonal_weight_scaled, make_named_operators,
                                  right_mult, verify_adjoint_pair,
                                  verify_bracket_identities,
                                  verify_fourier_homomorphism,
                                  verify_general_D_theorem,
                                  verify_intertwinings, verify_star_dagger,
                                  verify_symmetry_conditions, weight_scaled)
from mvlaguerre.weights import WeightSpec

SPECS = [
    WeightSpec(2, F(1), (F(1),), (F(1), F(1))),
    WeightSpec(2, F(1, 2), (F(-1),), (F(1), F(1))),
    WeightSpec(3, F(5, 2), (F(1), F(-2)), (F(1), F(1, 2), F(3))),
]


def _ok(checks):
    bad = [c for c in checks if not c["pass"]]
    assert not bad, bad


@pytest.fixture(scope="module", params=range(len(SPECS)))
def seq(request):
    return compute_monic_ops(SPECS[request.param], 6)


def test_diffop_action_and_degree(seq):
    spec = seq.spec
    ops = make_named_operators(seq)
    q = seq.P[3]
    assert right_mult(MatPoly.const(MatQ.identity(spec.N))).act(q) == q
    assert ops["D"].act(q).degree <= q.degree + 1
    assert ops["Ddag"].act(q).degree <= q.degree  # degree-preserving for phi = x


def test_delta_shift_definition(seq):
    op = SeqOp.constant(1, MatQ.identity(seq.spec.N), seq.n_max)
    assert op.act(seq.P, 2) == seq.P[3]
    with pytest.raises(WindowError):
        op.act(seq.P, seq.n_max)


def test_intertwinings(seq):
    _ok(verify_intertwinings(seq, make_named_operators(seq)))


def test_general_D_theorem(seq):
    _ok(verify_general_D_theorem(seq, make_named_operators(seq)))


def test_star_dagger_structure(seq):
    _ok(verify_star_dagger(seq, make_named_operators(seq)))


def test_fourier_map_multiplicative(seq):
    _ok(verify_fourier_homomorphism(seq, make_named_operators(seq)))


def test_bracket_identities_and_displayed_variants(seq):
    checks = verify_bracket_identities(seq, make_named_operators(seq))
    _ok(checks)
    mdl = [c for c in checks if c["check_id"].startswith("MdL-1")]
    assert mdl and all(c["displayed_form_pass"] is False for c in mdl)
    cj = [c for c in checks if "[C,J]" in c["check_id"]]
    assert cj and all(c["displayed_form_pass"] is False for c in cj)


def test_adjoint_pairs(seq):
    ops = make_named_operators(seq)
    _ok(verify_adjoint_pair(ops["D"], ops["Ddag"], seq.table, 4, "ladder"))
    _ok(verify_adjoint_pair(ops["C"], ops["C"], seq.table, 4, "C"))
    _ok(verify_adjoint_pair(ops["D2"], ops["D2"], seq.table, 4, "D2"))


def test_adjoint_negative_control(seq):
    ops = make_named_operators(seq)
    bad = [c for c in verify_adjoint_pair(ops["D"], ops["D"], seq.table, 3, "neg")
           if not c["pass"]]
    assert bad


def test_symmetry_conditions(seq):
    ops = make_named_operators(seq)
    _ok(verify_symmetry_conditions(ops["D2"], weight_scaled(seq.spec), "W"))
    _ok(verify_symmetry_conditions(ops["DQ2"], diagonal_weight_scaled(seq.spec), "T"))


def test_intertwining_negative_control():
    spec = SPECS[0]
    seq = compute_monic_ops(spec, 4)
    H = list(seq.H)
    H[2] = H[2] + MatQ.unit(spec.N, 0, 0)
    broken = OPSeq(spec, seq.table, seq.P, H)
    checks = verify_intertwinings(broken, make_named_operators(broken))
    assert any(not c["pass"] for c in checks)


def test_symmetry_negative_control():
    spec = SPECS[0]
    seq = compute_monic_ops(spec, 2)
    ops = make_named_operators(seq)
    d = ops["DQ2"]
    corrupted = DiffOp([d.coeff(0),
                        d.coeff(1) + MatPoly.const(MatQ.unit(spec.N, 0, 0)),
                        d.coeff(2)])
    checks = verify_symmetry_conditions(
        corrupted, diagonal_weight_scaled(spec), "corrupted")
    assert any(not c["pass"] for c in checks)


def test_diffop_compose_matches_sequential_action():
    spec = SPECS[2]
    seq = compute_monic_ops(spec, 3)
    ops = make_named_operators(seq)
    d1, d2 = ops["D"], ops["D2"]
    q = seq.P[3]
    assert d1.compose(d2).act(q) == d2.act(d1.act(q))
    assert d2.compose(d1).act(q) == d1.act(d2.act(q))


def test_dagger_is_matrix_conjugated_star(seq):
    ops = make_named_operators(seq)
    m = ops["M"]
    dag = m.dagger(seq)
    for n in range(1, seq.n_max):
        lhs = dag.coeff(-1, n)
        rhs = seq.H[n] * m.coeff(1, n - 1).transpose() * seq.H[n - 1].inverse()
        assert lhs == rhs


def test_scaled_mat_derivative():
    spec = SPECS[0]
    t = diagonal_weight_scaled(spec)
    # d/dx(e^{-x} x^nu B) has body B' + nu B/x - B
    body = t.dx().body
    b = t.body
    expected = b.derivative() + b.shift(-1) * spec.nu - b
    assert body == expected
