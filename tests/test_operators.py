from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvlaguerre.engine import OPSeq, compute_monic_ops
from mvlaguerre.matrices import MatPoly, MatQ, exp_nilpotent
from mvlaguerre.operators import (DiffOp, ScaledMat, SeqOp, WindowError,
                                  casimir_mult, diagonal_weight_scaled,
                                  ladder_lowering, ladder_raising,
                                  make_named_operators, right_mult,
                                  second_order, second_order_diagonalized,
                                  verify_adjoint_pair,
                                  verify_bracket_identities,
                                  verify_fourier_homomorphism,
                                  verify_general_D_theorem,
                                  verify_intertwinings, verify_L_poly,
                                  verify_star_dagger,
                                  verify_symmetry_conditions, weight_scaled)
from mvlaguerre.scalar import RPoly
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


def test_ladder_difference_form_fails_when_D_uses_the_transpose():
    """The shift-1 coefficient of M is read against the leading coefficient
    of P_n . D: with D built from A^T - 1 instead of A - 1, that coefficient
    is A^T - 1, so exactly the five A1(n)=A-1 checks fail."""
    seq = compute_monic_ops(SPECS[2], 5)
    named = make_named_operators(seq)
    _ok(verify_general_D_theorem(seq, named))
    spec = seq.spec
    at1 = spec.A.transpose() - MatQ.identity(spec.N)
    named["D"] = DiffOp([MatPoly.monomial(1, at1), MatPoly.x_identity(spec.N)])
    failed = {c["check_id"] for c in verify_general_D_theorem(seq, named) if not c["pass"]}
    assert failed == {f"A1(n)=A-1 n={n}" for n in range(5)}


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


@pytest.mark.parametrize("k, unit, failing", [
    (2, (0, 1), {"symmetry-1", "symmetry-2", "symmetry-3"}),   # W F2 != F2^T W
    (1, (0, 0), {"symmetry-2", "symmetry-3"}),
    (0, (0, 1), {"symmetry-3"}),                               # W F0 != F0^T W
], ids=["F2", "F1", "F0"])
def test_each_symmetry_equation_can_fail(k, unit, failing):
    """A constant added to one coefficient of D2 breaks exactly the
    symmetry equations that coefficient enters."""
    seq = compute_monic_ops(SPECS[2], 2)
    d = make_named_operators(seq)["D2"]
    coeffs = [d.coeff(i) for i in range(3)]
    coeffs[k] = coeffs[k] + MatPoly.const(MatQ.unit(seq.spec.N, *unit))
    checks = verify_symmetry_conditions(DiffOp(coeffs), weight_scaled(seq.spec), "W")
    assert {c["check_id"] for c in checks if not c["pass"]} == {f"{n} W" for n in failing}


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


def test_dagger_is_zero_below_the_window(seq):
    """A dagger coefficient whose target n + j is negative multiplies a
    vanishing sequence value; the composition leaves it an exact zero."""
    ops = make_named_operators(seq)
    zero = MatQ.zero(seq.spec.N)
    for name in ("M", "L", "MC"):
        dag = ops[name].dagger(seq)
        below = [(j, n) for j in dag.shifts() for n in range(-j)]
        assert below and all(dag.coeff(j, n) == zero for j, n in below), name


def test_seqop_sum_is_zero_padded_and_keeps_undefined_coefficients(seq):
    ops = make_named_operators(seq)
    m, l = ops["M"], ops["L"]
    total = m + l
    zero = MatQ.zero(seq.spec.N)
    assert total.shifts() == [-1, 0, 1]
    for j in total.shifts():
        for n in range(seq.n_max + 1):
            a = m.coeff(j, n) if j in m.table else zero
            b = l.coeff(j, n)
            assert total.coeff(j, n) == (None if a is None or b is None else a + b)
    # L's undefined C_0 and B_{n_max} survive; M has no shift -1
    assert total.coeff(-1, 0) is None and total.coeff(0, seq.n_max) is None
    for n in range(1, seq.n_max):
        assert total.act(seq.P, n) == m.act(seq.P, n) + l.act(seq.P, n)


# A test-local reference for x^s e^{-x} B(x): the map from each power p of x
# to the coefficient of x^p e^{-x}, zero coefficients dropped.
def _laurent(w: ScaledMat) -> dict:
    return {w.s + k: c for k, c in enumerate(w.body.coeffs) if not c.is_zero()}


def _ref_sum(*parts) -> dict:
    out = {}
    for u in parts:
        for p, c in u.items():
            out[p] = out[p] + c if p in out else c
    return {p: c for p, c in out.items() if not c.is_zero()}


def _ref_dx(u: dict) -> dict:
    # d/dx (x^p e^{-x}) = p x^{p-1} e^{-x} - x^p e^{-x}
    return _ref_sum({p - 1: c * p for p, c in u.items()}, {p: -c for p, c in u.items()})


def _ref_mul(f: MatPoly, u: dict, left: bool) -> dict:
    return _ref_sum(*({p + i: fi * c if left else c * fi} for i, fi in enumerate(f.coeffs)
                      for p, c in u.items()))


powers = st.fractions(min_value=-3, max_value=3, max_denominator=4)
small_rats = st.fractions(min_value=-3, max_value=3, max_denominator=3)
bodies = st.lists(st.lists(st.lists(small_rats, min_size=2, max_size=2),
                           min_size=2, max_size=2).map(MatQ),
                  max_size=3).map(lambda cs: MatPoly(cs, 2))


@given(powers, bodies)
@settings(max_examples=60, deadline=None)
def test_scaled_mat_derivative(s, b):
    w = ScaledMat(s, b)
    assert _laurent(w.dx()) == _ref_dx(_laurent(w))
    assert _laurent(w.dx().dx()) == _ref_dx(_ref_dx(_laurent(w)))


@given(powers, st.integers(-3, 3), bodies, bodies, bodies)
@settings(max_examples=60, deadline=None)
def test_scaled_mat_products_and_mixed_power_sums(s, gap, b1, b2, f):
    u, v = ScaledMat(s, b1), ScaledMat(s + gap, b2)
    lu, lv = _laurent(u), _laurent(v)
    neg_v = {p: -c for p, c in lv.items()}
    assert _laurent(u + v) == _ref_sum(lu, lv)
    assert _laurent(u - v) == _ref_sum(lu, neg_v)
    assert (u - v).s == min(u.s, v.s)
    assert _laurent(u.lmul(f)) == _ref_mul(f, lu, left=True)
    assert _laurent(u.rmul(f)) == _ref_mul(f, lu, left=False)
    # the aligned body carries zero low-order coefficients into the products
    diff = _ref_sum(lu, neg_v)
    assert _laurent((u - v).lmul(f)) == _ref_mul(f, diff, left=True)
    assert _laurent((u - v).rmul(f)) == _ref_mul(f, diff, left=False)
    assert _laurent(u.scale(F(-2, 3))) == {p: c * F(-2, 3) for p, c in lu.items()}
    assert (u - u).is_zero() and (u + v - v - u).is_zero()
    assert (u - v).is_zero() == (lu == lv)


@given(powers, powers.filter(lambda g: g.denominator != 1), bodies, bodies)
@settings(max_examples=30, deadline=None)
def test_scaled_mat_sum_rejects_a_non_integer_power_gap(s, gap, b1, b2):
    u, v = ScaledMat(s, b1), ScaledMat(s + gap, b2)
    with pytest.raises(ValueError):
        u + v
    with pytest.raises(ValueError):
        v - u


# DiffOp.act against a test-local schoolbook sum_j (d^j q) F_j over Fraction
# coefficient lists; q may carry zero low-order coefficients (scale_x bodies).

def _zero_rows(n):
    return [[F(0)] * n for _ in range(n)]


def _ref_poly_mul(p, q, n):
    out = [_zero_rows(n) for _ in range(len(p) + len(q) - 1)]
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] = [[u + sum((x[r][k] * y[k][c] for k in range(n)), F(0))
                           for c, u in enumerate(row)] for r, row in enumerate(out[i + j])]
    return out


def _ref_act(q, fs, n):
    total, dq = [], q
    for j, f in enumerate(fs):
        if j:
            dq = [[[v * k for v in r] for r in c] for k, c in enumerate(dq)][1:]
        for k, c in enumerate(_ref_poly_mul(dq, f, n) if dq and f else []):
            if k == len(total):
                total.append(_zero_rows(n))
            total[k] = [[u + v for u, v in zip(a, b)] for a, b in zip(total[k], c)]
    while total and not any(map(any, total[-1])):
        total.pop()
    return total


@st.composite
def act_inputs(draw):
    n = draw(st.integers(1, 3))
    cell = st.one_of(st.just(F(0)), small_rats)
    square = st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)

    def poly(max_degree):
        return ([_zero_rows(n)] * draw(st.integers(0, 2))
                + draw(st.lists(square, min_size=1, max_size=max_degree + 1)))

    return n, poly(4), [poly(3) for _ in range(draw(st.integers(1, 4)))]


@given(act_inputs())
@example((1, [[[F(0)]], [[F(0)]], [[F(1)]]], [[[[F(2)]]], [[[F(0)]], [[F(1)]]], [[[F(1, 3)]]]]))
@settings(max_examples=120, deadline=None)
def test_diffop_act_matches_the_schoolbook_sum(inputs):
    n, q, fs = inputs

    def poly(coeffs):
        return MatPoly([MatQ(c) for c in coeffs], n)

    out = DiffOp([poly(f) for f in fs], n).act(poly(q))
    assert [[list(r) for r in c.rows] for c in out.coeffs] == _ref_act(q, fs, n)
    assert all(c == MatQ(c.rows) for c in out.coeffs)


# Negative controls of the dagger checks and of the checks that read L: E_11
# added to one coefficient at an interior n.

def _bump(op: SeqOp, j: int, n: int) -> SeqOp:
    col = list(op.table[j])
    col[n] = col[n] + MatQ.unit(op.N, 0, 0)
    return SeqOp({**op.table, j: col}, op.n_max, op.N)


@pytest.mark.parametrize("name, j, failing", [
    ("Mdag", -1, ["Mdag = dagger(M)"]),
    ("L", 0, ["L self-adjoint"]),
])
def test_each_dagger_check_can_fail(name, j, failing):
    seq = compute_monic_ops(SPECS[2], 6)
    ops = make_named_operators(seq)
    ops[name] = _bump(ops[name], j, 3)
    checks = verify_star_dagger(seq, ops)
    assert [c["check_id"] for c in checks if not c["pass"]] == failing


def test_checks_reading_L_fail_on_a_perturbed_coefficient():
    """L's shift-0 coefficient enters (M L)(n) at n and n - 1, and L^2(n)
    at n - 1, n and n + 1."""
    seq = compute_monic_ops(SPECS[2], 6)
    ops = make_named_operators(seq)
    ops["L"] = _bump(ops["L"], 0, 3)
    fourier = verify_fourier_homomorphism(seq, ops)
    assert [c["check_id"] for c in fourier if not c["pass"]] \
        == [f"phi-map multiplicative n={n}" for n in (2, 3)]
    square = verify_L_poly(RPoly((0, 0, 1)), seq, ops)
    assert [c["check_id"] for c in square if not c["pass"]] \
        == [f"v(L).P = P v(x) n={n} deg=2" for n in (2, 3, 4)]


# Conjugation by e^{xA} as the composition e^{-xA} D e^{xA}, against the
# sequential action on random matrix polynomials.
NAMED_DIFFOPS = (ladder_raising, ladder_lowering, second_order, casimir_mult,
                 second_order_diagonalized)
positive_rats = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9)
nonzero_rats = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


@st.composite
def conjugation_inputs(draw):
    n = draw(st.integers(1, 4))
    spec = WeightSpec(n, draw(positive_rats),
                      tuple(draw(st.lists(nonzero_rats, min_size=n - 1, max_size=n - 1))),
                      tuple(draw(st.lists(positive_rats, min_size=n, max_size=n))))
    square = st.lists(st.lists(small_rats, min_size=n, max_size=n), min_size=n, max_size=n)
    q = MatPoly([MatQ(c) for c in draw(st.lists(square, min_size=1, max_size=4))], n)
    return spec, draw(st.sampled_from(NAMED_DIFFOPS)), q


@given(conjugation_inputs())
@settings(max_examples=60, deadline=None)
def test_conjugation_by_exp_is_a_composition(inputs):
    spec, build, q = inputs
    d = build(spec)
    left, right = exp_nilpotent(spec.A, -1), exp_nilpotent(spec.A, +1)
    conjugated = right_mult(left).compose(d).compose(right_mult(right))
    assert conjugated.act(q) == d.act(q * left) * right
