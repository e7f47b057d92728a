import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvlaguerre import report as rp
from mvlaguerre.dual_hahn import build_delta_family, phi_psi
from mvlaguerre.engine import OPSeq, check, compute_monic_ops
from mvlaguerre.matrices import MatPoly, MatQ, commutator, exp_nilpotent
from mvlaguerre.operators import (DiffOp, SeqOp, WindowError, adjoint_kernels,
                                  casimir_mult, ladder_lowering,
                                  ladder_raising, make_named_operators,
                                  right_mult, second_order,
                                  second_order_diagonalized,
                                  symmetry_residuals, verify_adjoint_pair,
                                  verify_bracket_identities,
                                  verify_intertwinings, verify_L_poly,
                                  verify_star_dagger,
                                  verify_symmetry_conditions)
from mvlaguerre.scalar import RPoly
from mvlaguerre.weights import ScaledMat, WeightSpec
# imported here, not inside a @given test: importing a test module applies
# its own @given decorators, which hypothesis rejects as nested
from test_laguerre_forms import (_rational_family as _family, _with_H_entry_added,
                                 _with_P_entry_added)

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


def _by_equation(checks, *equations):
    return [c for c in checks if c["equation"] in equations]


def test_intertwinings(seq):
    checks = verify_intertwinings(seq, make_named_operators(seq))
    _ok(checks)
    assert {c["equation"] for c in checks} == {
        "ladder-intertwining", "second-order-eigenvalue", "symmetric-first-order",
        "ladder-difference-form", "casimir-difference-identity",
        "fourier-map-multiplicative", "zero-shift-coefficient",
        "vanishing-down-shift", "down-shift-coefficient"}


def test_general_D_theorem(seq):
    """A_1(n) = A - 1 at every n < n_max, and the delta^{-1} coefficient
    of the operator matched to D vanishes at 2 <= n < n_max."""
    checks = verify_intertwinings(seq, make_named_operators(seq))
    lead = _by_equation(checks, "ladder-difference-form")
    tail = _by_equation(checks, "vanishing-down-shift")
    _ok(lead + tail)
    assert [c["check_id"] for c in lead] == [f"A1(n)=A-1 n={n}" for n in range(seq.n_max)]
    assert [c["check_id"] for c in tail] == [f"fla A-1n n={n}" for n in range(2, seq.n_max)]


def test_ladder_difference_form_fails_when_D_uses_the_transpose():
    """The shift-1 coefficient of M is read against the leading coefficient
    of P_n . D: with D built from A^T - 1 instead of A - 1, that coefficient
    is A^T - 1, so among the A_1(n) and delta^{-1} checks exactly the five
    A1(n)=A-1 checks fail."""
    seq = compute_monic_ops(SPECS[2], 5)
    named = make_named_operators(seq)
    equations = ("ladder-difference-form", "vanishing-down-shift")
    _ok(_by_equation(verify_intertwinings(seq, named), *equations))
    spec = seq.spec
    at1 = spec.A.transpose() - MatQ.identity(spec.N)
    named["D"] = DiffOp([MatPoly.monomial(1, at1), MatPoly.x_identity(spec.N)])
    checks = _by_equation(verify_intertwinings(seq, named), *equations)
    assert len(checks) == 8
    failed = {c["check_id"] for c in checks if not c["pass"]}
    assert failed == {f"A1(n)=A-1 n={n}" for n in range(5)}


def test_star_dagger_structure(seq):
    _ok(verify_star_dagger(seq, make_named_operators(seq)))


def test_fourier_map_multiplicative(seq):
    checks = _by_equation(verify_intertwinings(seq, make_named_operators(seq)),
                          "fourier-map-multiplicative")
    _ok(checks)
    assert [c["check_id"] for c in checks] \
        == [f"phi-map multiplicative n={n}" for n in range(1, seq.n_max - 1)]


def test_bracket_identities_and_displayed_variants(seq):
    checks = verify_bracket_identities(seq)
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
    _ok(verify_symmetry_conditions(ops["D2"], seq.spec.weight, "W"))
    _ok(verify_symmetry_conditions(ops["DQ2"], seq.spec.diagonal_weight, "T"))


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
        corrupted, spec.diagonal_weight, "corrupted")
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
    checks = verify_symmetry_conditions(DiffOp(coeffs), seq.spec.weight, "W")
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
    """At every shift j of M, L and MC, the dagger coefficient at n is
    H_n A_{-j}(n+j)^T H_{n+j}^{-1}, with a fresh inverse, wherever n + j is
    in the window; where the family cannot form A_{-j}(n+j), reading it
    raises."""
    ops = make_named_operators(seq)
    for name in ("M", "L", "MC"):
        op = ops[name]
        dag = op.dagger(seq)
        assert dag.shifts() == sorted(-j for j in op.shifts()), name
        for j in dag.shifts():
            for n in range(max(0, -j), min(seq.n_max, seq.n_max - j) + 1):
                try:
                    a = op.coeff(-j, n + j)
                except WindowError:
                    with pytest.raises(WindowError):
                        dag.coeff(j, n)
                    continue
                rhs = seq.H[n] * a.transpose() * seq.H[n + j].inverse()
                assert dag.coeff(j, n) == rhs, (name, j, n)


def test_dagger_is_zero_below_the_window(seq):
    """A dagger coefficient whose target n + j is negative multiplies a
    vanishing sequence value: it reads as an exact zero."""
    ops = make_named_operators(seq)
    zero = MatQ.zero(seq.spec.N)
    for name in ("M", "L", "MC"):
        dag = ops[name].dagger(seq)
        below = [(j, n) for j in dag.shifts() for n in range(-j)]
        assert below and all(dag.coeff(j, n) == zero for j, n in below), name


def test_coefficients_below_and_outside_the_window(seq):
    """Below the window (n + j < 0) a coefficient reads as an exact zero;
    B_{n_max}, the shift-0 and shift-(-1) coefficients of MC at n_max and
    any n outside 0..n_max raise WindowError when read."""
    ops = make_named_operators(seq)
    zero, top = MatQ.zero(seq.spec.N), seq.n_max
    for name in ("M", "Mdag", "L", "MC"):
        op = ops[name]
        below = [(j, n) for j in op.shifts() for n in range(-j)]
        assert all(op.coeff(j, n) == zero for j, n in below), name
        for j in op.shifts():
            for n in (-1, top + 1):
                with pytest.raises(WindowError):
                    op.coeff(j, n)
    assert ops["L"].coeff(-1, 0) == zero and ops["Mdag"].coeff(-1, 0) == zero
    for name, j in (("L", 0), ("MC", 0), ("MC", -1)):
        with pytest.raises(WindowError):
            ops[name].coeff(j, top)
    assert ops["L"].coeff(-1, top) == seq.C[top] and ops["MC"].coeff(1, top) == seq.spec.A


@pytest.mark.parametrize("outer, inner", [("M", "L"), ("L", "L"), ("M", "Mdag")])
def test_composition_acts_as_the_sequential_action(seq, outer, inner):
    """(X Y) . P at n is X acting on the sequence k -> (Y . P)(k), at every n
    whose images stay in the window (n = 0 included, where the terms below
    the window drop)."""
    ops = make_named_operators(seq)
    x, y = ops[outer], ops[inner]
    images = [y.act(seq.P, k) for k in range(seq.n_max)]
    xy = x.compose(y)
    for n in range(seq.n_max - 1):
        assert xy.act(seq.P, n) == x.act(images, n), n


def test_each_coefficient_is_formed_once_per_operator(monkeypatch):
    """Through one operator suite, no SeqOp forms a coefficient (j, n) twice:
    every named, composed, scaled, summed, starred or daggered operator
    reads its cached coefficients."""
    seq = compute_monic_ops(SPECS[2], 5)
    formed, keep = [], []
    init = SeqOp.__init__

    def counting_init(self, shifts, coef, n_max, n_dim):
        keep.append(self)  # holds every operator, so ids stay unique

        def counted(j, n):
            out = coef(j, n)
            formed.append((id(self), j, n))
            return out

        init(self, shifts, counted, n_max, n_dim)

    monkeypatch.setattr(SeqOp, "__init__", counting_init)
    named = []
    make = rp.ops.make_named_operators
    monkeypatch.setattr(rp.ops, "make_named_operators",
                        lambda s: named.append(make(s)) or named[-1])
    _ok(rp.suite_operators(seq))
    monkeypatch.undo()
    assert len(formed) == len(set(formed))
    [ops] = named
    assert all(any(key[0] == id(ops[name]) for key in formed)
               for name in ("M", "Mdag", "L", "MC"))


def test_seqop_sum_is_zero_padded_and_keeps_undefined_coefficients(seq):
    """m + l reads m.coeff + l.coeff at every shift, M's missing shift -1
    as zero; L's B_{n_max} stays undefined (reading it raises) and its C_0
    is below the window (an exact zero)."""
    ops = make_named_operators(seq)
    m, l = ops["M"], ops["L"]
    total = m + l
    zero = MatQ.zero(seq.spec.N)
    assert total.shifts() == [-1, 0, 1]
    for j in total.shifts():
        for n in range(seq.n_max + 1):
            if (j, n) == (0, seq.n_max):
                continue
            assert total.coeff(j, n) == m.coeff(j, n) + l.coeff(j, n)
    assert all(m.coeff(-1, n) == zero for n in range(seq.n_max + 1))
    with pytest.raises(WindowError):
        total.coeff(0, seq.n_max)
    assert total.coeff(-1, 0) == zero
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
    unit = MatQ.unit(op.N, 0, 0)
    return SeqOp(op.shifts(), lambda i, k: op.coef(i, k) + unit if (i, k) == (j, n)
                 else op.coef(i, k), op.n_max, op.N)


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


@pytest.mark.parametrize("name, failing", [
    ("L", ["L self-adjoint"]),
    ("Mdag", ["Mdag = dagger(M)"]),
])
def test_dagger_checks_compare_n_zero(name, failing):
    """At n_max = 1 the dagger rows compare n = 0, where a shift below zero
    reads as an exact zero: E_11 added to the delta^0 coefficient there
    fails the row that reads it."""
    seq = compute_monic_ops(SPECS[2], 1)
    ops = make_named_operators(seq)
    _ok(verify_star_dagger(seq, ops))
    ops[name] = _bump(ops[name], 0, 0)
    checks = verify_star_dagger(seq, ops)
    assert [c["check_id"] for c in checks if not c["pass"]] == failing


def test_checks_reading_L_fail_on_a_perturbed_coefficient():
    """L's shift-0 coefficient enters (M L)(n) at n and n - 1, (L . P)(n) in
    the Casimir identity at n, and L^2(n) at n - 1, n and n + 1."""
    seq = compute_monic_ops(SPECS[2], 6)
    ops = make_named_operators(seq)
    ops["L"] = _bump(ops["L"], 0, 3)
    checks = verify_intertwinings(seq, ops)
    fourier = _by_equation(checks, "fourier-map-multiplicative")
    assert [c["check_id"] for c in fourier if not c["pass"]] \
        == [f"phi-map multiplicative n={n}" for n in (2, 3)]
    assert [c["check_id"] for c in checks if not c["pass"]] \
        == [f"{name} n={n}" for n, name in ((2, "phi-map multiplicative"),
                                            (3, "Casimir identity"),
                                            (3, "phi-map multiplicative"))]
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
    left, right = exp_nilpotent(-spec.A), exp_nilpotent(spec.A)
    conjugated = right_mult(left).compose(d).compose(right_mult(right))
    assert conjugated.act(q) == d.act(q * left) * right


# The operator checks form each product once: the adjoint kernels by moment
# offset, the symmetry equations from one F_k W per coefficient, the
# J-brackets entry by entry.  Each is compared exactly with the slow path it
# replaced, kept here as the reference: the per-(a, b) kernel, the rmul form
# of the symmetry equations and the brackets by the generic commutator.

def _adjoint_defect_reference(d1, d2, table, a, b):
    """S1(a,b) - S2(a,b), every term built for this (a, b) alone."""
    pairs = []
    for j, fj in enumerate(d1.F):
        fall = math.perm(a, j)
        if fall:
            pairs += [(fc, table[a + b - j + c] * fall) for c, fc in enumerate(fj.coeffs)]
    for j, gj in enumerate(d2.F):
        fall = math.perm(b, j)
        if fall:
            pairs += [(table[a + b - j + c] * -fall, gc.transpose())
                      for c, gc in enumerate(gj.coeffs)]
    return MatQ.dot(pairs, d1.N)


def _symmetry_reference(d, w):
    f0, f1, f2 = d.coeff(0), d.coeff(1), d.coeff(2)
    return (w.lmul(f2) - w.rmul(f2.transpose()),
            w.lmul(f2).dx().scale(2) - w.lmul(f1) - w.rmul(f1.transpose()),
            w.lmul(f2).dx().dx() - w.lmul(f1).dx() + w.lmul(f0) - w.rmul(f0.transpose()))


def _bracket_reference(seq):
    """verify_bracket_identities with every bracket by `commutator` and
    every product formed where it is read."""
    A, J = seq.spec.A, seq.spec.J
    i = MatQ.identity(seq.spec.N)
    hjh, t, gamma = seq.HJH, seq.T, seq.Gamma
    gc = [None] + [gamma[n] * seq.C[n] - seq.C[n] * gamma[n - 1]
                   for n in range(1, seq.n_max + 1)]
    checks = []
    for n in range(seq.n_max - 1):
        checks.append(check(f"ML.1 n={n}", "bracket-raising-shift",
                            seq.B[n] * (A - i) - (A - i) * seq.B[n + 1]
                            == i * 2 + hjh[n + 1] - hjh[n]))
    for n in range(1, seq.n_max):
        checks.append(check(f"MdL0 n={n}", "bracket-B-J",
                            seq.B[n] == commutator(seq.B[n], J) + t[n] - t[n + 1]))
    for n in range(1, seq.n_max):
        corrected = commutator(seq.C[n], J) - seq.B[n] * t[n] + t[n] * seq.B[n - 1]
        displayed = commutator(seq.C[n], J) - seq.B[n] * t[n] - t[n] * seq.B[n - 1]
        checks.append(check(f"MdL-1 n={n}", "bracket-C-J", 2 * seq.C[n] == corrected,
                            displayed_form_pass=bool(2 * seq.C[n] == displayed)))
    for n in range(1, seq.n_max):
        rhs = -commutator(J, hjh[n]) - t[n] * (A - i) + (A - i) * t[n + 1]
        checks.append(check(f"MMd0 n={n}", "bracket-B-from-norms", seq.B[n] == rhs))
    for n in range(1, seq.n_max + 1):
        checks.append(check(f"GamaL-1 n={n}", "bracket-eigen-C", gc[n] == t[n]))
    for n in range(seq.n_max + 1):
        checks.append(check(f"GamaM0 n={n}", "bracket-eigen-J",
                            commutator(gamma[n], hjh[n]) == i * n + gamma[n] + hjh[n]))
    for n in range(1, seq.n_max + 1):
        checks.append(check(f"GamaMdag-1 n={n}", "bracket-eigen-downshift",
                            gamma[n] * t[n] - t[n] * gamma[n - 1] == -t[n]))
    for n in range(1, seq.n_max):
        checks.append(check(f"prop5.6 [B,J] n={n}", "J-bracket-closed-form",
                            commutator(seq.B[n], J) == seq.B[n] - gc[n] + gc[n + 1]))
    for n in range(1, seq.n_max):
        corrected = 2 * seq.C[n] + seq.B[n] * gc[n] - gc[n] * seq.B[n - 1]
        displayed = 2 * seq.C[n] + seq.B[n] * gc[n] + gc[n] * seq.B[n - 1]
        checks.append(check(f"prop5.6 [C,J] n={n}", "J-bracket-closed-form",
                            commutator(seq.C[n], J) == corrected,
                            displayed_form_pass=bool(commutator(seq.C[n], J) == displayed)))
    return checks


def _mc_reference(seq, j, k):
    """The delta^j coefficient of 'MC' at n = k, by `commutator`."""
    A, J, X, Y = seq.spec.A, seq.spec.J, seq.X, seq.Y
    if j == 1:
        return A
    if k >= seq.n_max:
        return None
    if j == 0:
        return X[k] * A - A * X[k + 1] - J
    return Y[k] * A - A * Y[k + 1] + commutator(J, X[k]) + (A * X[k + 1] - X[k] * A) * X[k]


FAMILIES = range(5)
FAMILY_IDS = ["N=1", "N=2", "N=3", "N=4", "dual Hahn"]
ADJOINT_PAIRS = [("D", "Ddag"), ("Ddag", "D"), ("C", "C"), ("D2", "D2"), ("D", "D"),
                 ("D", "D2")]


@pytest.mark.parametrize("index", FAMILIES, ids=FAMILY_IDS)
def test_adjoint_kernels_by_moment_offset_are_the_per_pair_kernels(index):
    """Every kernel equals the reference, the vanishing ones of the three
    adjoint pairs and the nonzero ones of pairs that are not adjoint; (D, D)
    and (D2, D2) are self pairs, whose right kernels are transposes."""
    seq = _family(index)
    named = make_named_operators(seq)
    nonzero = 0
    for deg_bound in (0, 1, 4):
        for left, right in ADJOINT_PAIRS:
            d1, d2 = named[left], named[right]
            kernels = adjoint_kernels(d1, d2, seq.table, deg_bound)
            assert list(kernels) == [(a, b) for a in range(deg_bound + 1)
                                     for b in range(deg_bound + 1)]
            for (a, b), defect in kernels.items():
                assert defect == _adjoint_defect_reference(d1, d2, seq.table, a, b), \
                    (left, right, a, b)
                nonzero += not defect.is_zero()
    assert nonzero


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FAMILIES), st.data())
def test_a_perturbed_Ddag_fails_the_reference_ladder_pair_ids(index, data):
    """One coefficient of D-dagger perturbed at one entry: the ladder pair
    fails exactly the (a, b) whose reference kernel is nonzero."""
    seq = _family(index)
    named = make_named_operators(seq)
    d, ddag = named["D"], named["Ddag"]
    N = seq.spec.N
    j, power = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 2))
    r, c = data.draw(st.integers(0, N - 1)), data.draw(st.integers(0, N - 1))
    value = data.draw(st.fractions(-5, 5, max_denominator=7).filter(bool))
    bump = MatPoly.monomial(power, MatQ.unit(N, r, c) * value)
    bad = DiffOp([g + bump if k == j else g for k, g in enumerate(ddag.F)], N)
    failing = [x["check_id"] for x in verify_adjoint_pair(d, bad, seq.table, 4, "ladder pair")
               if not x["pass"]]
    expected = [f"adjoint ladder pair a={a},b={b}" for a in range(5) for b in range(5)
                if not _adjoint_defect_reference(d, bad, seq.table, a, b).is_zero()]
    assert failing == expected and failing


def _perturbed_operators(d):
    """d itself and d with E_01 (E_00 at N = 1) added to each coefficient."""
    N = d.N
    unit = MatPoly.const(MatQ.unit(N, 0, min(1, N - 1)))
    coeffs = [d.coeff(k) for k in range(3)]
    return [d] + [DiffOp([f + unit if k == m else f for k, f in enumerate(coeffs)], N)
                  for m in range(3)]


@pytest.mark.parametrize("index", FAMILIES, ids=FAMILY_IDS)
def test_symmetry_residuals_are_the_rmul_form(index):
    """The residuals from one F_k W each equal the rmul form, at both powers
    and bodies, for D2 against W, D_Q2 against T and the Pearson operator
    against its weight, clean and with each coefficient perturbed."""
    seq = _family(index)
    named = make_named_operators(seq)
    spec = seq.spec
    cases = [(named["D2"], spec.weight), (named["DQ2"], spec.diagonal_weight)]
    if index == 4:
        params = build_delta_family(3, F(1, 2), 2, 1)
        phi, psi, _ = phi_psi(params, seq)
        l0 = seq.K_inv[0]
        w_nu = ScaledMat(spec.weight.s, l0 * spec.weight.body * l0.transpose())
        cases.append((DiffOp([MatPoly.zero(3), psi.transpose(), phi.transpose()]), w_nu))
    failed = 0
    for d, w in cases:
        for op in _perturbed_operators(d):
            got, ref = symmetry_residuals(op, w), _symmetry_reference(op, w)
            assert [(c.s, c.body) for c in got] == [(c.s, c.body) for c in ref]
            failed += sum(not c.is_zero() for c in got)
    assert failed


def test_a_non_symmetric_weight_raises():
    seq = _family(2)
    body = seq.spec.weight.body + MatPoly.const(MatQ.unit(3, 0, 2))
    with pytest.raises(ValueError):
        verify_symmetry_conditions(make_named_operators(seq)["D2"],
                                   ScaledMat(seq.spec.nu, body), "W")


def test_phi_psi_rejects_a_family_of_another_weight():
    params = build_delta_family(3, F(1, 2), 2, 1)
    with pytest.raises(ValueError):
        phi_psi(params, _family(2))


@pytest.mark.parametrize("index", FAMILIES, ids=FAMILY_IDS)
def test_brackets_and_MC_match_the_generic_commutator(index):
    """The bracket checks and the 'MC' coefficients equal the commutator
    forms, clean and with one entry of one H_m or one P_m perturbed (where
    some verdict, printed variants included, fails)."""
    seq = _family(index)
    N = seq.spec.N
    families = [seq] + [family for m in range(1, seq.n_max + 1)
                        for family in (_with_H_entry_added(seq, m, 1, N, F(-3, 7)),
                                       _with_P_entry_added(seq, m, N, 1, m // 2, F(-3, 7)))]
    failed = 0
    for family in families:
        checks = verify_bracket_identities(family)
        assert checks == _bracket_reference(family)
        failed += sum(not c["pass"] for c in checks)
        mc = make_named_operators(family)["MC"]
        for j, k in ((j, k) for j in (-1, 0, 1) for k in range(family.n_max + 1)
                     if k + j >= 0):
            ref = _mc_reference(family, j, k)
            if ref is None:
                with pytest.raises(WindowError):
                    mc.coeff(j, k)
            else:
                assert mc.coeff(j, k) == ref
    assert failed


@pytest.mark.parametrize("index", FAMILIES, ids=FAMILY_IDS)
def test_images_from_shared_derivatives_are_the_images(index):
    """act_on_derivatives([P, P', P'']) is act(P) for every differential
    operator the intertwinings read, and a list that stops short of the
    operator's order raises."""
    seq = _family(index)
    ops = make_named_operators(seq)
    for p in seq.P:
        ders = [p, p.derivative()]
        ders.append(ders[1].derivative())
        for name in ("D", "Ddag", "D2", "C"):
            assert ops[name].act_on_derivatives(ders) == ops[name].act(p)
        with pytest.raises(ValueError):
            ops["D2"].act_on_derivatives(ders[:2])
