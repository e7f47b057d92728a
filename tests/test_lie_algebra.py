from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvlaguerre import lie_algebra as la
from mvlaguerre.lie_algebra import (OpElement, bracket, conformal_similar,
                                    dim_formula, exp_series_truncated,
                                    extended_algebra_report, generate_algebra,
                                    iso_test, monomial_support,
                                    structural_psi, structure_report)
from mvlaguerre.matrices import MatQ
from mvlaguerre.report import LIE_FAMILY
from mvlaguerre.scalar import DomainError, RPoly, parse_phi


def _ok(checks):
    bad = [c for c in checks if not c["pass"]]
    assert not bad, bad


FAMILY = {
    "x": 4,
    "x^2": 5,
    "x^3": 5,
    "x^3+x^2": 6,
    "x^4+x": 5,
    "x^5": 5,
    "x^5+x^3+1": 6,
}


@pytest.mark.parametrize("expr,expected", sorted(FAMILY.items()))
def test_closure_dimension_matches_formula(expr, expected):
    phi = parse_phi(expr)
    alg = generate_algebra(phi)
    assert alg.dim == expected == dim_formula(phi)
    assert alg.jacobi_holds()
    assert alg.antisymmetry_holds()


def test_bracket_generator_table():
    x = RPoly.x()
    d = OpElement(cD=1)
    ddag = OpElement(cDd=1)
    xm = OpElement(mult=RPoly.monomial(3))
    # multiplication elements commute
    assert bracket(OpElement(mult=x), xm, parse_phi("x^3")).is_zero()
    # [D, x^m] = -m x^m, [Ddag, x^m] = m x^m
    assert bracket(d, xm, parse_phi("x^3")) == OpElement(mult=RPoly.monomial(3) * -3)
    assert bracket(ddag, xm, parse_phi("x^3")) == OpElement(mult=RPoly.monomial(3) * 3)
    # phi = x: [D, Ddag] = x
    assert bracket(d, ddag, RPoly.x()) == OpElement(mult=x)
    # general phi: [D, Ddag] = -x^2 phi'' + (2 - phi') x
    phi = parse_phi("x^3")
    expect = RPoly((0, 2)) - x * phi.derivative() - x * x * phi.derivative().derivative()
    assert bracket(d, ddag, phi) == OpElement(mult=expect)


def test_central_element_for_family():
    for expr in ("x^2", "x^3", "x^4+x"):
        phi = parse_phi(expr)
        alg = generate_algebra(phi)
        z = OpElement(cD=1, cDd=1, mult=2 * RPoly.x() - RPoly.x() * phi.derivative())
        assert all(bracket(z, OpElement.from_coords(v), phi).is_zero()
                   for v in alg.basis)


@pytest.mark.parametrize("expr", ["x^2", "x^3", "x^3+x^2", "x^4+x", "x^5+x^3+1"])
def test_structure_report(expr):
    rep = structure_report(generate_algebra(parse_phi(expr)))
    _ok(rep["checks"])


def test_structure_report_requires_degree_two():
    with pytest.raises(DomainError):
        structure_report(generate_algebra(RPoly.x()))
    with pytest.raises(DomainError):
        iso_test(RPoly.x(), parse_phi("x^2"))


def test_L36_invariant():
    rep = structure_report(generate_algebra(parse_phi("x^2+3x")))
    assert rep["l36_alpha"] == "2/9"
    rep5 = structure_report(generate_algebra(parse_phi("x^5+x")))
    assert rep5["l36_alpha"] == "5/36"


def test_iso_test_and_support():
    assert monomial_support(parse_phi("x^3+x^2")) == {2, 3}
    assert iso_test(parse_phi("x^3"), parse_phi("x^3+x"))
    assert not iso_test(parse_phi("x^3"), parse_phi("x^4"))
    assert iso_test(parse_phi("x^2"), parse_phi("x^2+7"))


def test_iso_agrees_with_conformal_similarity():
    exprs = ["x^2", "x^3", "x^3+x^2", "x^4+x", "x^5", "x^5+x^3+1"]
    for e1 in exprs:
        for e2 in exprs:
            p1, p2 = parse_phi(e1), parse_phi(e2)
            assert iso_test(p1, p2) == conformal_similar(
                structural_psi(generate_algebra(p1)), structural_psi(generate_algebra(p2)))


def test_conformal_similarity_cases():
    assert conformal_similar(MatQ.diag([1, 2]), MatQ.diag([1, 2]))
    assert conformal_similar(MatQ.diag([1, 3]), MatQ.diag([2, 6]))
    assert not conformal_similar(MatQ.diag([1, 2]), MatQ.diag([1, 3]))
    assert not conformal_similar(MatQ.diag([1, 2]), MatQ.diag([1, 2, 3]))


def test_degree_mismatch_never_isomorphic():
    for e1, e2 in [("x^2", "x^3"), ("x^3+x^2", "x^4+x"), ("x^5", "x^3")]:
        assert not iso_test(parse_phi(e1), parse_phi(e2))


def test_extended_algebra_report():
    rep = extended_algebra_report(generate_algebra(RPoly.x(), nu=F(1, 2), extended=True))
    _ok(rep["checks"])
    hatted = next(c for c in rep["checks"] if "hatted" in c["check_id"])
    assert hatted["displayed_form_pass"] is False
    casimir = next(c for c in rep["checks"] if "Casimir ad-invariance" in c["check_id"])
    assert casimir["displayed_form_pass"] is False


def test_extended_requires_phi_x():
    with pytest.raises(DomainError):
        bracket(OpElement(cD2=1), OpElement(cD=1), parse_phi("x^2"),
                nu=F(1), extended=True)
    with pytest.raises(DomainError):
        bracket(OpElement(cD2=1), OpElement(cD=1), RPoly.x(), extended=True)


def test_truncated_series_growth():
    dims = [generate_algebra(exp_series_truncated(t)).dim for t in range(4, 9)]
    assert dims == [7, 8, 9, 10, 11]
    assert all(a < b for a, b in zip(dims, dims[1:]))


# The coefficient-form bracket and the structure constants taken from the
# closure's last pass, cross-checked against the RPoly formula and the
# unit-vector Jacobi test they replaced.

def ref_bracket(e1, e2, phi, nu=None, extended=False):
    """The bracket as a product of RPoly temporaries x, phi', phi'', x p'."""
    x = RPoly.x()
    w = 2 * x - x * phi.derivative() - x * x * phi.derivative().derivative()
    mult = (e1.cD * e2.cDd - e2.cD * e1.cDd) * w
    mult = mult + x * ((e1.cDd - e1.cD) * e2.mult.derivative()
                       + (e2.cD - e2.cDd) * e1.mult.derivative())
    out = OpElement(0, 0, 0, mult)
    if e1.cD2 != 0 or e2.cD2 != 0:
        assert extended and phi == RPoly.x()
        s = e1.cD * e2.cD2 - e2.cD * e1.cD2
        t = e1.cDd * e2.cD2 - e2.cDd * e1.cD2
        u = e1.cD2 * e2.mult.coeff(1) - e2.cD2 * e1.mult.coeff(1)
        out.cD += -s - u
        out.cDd += t + u
        out.cD2 += s - t
        out.mult = out.mult + RPoly(((t - s) * (1 + F(nu)),))
    return out


def ref_jacobi(alg):
    """Jacobi through bracket_coords of unit vectors, twice per term."""
    dim = alg.dim
    units = [tuple(F(int(t == i)) for t in range(dim)) for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                total = [F(0)] * dim
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = alg.bracket_coords(units[b], units[c])
                    outer = alg.bracket_coords(units[a], inner)
                    total = [x + y for x, y in zip(total, outer)]
                if any(total):
                    return False
    return True


rats = st.one_of(st.just(F(0)), st.fractions(min_value=-5, max_value=5,
                                             max_denominator=7))
polys = st.lists(rats, max_size=9).map(RPoly)
elements = st.builds(OpElement, rats, rats, st.just(0), polys)
extended_elements = st.builds(OpElement, rats, rats, rats,
                              st.lists(rats, max_size=2).map(RPoly))


@given(st.lists(rats, min_size=1, max_size=9).map(RPoly), elements, elements)
@settings(max_examples=200, deadline=None)
def test_bracket_matches_rpoly_formula(phi, e1, e2):
    assert bracket(e1, e2, phi) == ref_bracket(e1, e2, phi)


@given(extended_elements, extended_elements, st.fractions(min_value=F(1, 7),
                                                          max_value=5))
@settings(max_examples=100, deadline=None)
def test_extended_bracket_matches_rpoly_formula(e1, e2, nu):
    assert bracket(e1, e2, RPoly.x(), nu, True) \
        == ref_bracket(e1, e2, RPoly.x(), nu, True)


CLOSURES = {
    **{f"phi={expr}": (lambda e=expr: generate_algebra(parse_phi(e)))
       for expr in LIE_FAMILY},
    "extended": lambda: generate_algebra(RPoly.x(), nu=F(1, 2), extended=True),
    **{f"exp-series t={t}": (lambda t=t: generate_algebra(exp_series_truncated(t)))
       for t in range(4, 9)},
}


@pytest.mark.parametrize("name", list(CLOSURES))
def test_structure_constants_are_fresh_brackets_of_the_basis(name):
    alg = CLOSURES[name]()
    elems = [OpElement.from_coords(v) for v in alg.basis]
    pairs = [(i, j) for i in range(alg.dim) for j in range(alg.dim)]
    assert sorted(alg.structure) == pairs
    for i, j in pairs:
        fresh = ref_bracket(elems[i], elems[j], alg.phi, alg.nu, alg.extended)
        assert alg.structure[(i, j)] == alg.coordinates(fresh.coords(alg.bound))
    assert alg.jacobi_holds() and ref_jacobi(alg)


def _with_constant(alg, i, j, t, delta):
    vec = list(alg.structure[(i, j)])
    vec[t] += delta
    alg.structure[(i, j)] = tuple(vec)


@pytest.mark.parametrize("name", ["phi=x^3+x^2", "phi=x^5+x^3+1", "extended"])
def test_jacobi_contraction_agrees_with_unit_vectors_and_can_fail(name):
    """Every antisymmetric perturbation of one constant: the contraction
    and the unit-vector form agree, and some perturbations break Jacobi."""
    alg = CLOSURES[name]()
    verdicts = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            for t in range(alg.dim):
                _with_constant(alg, i, j, t, 1)
                _with_constant(alg, j, i, t, -1)
                assert alg.antisymmetry_holds()
                verdicts.append(alg.jacobi_holds())
                assert verdicts[-1] == ref_jacobi(alg), (i, j, t)
                _with_constant(alg, i, j, t, -1)
                _with_constant(alg, j, i, t, 1)
    assert alg.jacobi_holds()
    assert False in verdicts


@pytest.mark.parametrize("name", ["phi=x^3+x^2", "extended"])
def test_antisymmetry_can_fail(name):
    alg = CLOSURES[name]()
    for i in range(alg.dim):
        for j in range(alg.dim):
            _with_constant(alg, i, j, alg.dim - 1, F(1, 3))
            assert not alg.antisymmetry_holds(), (i, j)
            _with_constant(alg, i, j, alg.dim - 1, F(-1, 3))
    assert alg.antisymmetry_holds()


def test_lie_alg_takes_the_last_closure_pass(monkeypatch):
    """The structure comes from the brackets of the closure's last pass,
    which are every ordered pair of the final basis; building the LieAlg
    brackets nothing more."""
    calls = []
    original = la.bracket

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(la, "bracket", counting)
    during_init = []
    init = la.LieAlg.__init__

    def watched_init(self, *args, **kwargs):
        before = len(calls)
        init(self, *args, **kwargs)
        during_init.append(len(calls) - before)

    monkeypatch.setattr(la.LieAlg, "__init__", watched_init)
    alg = generate_algebra(parse_phi("x^5+x^3+1"))
    assert during_init == [0]
    last = [(e1.coords(alg.bound), e2.coords(alg.bound))
            for e1, e2, *_ in calls[-alg.dim ** 2:]]
    assert last == [(u, v) for u in alg.basis for v in alg.basis]
