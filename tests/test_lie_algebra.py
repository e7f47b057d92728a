from fractions import Fraction as F

import pytest

from mvlaguerre.lie_algebra import (OpElement, bracket, conformal_similar,
                                    dim_formula,exp_series_truncated,
                                    extended_algebra_report, generate_algebra,
                                    iso_test, monomial_support,
                                    structural_psi, structure_report)
from mvlaguerre.matrices import MatQ
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
