import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvlaguerre import lie_algebra as la
from mvlaguerre.lie_algebra import (conformal_similar,
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


def el(bound, cD=0, cDd=0, cD2=0, mult=RPoly.zero()):
    """The coordinate tuple of cD D + cDd Ddag + cD2 D2nd + mult(x) with
    multiplier coefficients x^0..x^bound."""
    assert mult.degree <= bound
    return (cD, cDd, cD2) + tuple(mult.coeff(k) for k in range(bound + 1))


def values(v):
    """The rationals of a pair (num, d)."""
    num, d = v
    return tuple(F(x, d) for x in num)


def basis(alg):
    """The echelon basis as rational tuples."""
    return [values(v) for v in alg.vectors]


def bracket(u, v, phi, nu=None):
    """The integer bracket on rational tuples and an RPoly exponent."""
    return values(la.bracket(la._vec(u), la._vec(v), la._vec(phi.coeffs), nu))


def test_bracket_generator_table():
    x = RPoly.x()
    d = el(3, cD=1)
    ddag = el(3, cDd=1)
    xm = el(3, mult=RPoly.monomial(3))
    # multiplication elements commute
    assert not any(bracket(el(3, mult=x), xm, parse_phi("x^3")))
    # [D, x^m] = -m x^m, [Ddag, x^m] = m x^m
    assert bracket(d, xm, parse_phi("x^3")) == el(3, mult=RPoly.monomial(3) * -3)
    assert bracket(ddag, xm, parse_phi("x^3")) == el(3, mult=RPoly.monomial(3) * 3)
    # phi = x: [D, Ddag] = x
    assert bracket(el(1, cD=1), el(1, cDd=1), RPoly.x()) == el(1, mult=x)
    # general phi: [D, Ddag] = -x^2 phi'' + (2 - phi') x
    phi = parse_phi("x^3")
    expect = RPoly((0, 2)) - x * phi.derivative() - x * x * phi.derivative().derivative()
    assert bracket(d, ddag, phi) == el(3, mult=expect)
    # the result has the length of the operands
    assert len(bracket(el(5, cD=1), el(5, cDd=1), phi)) == 9


def test_bracket_rejects_mismatched_or_short_elements():
    with pytest.raises(ValueError):
        bracket(el(3, cD=1), el(4, cDd=1), parse_phi("x^3"))
    with pytest.raises(ValueError):
        bracket(el(2, cD=1), el(2, cDd=1), parse_phi("x^3"))


def test_central_element_for_family():
    for expr in ("x^2", "x^3", "x^4+x"):
        phi = parse_phi(expr)
        alg = generate_algebra(phi)
        z = el(alg.bound, cD=1, cDd=1, mult=2 * RPoly.x() - RPoly.x() * phi.derivative())
        assert all(not any(bracket(z, v, phi)) for v in basis(alg))


@pytest.mark.parametrize("expr", ["x^2", "x^3", "x^3+x^2", "x^4+x", "x^5+x^3+1"])
def test_structure_report(expr):
    rep = structure_report(generate_algebra(parse_phi(expr)))
    _ok(rep["checks"])
    # h' != 0 and h'' = 0
    assert rep["derived_length"] == 2


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
    rep = extended_algebra_report(generate_algebra(RPoly.x(), nu=F(1, 2)))
    _ok(rep["checks"])
    hatted = next(c for c in rep["checks"] if "hatted" in c["check_id"])
    assert hatted["displayed_form_pass"] is False
    casimir = next(c for c in rep["checks"] if "Casimir ad-invariance" in c["check_id"])
    assert casimir["displayed_form_pass"] is False


def test_casimir_ad_invariance_parts_fail_on_their_own():
    """The corrected quadratic Casimir Q = h o h + 4 e o f of the extended
    report passes with the zero linear part; a non-central linear part
    (h itself) fails it, and so does Q + E_00 with the zero linear part."""
    alg = CLOSURES["extended"]()
    nu, x = alg.nu, RPoly.x()
    x1, x2, x3, x4, x5 = (el(1, cD=1, mult=x), el(1, cDd=1, mult=x), el(1, cD2=1),
                          el(1, mult=x), el(1, mult=RPoly.one()))
    e = x4
    h = tuple(s - a + b for s, a, b in zip(x4, x1, x2))
    f = tuple(a - c - s + (1 + nu) * t for a, c, s, t in zip(x1, x3, x4, x5))
    ce, ch, cf = (values(alg.coordinates(la._vec(v))) for v in (e, h, f))
    dim = alg.dim
    q = MatQ([[ch[i] * ch[j] + 2 * (ce[i] * cf[j] + cf[i] * ce[j]) for j in range(dim)]
              for i in range(dim)])
    zero = (0,) * dim
    assert la._ad_invariant(alg, q, zero)
    assert not la._ad_invariant(alg, q, ch)
    assert not la._ad_invariant(alg, q + MatQ.unit(dim, 0, 0), zero)


def test_extended_requires_phi_x():
    with pytest.raises(DomainError):
        bracket(el(2, cD2=1), el(2, cD=1), parse_phi("x^2"), nu=F(1))
    with pytest.raises(DomainError):
        bracket(el(1, cD2=1), el(1, cD=1), RPoly.x())


def test_extended_table_rejects_what_it_does_not_cover():
    """The second-order generator outside the extended algebra (no nu),
    and a multiplier of degree above 1 next to it."""
    with pytest.raises(DomainError):
        bracket(el(1, cD2=1), el(1, cD=1), RPoly.x())
    with pytest.raises(DomainError):
        bracket(el(2, cD2=1), el(2, mult=RPoly.monomial(2)), RPoly.x(), nu=F(1))
    assert bracket(el(2, cD=1), el(2, mult=RPoly.monomial(2)), RPoly.x(),
                   nu=F(1)) == el(2, mult=RPoly.monomial(2, -2))


@pytest.mark.parametrize("expr", sorted(FAMILY) + ["x^8-3x^6+x", "x^4+2x^3+1/3"])
def test_generators_are_1_D_Ddag_x_and_the_derivative_multipliers(expr):
    """After 1, D, Ddag and x come the multipliers x^j phi^(j), j = 1..deg phi,
    each with its factorial factor, then the second-order generator."""
    phi = parse_phi(expr)
    b = max(1, phi.degree)
    expected = [el(b, mult=RPoly.one()), el(b, cD=1), el(b, cDd=1), el(b, mult=RPoly.x())]
    deriv = phi
    for j in range(1, phi.degree + 1):
        deriv = deriv.derivative()
        expected.append(el(b, mult=RPoly.monomial(j) * deriv))
    expected = [la._vec(e) for e in expected]
    assert la.generator_elements(phi) == expected
    assert la.generator_elements(phi, extended=True) == expected + [la._vec(el(b, cD2=1))]


def test_truncated_series_growth():
    dims = [generate_algebra(exp_series_truncated(t)).dim for t in range(4, 9)]
    assert dims == [7, 8, 9, 10, 11]
    assert all(a < b for a, b in zip(dims, dims[1:]))


# The coefficient-form bracket and the structure constants taken from the
# closure's last pass, cross-checked against the RPoly formula and the
# unit-vector Jacobi test they replaced.

def ref_bracket(e1, e2, phi, nu=None):
    """The bracket as a product of RPoly temporaries x, phi', phi'', x p',
    on coordinate tuples whose multiplier slices it reads as RPolys."""
    (a1, b1, c1), p = e1[:3], RPoly(e1[3:])
    (a2, b2, c2), q = e2[:3], RPoly(e2[3:])
    x = RPoly.x()
    w = 2 * x - x * phi.derivative() - x * x * phi.derivative().derivative()
    mult = (a1 * b2 - a2 * b1) * w
    mult = mult + x * ((b1 - a1) * q.derivative() + (a2 - b2) * p.derivative())
    ops = [0, 0, 0]
    if c1 != 0 or c2 != 0:
        assert nu is not None and phi == RPoly.x()
        s = a1 * c2 - a2 * c1
        t = b1 * c2 - b2 * c1
        u = c1 * q.coeff(1) - c2 * p.coeff(1)
        ops = [-s - u, t + u, s - t]
        mult = mult + RPoly(((t - s) * (1 + F(nu)),))
    return el(len(e1) - 4, *ops, mult=mult)


def bracket_coords(alg, a, b):
    """Bracket of two coordinate tuples (in basis coordinates), read off
    the structure constants numerator / den."""
    out = [F(0)] * alg.dim
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj == 0:
                continue
            for k, s in enumerate(alg.structure[(i, j)]):
                out[k] += ai * bj * F(s, alg.den)
    return tuple(out)


def ref_jacobi(alg):
    """Jacobi through bracket_coords of unit vectors, twice per term."""
    dim = alg.dim
    units = [tuple(F(int(t == i)) for t in range(dim)) for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                total = [F(0)] * dim
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = bracket_coords(alg, units[b], units[c])
                    outer = bracket_coords(alg, units[a], inner)
                    total = [x + y for x, y in zip(total, outer)]
                if any(total):
                    return False
    return True


rats = st.one_of(st.just(F(0)), st.fractions(min_value=-5, max_value=5,
                                             max_denominator=7))
# an extended element: cD, cDd, cD2 and a multiplier of degree <= 1
extended_elements = st.tuples(*[rats] * 5)


@st.composite
def _phi_and_two_elements(draw):
    """phi of degree <= 8 and two elements (cD2 = 0) whose multipliers
    have degree <= 8, all over the coordinate bound max(1, deg phi, deg p,
    deg q) of the drawn polynomials."""
    phi = RPoly(draw(st.lists(rats, min_size=1, max_size=9)))
    p, q = (RPoly(draw(st.lists(rats, max_size=9))) for _ in range(2))
    bound = max(1, phi.degree, p.degree, q.degree)
    return phi, el(bound, draw(rats), draw(rats), mult=p), el(bound, draw(rats), draw(rats), mult=q)


@given(_phi_and_two_elements())
@settings(max_examples=200, deadline=None)
def test_bracket_matches_rpoly_formula(drawn):
    phi, e1, e2 = drawn
    assert bracket(e1, e2, phi) == ref_bracket(e1, e2, phi)


@given(extended_elements, extended_elements, st.fractions(min_value=F(1, 7),
                                                          max_value=5))
@settings(max_examples=100, deadline=None)
def test_extended_bracket_matches_rpoly_formula(e1, e2, nu):
    assert bracket(e1, e2, RPoly.x(), nu) == ref_bracket(e1, e2, RPoly.x(), nu)


CLOSURES = {
    **{f"phi={expr}": (lambda e=expr: generate_algebra(parse_phi(e)))
       for expr in LIE_FAMILY},
    "extended": lambda: generate_algebra(RPoly.x(), nu=F(1, 2)),
    **{f"exp-series t={t}": (lambda t=t: generate_algebra(exp_series_truncated(t)))
       for t in range(4, 9)},
}


@pytest.mark.parametrize("name", list(CLOSURES))
def test_structure_constants_are_fresh_brackets_of_the_basis(name):
    alg = CLOSURES[name]()
    pairs = [(i, j) for i in range(alg.dim) for j in range(alg.dim)]
    assert sorted(alg.structure) == pairs
    rows = basis(alg)
    for i, j in pairs:
        fresh = ref_bracket(rows[i], rows[j], alg.phi, alg.nu)
        assert values((alg.structure[(i, j)], alg.den)) == values(alg.coordinates(la._vec(fresh)))
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


def test_corrected_casimir_fails_on_a_perturbed_table():
    """Every antisymmetric change of one structure numerator of the extended
    algebra, as in `_with_constant`: the corrected quadratic Casimir row of
    the extended report fails for at least one change, and passes again
    once the change is undone."""
    alg = CLOSURES["extended"]()

    def casimir_passes():
        checks = extended_algebra_report(alg)["checks"]
        return next(c for c in checks if "Casimir ad-invariance" in c["check_id"])["pass"]

    assert casimir_passes()
    verdicts = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            for t in range(alg.dim):
                _with_constant(alg, i, j, t, 1)
                _with_constant(alg, j, i, t, -1)
                verdicts.append(casimir_passes())
                _with_constant(alg, i, j, t, -1)
                _with_constant(alg, j, i, t, 1)
    assert False in verdicts
    assert casimir_passes()


@pytest.mark.parametrize("name", ["phi=x^3+x^2", "extended"])
def test_antisymmetry_can_fail(name):
    alg = CLOSURES[name]()
    for i in range(alg.dim):
        for j in range(alg.dim):
            _with_constant(alg, i, j, alg.dim - 1, F(1, 3))
            assert not alg.antisymmetry_holds(), (i, j)
            _with_constant(alg, i, j, alg.dim - 1, F(-1, 3))
    assert alg.antisymmetry_holds()



def _first_jacobi_breaking_change(alg):
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            for t in range(alg.dim):
                _with_constant(alg, i, j, t, 1)
                _with_constant(alg, j, i, t, -1)
                broken = not alg.jacobi_holds()
                _with_constant(alg, i, j, t, -1)
                _with_constant(alg, j, i, t, 1)
                if broken:
                    return i, j, t
    raise AssertionError("no antisymmetric change breaks Jacobi")


def test_reports_state_the_axioms_of_a_broken_table():
    """The reports read the algebra's cached verdicts, which still come from
    its structure constants: a broken table fails them by name."""
    alg = CLOSURES["phi=x^3+x^2"]()
    _with_constant(alg, 0, 1, alg.dim - 1, 1)
    checks = {c["check_id"]: c["pass"] for c in structure_report(alg)["checks"]}
    assert checks["antisymmetry"] is False and checks["jacobi"] is alg.jacobi_holds()

    i, j, t = _first_jacobi_breaking_change(CLOSURES["extended"]())
    alg = CLOSURES["extended"]()
    _with_constant(alg, i, j, t, 1)
    _with_constant(alg, j, i, t, -1)
    checks = {c["check_id"]: c["pass"] for c in extended_algebra_report(alg)["checks"]}
    assert checks["jacobi"] is False
    assert alg.axioms == {"antisymmetry": True, "jacobi": False}


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
    last = [(u, v) for u, v, *_ in calls[-alg.dim ** 2:]]
    assert last == [(u, v) for u in alg.vectors for v in alg.vectors]


def _rank(rows, columns):
    """Rank by plain fraction elimination, independent of the package."""
    m = [list(r) for r in rows]
    rank = 0
    for col in range(columns):
        piv = next((k for k in range(rank, len(m)) if m[k][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for k in range(rank + 1, len(m)):
            c = m[k][col] / m[rank][col]
            m[k] = [a - c * b for a, b in zip(m[k], m[rank])]
        rank += 1
    return rank


@st.composite
def _row_systems(draw):
    """(columns, rows) with up to 6 columns; the rows are integer
    combinations of a few random rational rows, so that rank deficiency
    and zero rows are common."""
    columns = draw(st.integers(1, 6))
    entry = st.fractions(-5, 5, max_denominator=4)
    gens = draw(st.lists(st.lists(entry, min_size=columns, max_size=columns),
                         min_size=1, max_size=4))
    combos = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(gens),
                                    max_size=len(gens)), max_size=7))
    rows = [[sum((c * g[t] for c, g in zip(combo, gens)), F(0)) for t in range(columns)]
            for combo in combos]
    return columns, rows


@given(_row_systems())
@settings(max_examples=200)
def test_null_space_and_span_on_random_rational_rows(system):
    columns, rows = system
    rank = _rank(rows, columns)
    vecs = [la._vec(row) for row in rows]
    null = [values(vec) for vec in la._null_space(vecs, columns)]
    assert all(sum(r * v for r, v in zip(row, vec)) == 0 for vec in null for row in rows)
    assert len(null) == columns - rank
    assert _rank(null, columns) == len(null)
    reduced, pivots = la._span(vecs)
    assert len(reduced) == rank and pivots == sorted(pivots)
    assert all(la._coordinates(reduced, pivots, vec) is not None for vec in vecs)
    # a nonzero vector orthogonal to every row lies outside their span
    assert all(la._coordinates(reduced, pivots, la._vec(vec)) is None for vec in null)


# The Fraction closure the integer layer replaced: the coefficient-form
# bracket, the echelon insert and the null space as they were on rational
# tuples, kept here as the slow reference of the integer numerators.

def fraction_bracket(u, v, phi, nu=None):
    n = len(u)
    a = u[0] * v[1] - v[0] * u[1]
    b = u[1] - u[0]
    c = v[0] - v[1]
    out = [0] * n
    if a:
        out[4] = 2 * a
        for k, f in enumerate(phi.coeffs):
            if k and f:
                out[3 + k] -= k * k * a * f
    for s, e in ((b, v), (c, u)):
        if s:
            for k in range(1, n - 3):
                if e[3 + k]:
                    out[3 + k] += k * s * e[3 + k]
    if u[2] or v[2]:
        assert nu is not None and phi == RPoly.x() and not any(u[5:]) and not any(v[5:])
        s = u[0] * v[2] - v[0] * u[2]
        t = u[1] * v[2] - v[1] * u[2]
        w = u[2] * v[4] - v[2] * u[4]
        out[0] += -s - w
        out[1] += t + w
        out[2] += s - t
        out[3] += (t - s) * (1 + F(nu))
    return tuple(out)


def fraction_coordinates(rows, pivots, v):
    coeffs = tuple(v[p] for p in pivots)
    rest = list(v)
    for c, row in zip(coeffs, rows):
        if c != 0:
            rest = [x - c * y if y else x for x, y in zip(rest, row)]
    return None if any(rest) else coeffs


def fraction_rref_insert(rows, pivots, v):
    v = [F(x) for x in v]
    for row, p in zip(rows, pivots):
        if v[p] != 0:
            c = v[p]
            for k in range(len(v)):
                v[k] -= c * row[k]
    piv = next((k for k, x in enumerate(v) if x != 0), None)
    if piv is None:
        return False
    inv = 1 / v[piv]
    v = [x * inv for x in v]
    for idx, (row, p) in enumerate(zip(rows, pivots)):
        if row[piv] != 0:
            c = row[piv]
            rows[idx] = [a - c * b for a, b in zip(row, v)]
    pos = next((t for t, p in enumerate(pivots) if p > piv), len(pivots))
    rows.insert(pos, v)
    pivots.insert(pos, piv)
    return True


def fraction_null_space(rows, unknowns):
    reduced, pivots = [], []
    for row in rows:
        fraction_rref_insert(reduced, pivots, row)
    basis = []
    for fc in range(unknowns):
        if fc in pivots:
            continue
        v = [F(0)] * unknowns
        v[fc] = F(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


def fraction_closure(phi, nu=None):
    """(basis, pivots, structure, center) of the closure on rational tuples,
    from generators built with RPoly derivatives."""
    b = max(1, phi.degree)
    gens = [el(b, mult=RPoly.one()), el(b, cD=1), el(b, cDd=1), el(b, mult=RPoly.x())]
    deriv = phi
    for j in range(1, phi.degree + 1):
        deriv = deriv.derivative()
        gens.append(el(b, mult=RPoly.monomial(j) * deriv))
    if nu is not None:
        gens.append(el(b, cD2=1))
    rows, pivots = [], []
    for g in gens:
        fraction_rref_insert(rows, pivots, g)
    grew = True
    while grew:
        basis = [tuple(v) for v in rows]
        structure, grew = {}, False
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                w = fraction_bracket(u, v, phi, nu)
                coeffs = None if grew else fraction_coordinates(rows, pivots, w)
                if coeffs is None:
                    grew |= fraction_rref_insert(rows, pivots, w)
                structure[(i, j)] = coeffs
    dim = len(basis)
    center = fraction_null_space([[structure[(i, c)][t] for i in range(dim)]
                                  for c in range(dim) for t in range(dim)], dim)
    return basis, pivots, structure, center


def _assert_matches_fraction_closure(alg, phi, nu=None):
    basis, pivots, structure, center = fraction_closure(phi, nu)
    assert alg.dim == len(basis)
    assert alg.labels == [la._label(p) for p in pivots]
    assert [values(v) for v in alg.vectors] == basis
    # the integer rows are the reference rows in lowest terms
    assert alg.vectors == [la._vec(row) for row in basis]
    # one table of integer numerators over den, in lowest terms
    numerators = [x for vec in alg.structure.values() for x in vec]
    assert all(type(x) is int for x in numerators)
    assert alg.den > 0 and math.gcd(alg.den, *numerators) == 1
    assert {ij: values((vec, alg.den)) for ij, vec in alg.structure.items()} == structure
    assert [values(v) for v in alg.center] == center


nonzero_rats = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


@given(st.lists(rats, max_size=6), nonzero_rats)
@settings(max_examples=80, deadline=None)
def test_integer_closure_matches_fraction_closure(lower, lead):
    """Random rational phi of degree 0..6: the same dimension, labels, basis,
    structure constants and center as the Fraction closure."""
    phi = RPoly([*lower, lead])
    _assert_matches_fraction_closure(generate_algebra(phi), phi)


@given(st.fractions(min_value=F(1, 7), max_value=5, max_denominator=9))
@settings(max_examples=40, deadline=None)
def test_integer_extended_closure_matches_fraction_closure(nu):
    alg = generate_algebra(RPoly.x(), nu=nu)
    _assert_matches_fraction_closure(alg, RPoly.x(), nu)


def fraction_conformal_similar(psi1, psi2):
    """The spectral test on Fraction diagonals, with lambda = t / s."""
    s1 = sorted(psi1[i, i] for i in range(psi1.N))
    s2 = sorted(psi2[i, i] for i in range(psi2.N))
    if len(s1) != len(s2):
        return False
    for t in s2:
        for s in s1:
            if s != 0 and t != 0 and sorted(v * t / s for v in s1) == s2:
                return True
    return all(v == 0 for v in s1) and all(v == 0 for v in s2)


small_rats = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@given(st.lists(small_rats, min_size=1, max_size=4), st.lists(small_rats, max_size=4),
       small_rats, st.booleans())
@settings(max_examples=200, deadline=None)
def test_conformal_similarity_on_numerators_matches_fractions(s1, other, lam, scaled):
    """Half the draws scale and reverse the first spectrum, so that similar
    pairs are common; the rest pair it with an unrelated spectrum."""
    s2 = [lam * v for v in reversed(s1)] if scaled else other
    if not s2:
        s2 = [F(0)]
    psi1, psi2 = MatQ.diag(s1), MatQ.diag(s2)
    assert conformal_similar(psi1, psi2) == fraction_conformal_similar(psi1, psi2)
