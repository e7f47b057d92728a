"""Lie algebras generated by the ladder pair over a polynomial weight
exponent, their closure, dimension and isomorphism classification, and the
five-dimensional extension by the second-order operator.

Elements live in the coordinate space

    (cD, cDd, cD2, mult_0, mult_1, ..., mult_B)

for the raising operator, its adjoint, the second-order operator (extended
case only), and a right-multiplication polynomial of degree <= B.  The
bracket is the bilinear extension of the generator table

    [D, p(x)] = -x p'(x),  [Ddag, p(x)] = x p'(x),
    [D, Ddag]  = -x^2 phi'' + (2 - phi') x,

plus, in the extended case (phi = x only),

    [D2nd, x] = -D + Ddag,
    [D, D2nd] = -D + D2nd - (1+nu),   [Ddag, D2nd] = Ddag - D2nd + (1+nu).

On coordinates the first table reads: for e1 = (a1, b1, 0, p), e2 = (a2, b2,
0, q), the bracket is the multiplication polynomial whose x^k coefficient is

    (a1 b2 - a2 b1) w_k + k ((b1 - a1) q_k + (a2 - b2) p_k),
    w_k = 2 [k = 1] - k^2 phi_k,

since x phi' + x^2 phi'' has x^k coefficient k^2 phi_k and x p' has k p_k.

The closure's last pass brackets every ordered pair of the final basis; those
brackets are the structure constants, and the Lie axioms are checked on them
directly.
"""

from __future__ import annotations

from fractions import Fraction

from .engine import check
from .matrices import MatQ
from .scalar import DomainError, RPoly, rat


def exp_series_truncated(order: int) -> RPoly:
    """sum_{i=0}^{order} x^i / i!, the truncation witness for the
    infinite-dimensional direction."""
    c = Fraction(1)
    coeffs = [Fraction(1)]
    for i in range(1, order + 1):
        c /= i
        coeffs.append(c)
    return RPoly(coeffs)


class OpElement:
    """One algebra element: rational coefficients on the three operator
    generators plus a multiplication polynomial (its constant term is the
    identity generator)."""

    __slots__ = ("cD", "cDd", "cD2", "mult")

    def __init__(self, cD=0, cDd=0, cD2=0, mult=None):
        self.cD = rat(cD)
        self.cDd = rat(cDd)
        self.cD2 = rat(cD2)
        self.mult = mult if mult is not None else RPoly.zero()

    def is_zero(self) -> bool:
        return self.cD == 0 and self.cDd == 0 and self.cD2 == 0 and self.mult.is_zero()

    def __eq__(self, other):
        return (self.cD, self.cDd, self.cD2, self.mult) == \
            (other.cD, other.cDd, other.cD2, other.mult)

    def __add__(self, other):
        return OpElement(self.cD + other.cD, self.cDd + other.cDd,
                         self.cD2 + other.cD2, self.mult + other.mult)

    def __sub__(self, other):
        return OpElement(self.cD - other.cD, self.cDd - other.cDd,
                         self.cD2 - other.cD2, self.mult - other.mult)

    def scale(self, c):
        c = rat(c)
        return OpElement(self.cD * c, self.cDd * c, self.cD2 * c, self.mult * c)

    def coords(self, bound: int) -> tuple:
        if self.mult.degree > bound:
            raise ValueError("multiplication degree exceeds the coordinate bound")
        return (self.cD, self.cDd, self.cD2) + tuple(
            self.mult.coeff(k) for k in range(bound + 1))

    @staticmethod
    def from_coords(v) -> "OpElement":
        return OpElement(v[0], v[1], v[2], RPoly(v[3:]))

    def __repr__(self):
        return f"OpElement(cD={self.cD}, cDd={self.cDd}, cD2={self.cD2}, mult={self.mult})"


def bracket(e1: OpElement, e2: OpElement, phi: RPoly,
            nu=None, extended: bool = False) -> OpElement:
    """Lie bracket of two elements over exponent phi, in the coefficient
    form of the module docstring.  The extended table (second-order
    generator) is only defined for phi = x and needs nu."""
    a = e1.cD * e2.cDd - e2.cD * e1.cDd
    b = e1.cDd - e1.cD
    c = e2.cD - e2.cDd
    ph = phi.coeffs if a else ()
    q = e2.mult.coeffs if b else ()
    p = e1.mult.coeffs if c else ()
    mult = [0] * max(len(ph), len(q), len(p), 2 if a else 0)
    if a:
        mult[1] = 2 * a
    for k in range(1, len(mult)):
        if k < len(ph) and ph[k]:
            mult[k] -= k * k * a * ph[k]
        if k < len(q) and q[k]:
            mult[k] += k * b * q[k]
        if k < len(p) and p[k]:
            mult[k] += k * c * p[k]
    out = OpElement(0, 0, 0, RPoly(mult))
    if e1.cD2 != 0 or e2.cD2 != 0:
        if not extended:
            raise DomainError("second-order generator outside the extended algebra")
        if phi != RPoly.x():
            raise DomainError("extended bracket table requires phi = x")
        if nu is None:
            raise DomainError("extended bracket table needs nu")
        if e1.mult.degree > 1 or e2.mult.degree > 1:
            raise DomainError("extended table only covers degree-1 multipliers")
        nu = rat(nu)
        s = e1.cD * e2.cD2 - e2.cD * e1.cD2
        t = e1.cDd * e2.cD2 - e2.cDd * e1.cD2
        u = e1.cD2 * e2.mult.coeff(1) - e2.cD2 * e1.mult.coeff(1)
        out.cD += -s - u
        out.cDd += t + u
        out.cD2 += s - t
        out.mult = out.mult + RPoly(((t - s) * (1 + nu),))
    return out


class LieAlg:
    """Finite-dimensional Lie algebra realized on coordinate vectors: an
    echelonized basis plus exact structure constants."""

    def __init__(self, basis_vectors, labels, phi: RPoly, structure: dict,
                 nu=None, extended: bool = False, bound: int = 1):
        """`structure[(i, j)]` holds the coordinates of the bracket of basis
        elements i and j, for every ordered pair."""
        self.basis = [tuple(v) for v in basis_vectors]
        self.labels = list(labels)
        self.phi = phi
        self.nu = nu
        self.extended = extended
        self.bound = bound
        self.dim = len(self.basis)
        self._pivots = [_pivot(v) for v in self.basis]
        self.structure = structure

    def coordinates(self, v) -> tuple:
        """Coefficients of v in the echelon basis; raises if v is outside
        the span (non-closure)."""
        coeffs = _coordinates(self.basis, self._pivots, v)
        if coeffs is None:
            raise DomainError("vector outside the algebra span (closure failure)")
        return coeffs

    def bracket_coords(self, a, b) -> tuple:
        """Bracket of two coordinate tuples (in basis coordinates)."""
        out = [Fraction(0)] * self.dim
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if bj == 0:
                    continue
                for k, s in enumerate(self.structure[(i, j)]):
                    out[k] += ai * bj * s
        return tuple(out)

    def jacobi_holds(self) -> bool:
        """[a,[b,c]] + [b,[c,a]] + [c,[a,b]] = 0 on every triple of basis
        elements, contracted from the structure constants:
        sum over the cyclic turns of sum_m s[(b,c)][m] s[(a,m)][t]."""
        dim = self.dim
        sparse = {ij: [(m, v) for m, v in enumerate(vec) if v != 0]
                  for ij, vec in self.structure.items()}
        for i in range(dim):
            for j in range(i + 1, dim):
                for k in range(j + 1, dim):
                    total = [0] * dim
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, inner in sparse[(b, c)]:
                            for t, outer in sparse[(a, m)]:
                                total[t] += inner * outer
                    if any(total):
                        return False
        return True

    def antisymmetry_holds(self) -> bool:
        return all(
            all(self.structure[(i, j)][k] == -self.structure[(j, i)][k]
                for k in range(self.dim))
            for i in range(self.dim) for j in range(self.dim))

    def center(self) -> list:
        """Basis (in algebra coordinates) of the center, by exact null
        space of the stacked adjoint maps."""
        dim = self.dim
        rows = []
        for b in range(dim):
            for t in range(dim):
                rows.append([self.structure[(i, b)][t] for i in range(dim)])
        return _null_space(rows, dim)

    def ad_matrix(self, c: int):
        """Matrix of ad(e_c) on basis coordinates."""
        return [[self.structure[(c, a)][d] for a in range(self.dim)]
                for d in range(self.dim)]


def _pivot(v):
    for k, x in enumerate(v):
        if x != 0:
            return k
    raise ValueError("zero vector in basis")


def _coordinates(rows, pivots, v):
    """Coefficients of v on reduced echelon rows, which are its entries at
    their pivots, or None when v is outside their span."""
    coeffs = tuple(v[p] for p in pivots)
    rest = list(v)
    for c, row in zip(coeffs, rows):
        if c != 0:
            rest = [x - c * y if y else x for x, y in zip(rest, row)]
    return None if any(rest) else coeffs


def _rref_insert(rows, pivots, v):
    """Reduce v against echelon rows; if independent, normalize, insert, and
    back-substitute.  Returns True if the rank grew."""
    v = [rat(x) for x in v]
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


def generator_elements(phi: RPoly, extended: bool = False) -> list[OpElement]:
    """1, D, Ddag, x, x phi', x^2 phi'', ..., plus the second-order
    generator in the extended case."""
    gens = [
        OpElement(mult=RPoly.one()),
        OpElement(cD=1),
        OpElement(cDd=1),
        OpElement(mult=RPoly.x()),
    ]
    x_power = RPoly.x()
    deriv = phi
    for j in range(1, phi.degree + 1):
        deriv = deriv.derivative()
        gens.append(OpElement(mult=x_power * deriv))
        x_power = x_power * RPoly.x()
    if extended:
        gens.append(OpElement(cD2=1))
    return gens


def generate_algebra(phi: RPoly, nu=None, extended: bool = False) -> LieAlg:
    """Span of the generators closed under bracket, with closure detected by
    rank stabilization; returns the finished algebra with structure
    constants."""
    if phi.is_zero():
        raise DomainError("phi must be nonzero")
    bound = max(1, phi.degree)
    rows: list = []
    pivots: list = []
    for g in generator_elements(phi, extended):
        _rref_insert(rows, pivots, g.coords(bound))
    while True:
        # Bracket every ordered pair of the basis.  A pass that adds nothing
        # leaves the basis final, and its brackets are the structure.
        elems = [OpElement.from_coords(v) for v in rows]
        structure = {}
        grew = False
        for i, e1 in enumerate(elems):
            for j, e2 in enumerate(elems):
                v = bracket(e1, e2, phi, nu, extended).coords(bound)
                coeffs = None if grew else _coordinates(rows, pivots, v)
                if coeffs is None:
                    grew |= _rref_insert(rows, pivots, v)
                structure[(i, j)] = coeffs
        if not grew:
            break
    labels = [_label(p) for p in pivots]
    return LieAlg(rows, labels, phi, structure, nu, extended, bound)


def _label(pivot: int) -> str:
    if pivot == 0:
        return "D"
    if pivot == 1:
        return "Ddag"
    if pivot == 2:
        return "D2nd"
    k = pivot - 3
    return "1" if k == 0 else ("x" if k == 1 else f"x^{k}")


def nonzero_coefficient_count(phi: RPoly) -> int:
    return sum(1 for c in phi.coeffs if c != 0)


def weight_exponent_class(phi: RPoly) -> int:
    """The printed case split: ell + 2, ell + 1, or ell depending on which
    of phi(0), phi'(0) vanish."""
    ell = nonzero_coefficient_count(phi)
    c0 = phi.coeff(0) != 0
    c1 = phi.coeff(1) != 0
    if not c0 and not c1:
        return ell + 2
    if c0 and c1:
        return ell
    return ell + 1


def dim_formula(phi: RPoly) -> int:
    return weight_exponent_class(phi) + 2


def monomial_support(phi: RPoly) -> set:
    """I_phi: exponents >= 2 with nonzero coefficient."""
    return {k for k, c in enumerate(phi.coeffs) if c != 0 and k >= 2}


def iso_test(phi1: RPoly, phi2: RPoly) -> bool:
    if phi1.degree < 2 or phi2.degree < 2:
        raise DomainError("isomorphism test needs degree >= 2")
    return monomial_support(phi1) == monomial_support(phi2)


def conformal_similar(psi1: MatQ, psi2: MatQ) -> bool:
    """True iff spectrum(psi2) = lambda * spectrum(psi1) as multisets for
    some nonzero lambda; inputs diagonal."""
    s1 = sorted(psi1[i, i] for i in range(psi1.N))
    s2 = sorted(psi2[i, i] for i in range(psi2.N))
    if len(s1) != len(s2):
        return False
    for t in s2:
        for s in s1:
            if s == 0:
                continue
            lam = t / s
            if lam != 0 and sorted(v * lam for v in s1) == s2:
                return True
    return all(v == 0 for v in s1) and all(v == 0 for v in s2)


def structural_psi(alg: LieAlg) -> MatQ:
    """Canonical diagonal matrix of the almost-abelian part, computed from
    the closure itself: the eigenvalues of ad(-D) on the multiplication
    ideal (monomial exponents)."""
    exps = sorted({p - 3 for p in alg._pivots if p >= 4})
    return MatQ.diag(exps)


def structure_report(alg: LieAlg) -> dict:
    """Structural facts for the closure of a phi with deg phi >= 2: central
    element, solvability of the codimension-two part, the abelian ideal,
    canonical semidirect brackets, and the three-dimensional invariant when
    applicable."""
    phi = alg.phi
    if phi.degree < 2:
        raise DomainError("structure theorem needs deg phi >= 2")
    bound = alg.bound
    checks = []
    k = weight_exponent_class(phi)
    checks.append(check("dimension = k+2", "closure-dimension", alg.dim == dim_formula(phi)))
    checks.append(check("antisymmetry", "lie axioms", alg.antisymmetry_holds()))
    checks.append(check("jacobi", "lie axioms", alg.jacobi_holds()))

    z = OpElement(cD=1, cDd=1,
                  mult=2 * RPoly.x() - RPoly.x() * phi.derivative())
    z_central = all(
        bracket(z, OpElement.from_coords(v), phi).is_zero() for v in alg.basis)
    checks.append(check("z central", "central-element", z_central))

    # h is spanned by every generator but 1 and Ddag: D, x, x^j phi^(j)
    _one, d, _ddag, *mults = generator_elements(phi)
    h_rows, _ = _span(g.coords(bound) for g in [d, *mults])
    checks.append(check("dim h = k", "solvable-structure", len(h_rows) == k))

    d1_rows, _ = _span(
        bracket(OpElement.from_coords(v1), OpElement.from_coords(v2), phi).coords(bound)
        for v1 in h_rows for v2 in h_rows)
    second_zero = all(
        bracket(OpElement.from_coords(v1), OpElement.from_coords(v2), phi).is_zero()
        for v1 in d1_rows for v2 in d1_rows)
    checks.append(check("derived series of h ends", "solvable-structure", second_zero))

    ideal = [v for v in h_rows if v[0] == 0 and v[1] == 0 and v[2] == 0]
    ideal_abelian = all(
        bracket(OpElement.from_coords(v1), OpElement.from_coords(v2), phi).is_zero()
        for v1 in ideal for v2 in ideal)
    checks.append(check("multiplication ideal abelian, dim k-1",
                        "solvable-structure", ideal_abelian and len(ideal) == k - 1))

    e_gen = OpElement(cD=-1)
    ok_e1 = bracket(e_gen, OpElement(mult=RPoly.x()), phi) == OpElement(mult=RPoly.x())
    support = sorted(monomial_support(phi))
    ok_et = all(
        bracket(e_gen, OpElement(mult=RPoly.monomial(j)), phi)
        == OpElement(mult=RPoly.monomial(j) * j)
        for j in support)
    checks.append(check("canonical semidirect brackets", "semidirect-brackets", ok_e1 and ok_et))

    out = {
        "dimension": alg.dim,
        "k": k,
        "I_phi": support,
        "basis": alg.labels,
        "checks": checks,
    }
    ideal_exponents = sorted({_pivot(v) - 3 for v in ideal})
    out["ideal_ad_spectrum"] = ideal_exponents
    if len(ideal_exponents) == 2:
        lam0, lam1 = (Fraction(v) for v in ideal_exponents)
        out["l36_alpha"] = str(lam0 * lam1 / (lam0 + lam1) ** 2)
    return out


# ---------------------------------------------------------------------------
# The five-dimensional extended algebra (phi = x)
# ---------------------------------------------------------------------------


def extended_algebra_report(alg: LieAlg) -> dict:
    """For the span of {D, Ddag, D2nd, x, 1} (the extended closure of
    phi = x), checks the full bracket table, the two-dimensional center,
    the Chevalley triple inside the derived algebra, Casimir ad-invariance,
    and the solvable subalgebra.

    The printed hatted-basis relations and the quadratic Casimir carry sign
    slips; the oracle-true forms are asserted and the printed ones reported.
    """
    if not alg.extended:
        raise DomainError("extended report needs the extended closure")
    phi, nu = alg.phi, rat(alg.nu)
    checks = [check("extended dimension 5", "extended-bracket-table", alg.dim == 5),
              check("jacobi", "lie axioms", alg.jacobi_holds())]

    def el(cD=0, cDd=0, cD2=0, mult=()):
        return OpElement(cD, cDd, cD2, RPoly(mult))

    x1 = el(cD=1, mult=(0, 1))
    x2 = el(cDd=1, mult=(0, 1))
    x3 = el(cD2=1)
    x4 = el(mult=(0, 1))
    x5 = el(mult=(1,))
    xs = [x1, x2, x3, x4, x5]

    def br(u, v):
        return bracket(u, v, phi, nu, True)

    def lin(*pairs):
        out = OpElement()
        for c, v in pairs:
            out = out + v.scale(c)
        return out

    table_ok = (
        br(x1, x2) == x4.scale(-1)
        and br(x1, x4) == x4.scale(-1)
        and br(x2, x4) == x4
        and br(x3, x4) == lin((-1, x1), (1, x2))
        and br(x1, x3) == lin((-1, x2), (1, x3), (1, x4), (-(1 + nu), x5))
        and br(x2, x3) == lin((1, x1), (-1, x3), (-1, x4), ((1 + nu), x5))
        and br(x1, x5).is_zero() and br(x2, x5).is_zero()
        and br(x3, x5).is_zero() and br(x4, x5).is_zero()
    )
    checks.append(check("bracket table of the five generators", "extended-bracket-table", table_ok))

    coords = {i: alg.coordinates(v.coords(alg.bound)) for i, v in enumerate(xs)}
    center, center_pivots = _span(alg.center())
    z1 = alg.coordinates(lin((1, x1), (1, x2), (-1, x4)).coords(alg.bound))
    z2 = coords[4]
    in_center = all(_coordinates(center, center_pivots, z) is not None for z in (z1, z2))
    checks.append(check("center = span{x1+x2-x4, x5}, dim 2",
                        "extended-structure", len(center) == 2 and in_center))

    a1 = x4
    a2 = lin((1, x1), (-1, x2))
    a3 = lin((1, x1), (-1, x3), (-1, x4), ((1 + nu), x5))
    e, f = a1, a3
    h = lin((1, a1), (-1, a2))
    triple_ok = (br(h, e) == e.scale(2) and br(h, f) == f.scale(-2)
                 and br(e, f) == h)
    checks.append(check("sl2 Chevalley triple (a1, a1-a2, a3)",
                        "sl2-triple", triple_ok))
    hat2 = lin((1, a1), (-1, a2))
    hat3 = a3.scale(-1)
    printed = (br(a1, hat2) == a1.scale(2) and br(a1, hat3) == hat2.scale(-1)
               and br(hat2, hat3) == hat3.scale(2))
    oracle_hatted = (br(hat2, a1) == a1.scale(2) and br(a1, hat3) == hat2.scale(-1)
                     and br(hat3, hat2) == hat3.scale(2))
    checks.append(check("hatted-basis relations, oracle orientation",
                        "sl2-triple", oracle_hatted,
                        displayed_form_pass=printed))

    derived, derived_pivots = _span(alg.bracket_coords(coords_i, coords_j)
                                    for coords_i in coords.values()
                                    for coords_j in coords.values())
    da = [_as_alg_coords(alg, v) for v in (a1, a2, a3)]
    checks.append(check("derived algebra is span{a1,a2,a3}", "extended-structure",
                        len(derived) == 3 and all(
                            _coordinates(derived, derived_pivots, v) is not None
                            for v in da)))

    ce, ch, cf = (_as_alg_coords(alg, v) for v in (e, h, f))
    q_corr = _sym_outer(ch, ch, alg.dim)
    q_corr = _mat_add(q_corr, _scale_mat(_sym_outer(ce, cf, alg.dim), 4))
    ell_zero = [Fraction(0)] * alg.dim
    corr_ok = _ad_invariant(alg, q_corr, ell_zero)
    q_disp = _sym_outer(ch, ch, alg.dim)
    q_disp = _mat_add(q_disp, _scale_mat(_sym_outer(ce, cf, alg.dim), -4))
    ell_disp = [Fraction(-2) * v for v in ch]
    disp_ok = _ad_invariant(alg, q_disp, ell_disp)
    checks.append(check("quadratic Casimir ad-invariance", "quadratic-casimir",
                        corr_ok, displayed_form_pass=disp_ok))
    checks.append(check("linear Casimirs central", "linear-casimirs", in_center))

    e1, e2 = x2, x4
    e3 = lin((1, x1), (1, x2), (-1, x4))
    e4 = x5
    sub = [e1, e2, e3, e4]
    sub_ok = br(e1, e2) == e2
    for ii in range(4):
        for jj in range(4):
            if (ii, jj) in ((0, 1), (1, 0)):
                continue
            if not br(sub[ii], sub[jj]).is_zero():
                sub_ok = False
    checks.append(check("subalgebra <x1,x2,x4,x5> = g2 + C^2",
                        "solvable-subalgebra", sub_ok))

    return {
        "dimension": alg.dim,
        "basis": alg.labels,
        "checks": checks,
    }


def _as_alg_coords(alg: LieAlg, e: OpElement):
    return list(alg.coordinates(e.coords(alg.bound)))


def _sym_outer(u, v, dim):
    """Symmetrized product u o v as a matrix."""
    return [[(u[i] * v[j] + u[j] * v[i]) / 2 for j in range(dim)]
            for i in range(dim)]


def _scale_mat(m, c):
    return [[v * c for v in row] for row in m]


def _mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _ad_invariant(alg: LieAlg, q, ell) -> bool:
    dim = alg.dim
    for c in range(dim):
        m = alg.ad_matrix(c)
        for i in range(dim):
            if sum(m[i][a] * ell[a] for a in range(dim)) != 0:
                return False
        for i in range(dim):
            for j in range(dim):
                v = sum(m[i][a] * q[a][j] for a in range(dim)) \
                    + sum(q[i][a] * m[j][a] for a in range(dim))
                if v != 0:
                    return False
    return True


def _span(vectors):
    """Reduced echelon rows of the span of `vectors` and their pivots."""
    rows: list = []
    pivots: list = []
    for v in vectors:
        _rref_insert(rows, pivots, v)
    return rows, pivots


def _null_space(rows, unknowns):
    """Exact null space of the row system; returns basis vectors, one per
    free column of the reduced rows."""
    reduced, pivots = _span(rows)
    basis = []
    for fc in range(unknowns):
        if fc in pivots:
            continue
        v = [Fraction(0)] * unknowns
        v[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis
