"""Lie algebras generated by the ladder pair over a polynomial weight
exponent, their closure, dimension and isomorphism classification, and the
five-dimensional extension by the second-order operator.

An algebra element is the coordinate vector

    (cD, cDd, cD2, m_0, m_1, ..., m_B)

of rationals: the coefficients of the raising operator, its adjoint and the
second-order operator (extended case only), then the coefficients of a
right-multiplication polynomial m_0 + m_1 x + ... + m_B x^B, whose constant
term is the identity.  B = max(1, deg phi) holds every bracket, so all the
vectors of one algebra have one length.  The bracket is the bilinear
extension of the generator table

    [D, p(x)] = -x p'(x),  [Ddag, p(x)] = x p'(x),
    [D, Ddag]  = -x^2 phi'' + (2 - phi') x,

plus, in the extended case (phi = x only),

    [D2nd, x] = -D + Ddag,
    [D, D2nd] = -D + D2nd - (1+nu),   [Ddag, D2nd] = Ddag - D2nd + (1+nu).

As `MatQ` does for matrices, a vector is held as a pair (num, d) of
integer numerators over one positive denominator in lowest terms, a
canonical form: equal vectors are equal pairs.  So is the exponent,
phi = Phi/L.  For u = (U, du), v = (V, dv) the bracket has denominator
du dv L and the x^k numerator (U_k, V_k the multiplier numerators)

    (U0 V1 - V0 U1)(2L [k = 1] - k^2 Phi_k) + k L ((U1 - U0) V_k + (V0 - V1) U_k),

since x phi' + x^2 phi'' has x^k coefficient k^2 phi_k and x p' has k p_k;
one gcd pass reduces it.  In the extended case nu = Nn/Nd puts one more
factor Nd in the denominator.  Echelon rows are reduced (pivot 1, zero at
every other pivot), so reducing v against them is one fused integer sum
over the lcm of their denominators.  Fractions are built only for output:
`LieAlg.basis`, `LieAlg.structure` (ints over denominator 1),
`LieAlg.coordinates` and `LieAlg.center`.

The closure's last pass brackets every ordered pair of the final basis; those
brackets are the structure constants, and the Lie axioms are checked on them
directly.
"""

from __future__ import annotations

import math
from bisect import bisect
from fractions import Fraction
from functools import cached_property

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


def _vec(values) -> tuple:
    """The pair (num, d) of a sequence of rationals: their numerators over
    the lcm of their denominators, which is already in lowest terms."""
    d = math.lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (d // x.denominator) for x in values), d


def _canonical(num, d: int) -> tuple:
    """The pair (num, d) in lowest terms with d > 0, from integers and d != 0."""
    if d < 0:
        num, d = [-x for x in num], -d
    g = math.gcd(d, *num)
    if g != 1:
        num, d = [x // g for x in num], d // g
    return tuple(num), d


def _values(v) -> tuple:
    """The rationals of a pair: its ints over 1, Fractions otherwise."""
    num, d = v
    return num if d == 1 else tuple(Fraction(x, d) for x in num)


def _el(bound: int, cD=0, cDd=0, cD2=0, mult=()) -> tuple:
    """The element with the given operator coefficients and multiplication
    coefficients mult (x^0 first), as a pair of length bound + 4."""
    if len(mult) > bound + 1:
        raise ValueError("multiplication degree exceeds the coordinate bound")
    return _vec((cD, cDd, cD2, *mult, *(0,) * (bound + 1 - len(mult))))


def _lin(*terms) -> tuple:
    """sum of c * v over the (c, v) terms, for rationals c and elements v of
    one length, as one integer sum over the lcm of the denominators."""
    d = math.lcm(*(c.denominator * vd for c, (_, vd) in terms))
    out = [0] * len(terms[0][1][0])
    for c, (num, vd) in terms:
        s = c.numerator * (d // (c.denominator * vd))
        out = [a + s * x for a, x in zip(out, num)]
    return _canonical(out, d)


_X = ((0, 1), 1)  # phi = x as a pair


def bracket(u, v, phi, nu=None) -> tuple:
    """Lie bracket of two elements (num, d) of one length over the exponent
    phi = (Phi, L), in the numerator form of the module docstring.  A given
    nu selects the extended table (second-order generator), which is only
    defined for phi = x."""
    (U, du), (V, dv), (P, L) = u, v, phi
    n = len(U)
    if len(V) != n:
        raise ValueError("elements of different lengths")
    a = U[0] * V[1] - V[0] * U[1]
    out = [0] * n
    if a:
        if max(1, len(P) - 1) > n - 4:
            raise ValueError("multiplication degree exceeds the coordinate bound")
        out[4] = 2 * L * a
        for k in range(1, len(P)):
            if P[k]:
                out[3 + k] -= k * k * a * P[k]
    for s, e in ((L * (U[1] - U[0]), V), (L * (V[0] - V[1]), U)):
        if s:
            for k in range(1, n - 3):
                if e[3 + k]:
                    out[3 + k] += k * s * e[3 + k]
    d = du * dv * L
    if U[2] or V[2]:
        if nu is None:
            raise DomainError("second-order generator outside the extended algebra (needs nu)")
        if phi != _X:
            raise DomainError("extended bracket table requires phi = x")
        if any(U[5:]) or any(V[5:]):
            raise DomainError("extended table only covers degree-1 multipliers")
        nn, nd = rat(nu).as_integer_ratio()
        s = U[0] * V[2] - V[0] * U[2]
        t = U[1] * V[2] - V[1] * U[2]
        w = U[2] * V[4] - V[2] * U[4]
        out = [x * nd for x in out]
        out[0] -= nd * (s + w)
        out[1] += nd * (t + w)
        out[2] += nd * (s - t)
        out[3] += (t - s) * (nd + nn)
        d *= nd
    return _canonical(out, d)


class LieAlg:
    """Finite-dimensional Lie algebra realized on coordinate vectors: an
    echelonized basis plus exact structure constants.  It is the extended
    algebra exactly when it has a nu."""

    def __init__(self, vectors, pivots, phi: RPoly, structure: dict, nu=None):
        """`vectors` are the reduced echelon rows (num, d) at `pivots`;
        `structure[(i, j)]` holds the coordinates (num, d) of the bracket of
        basis elements i and j, for every ordered pair."""
        self.vectors = list(vectors)
        self._pivots = list(pivots)
        self.labels = [_label(p) for p in self._pivots]
        self.phi = phi
        self.nu = nu
        self.bound = max(1, phi.degree)
        self.dim = len(self.vectors)
        self.structure = {ij: _values(c) for ij, c in structure.items()}

    @property
    def extended(self) -> bool:
        return self.nu is not None

    @property
    def basis(self) -> list:
        """The echelon basis as rational vectors."""
        return [_values(v) for v in self.vectors]

    def coordinates(self, v) -> tuple:
        """Coefficients of the rational vector v in the echelon basis;
        raises if v is outside the span (non-closure)."""
        return _values(self._coords(_vec(v)))

    def _coords(self, v) -> tuple:
        """`coordinates` of an element (num, d), as a pair."""
        coeffs = _coordinates(self.vectors, self._pivots, v)
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
        s = self.structure
        return all(s[(i, j)] == tuple(-x for x in s[(j, i)]) for i, j in s)

    # The reports and the CLI read the verdicts and the center off these
    # caches, so each algebra computes them once.
    @cached_property
    def axioms(self) -> dict:
        """The verdicts of `antisymmetry_holds` and `jacobi_holds`."""
        return {"antisymmetry": self.antisymmetry_holds(), "jacobi": self.jacobi_holds()}

    @cached_property
    def _center(self) -> list:
        """`center` as pairs (num, d)."""
        dim = self.dim
        rows = [_vec([self.structure[(i, b)][t] for i in range(dim)])
                for b in range(dim) for t in range(dim)]
        return _null_space(rows, dim)

    def center(self) -> list:
        """Basis (in algebra coordinates) of the center, by exact null
        space of the stacked adjoint maps."""
        return [_values(v) for v in self._center]

    def ad_matrix(self, c: int):
        """Matrix of ad(e_c) on basis coordinates."""
        return [[self.structure[(c, a)][d] for a in range(self.dim)]
                for d in range(self.dim)]


def _zero(v) -> bool:
    return not any(v[0])


def _reduce(rows, pivots, v) -> tuple:
    """v against reduced echelon rows: its coefficients, which are its
    entries at their pivots, and the numerators of v - sum_r v[p_r] row_r,
    one fused integer sum over the lcm of the rows' denominators.  That
    remainder is zero iff v is in the span of the rows."""
    num, d = v
    terms = [(num[p], row) for p, row in zip(pivots, rows) if num[p]]
    m = math.lcm(*(rd for _, (_, rd) in terms))
    rest = num if m == 1 else [x * m for x in num]
    for c, (row, rd) in terms:
        s = c * (m // rd)
        rest = [x - s * y if y else x for x, y in zip(rest, row)]
    return _canonical([num[p] for p in pivots], d), rest


def _coordinates(rows, pivots, v):
    """Coefficients (num, d) of v on reduced echelon rows, or None when v is
    outside their span."""
    coeffs, rest = _reduce(rows, pivots, v)
    return None if any(rest) else coeffs


def _insert(rows, pivots, rest) -> None:
    """Insert a nonzero remainder of `_reduce` as a reduced echelon row: its
    pivot entry scaled to 1, its pivot column cleared from the other rows."""
    piv = next(k for k, x in enumerate(rest) if x)
    new = _canonical(rest, rest[piv])
    vn, vd = new
    for idx, (row, rd) in enumerate(rows):
        c = row[piv]
        if c:
            rows[idx] = _canonical([x * vd - c * y for x, y in zip(row, vn)], rd * vd)
    pos = bisect(pivots, piv)
    rows.insert(pos, new)
    pivots.insert(pos, piv)


def generator_elements(phi: RPoly, extended: bool = False) -> list[tuple]:
    """1, D, Ddag, x, x phi', x^2 phi'', ..., plus the second-order
    generator in the extended case.  The x^k coefficient of x^j phi^(j) is
    (k-j+1)_j phi_k = k!/(k-j)! phi_k, zero for k < j."""
    bound = max(1, phi.degree)
    gens = [_el(bound, mult=(1,)), _el(bound, cD=1), _el(bound, cDd=1),
            _el(bound, mult=(0, 1))]
    num, d = _vec(phi.coeffs)
    for j in range(1, len(num)):
        gens.append(_canonical((0, 0, 0, *(math.perm(k, j) * c for k, c in enumerate(num))), d))
    if extended:
        gens.append(_el(bound, cD2=1))
    return gens


def generate_algebra(phi: RPoly, nu=None) -> LieAlg:
    """Span of the generators closed under bracket, with closure detected by
    rank stabilization; returns the finished algebra with structure
    constants.  A given nu means the extended algebra (phi = x only)."""
    if phi.is_zero():
        raise DomainError("phi must be nonzero")
    phi_vec = _vec(phi.coeffs)
    rows, pivots = _span(generator_elements(phi, nu is not None))
    while True:
        # Bracket every ordered pair of the basis.  A pass that adds nothing
        # leaves the basis final, and its brackets are the structure.
        basis = list(rows)
        structure = {}
        grew = False
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                coeffs, rest = _reduce(rows, pivots, bracket(u, v, phi_vec, nu))
                if any(rest):
                    _insert(rows, pivots, rest)
                    grew = True
                structure[(i, j)] = coeffs
        if not grew:
            break
    return LieAlg(rows, pivots, phi, structure, nu)


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
    some nonzero lambda; inputs diagonal.  On the numerators, lambda = t/s
    for entries s of psi1 and t of psi2 reads {v t : v in psi1} =
    {w s : w in psi2}."""
    s1 = [psi1.num[i][i] for i in range(psi1.N)]
    s2 = [psi2.num[i][i] for i in range(psi2.N)]
    if len(s1) != len(s2):
        return False
    for t in s2:
        for s in s1:
            if s and t and sorted(v * t for v in s1) == sorted(w * s for w in s2):
                return True
    return not any(s1) and not any(s2)


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
    checks.append(check("antisymmetry", "lie axioms", alg.axioms["antisymmetry"]))
    checks.append(check("jacobi", "lie axioms", alg.axioms["jacobi"]))

    # z = D + Ddag + x (2 - phi'), over the denominator L of phi
    phi_vec = (P, L) = _vec(phi.coeffs)
    z = _canonical((L, L, 0, *(2 * L * (t == 1) - t * c for t, c in enumerate(P))), L)
    z_central = all(_zero(bracket(z, v, phi_vec)) for v in alg.vectors)
    checks.append(check("z central", "central-element", z_central))

    # h is spanned by every generator but 1 and Ddag: D, x, x^j phi^(j)
    _one, d, _ddag, *mults = generator_elements(phi)
    h_rows, h_pivots = _span([d, *mults])
    checks.append(check("dim h = k", "solvable-structure", len(h_rows) == k))

    d1_rows, _ = _span(bracket(v1, v2, phi_vec) for v1 in h_rows for v2 in h_rows)
    second_zero = all(_zero(bracket(v1, v2, phi_vec)) for v1 in d1_rows for v2 in d1_rows)
    checks.append(check("derived series of h ends", "solvable-structure", second_zero))

    # a reduced row is zero before its pivot, so the multiplication rows
    # are those with pivot >= 3
    ideal = [v for v, p in zip(h_rows, h_pivots) if p >= 3]
    ideal_abelian = all(_zero(bracket(v1, v2, phi_vec)) for v1 in ideal for v2 in ideal)
    checks.append(check("multiplication ideal abelian, dim k-1",
                        "solvable-structure", ideal_abelian and len(ideal) == k - 1))

    e_gen = _el(bound, cD=-1)
    ok_e1 = bracket(e_gen, _el(bound, mult=(0, 1)), phi_vec) == _el(bound, mult=(0, 1))
    support = sorted(monomial_support(phi))
    ok_et = all(
        bracket(e_gen, _el(bound, mult=(0,) * j + (1,)), phi_vec)
        == _el(bound, mult=(0,) * j + (j,))
        for j in support)
    checks.append(check("canonical semidirect brackets", "semidirect-brackets", ok_e1 and ok_et))

    out = {
        "dimension": alg.dim,
        "k": k,
        "I_phi": support,
        "basis": alg.labels,
        "checks": checks,
    }
    ideal_exponents = [p - 3 for p in h_pivots if p >= 3]
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
    nu = rat(alg.nu)
    checks = [check("extended dimension 5", "extended-bracket-table", alg.dim == 5),
              check("jacobi", "lie axioms", alg.axioms["jacobi"])]

    def el(**kw):
        return _el(alg.bound, **kw)

    x1 = el(cD=1, mult=(0, 1))
    x2 = el(cDd=1, mult=(0, 1))
    x3 = el(cD2=1)
    x4 = el(mult=(0, 1))
    x5 = el(mult=(1,))
    xs = [x1, x2, x3, x4, x5]

    def br(u, v):
        return bracket(u, v, _X, nu)

    table_ok = (
        br(x1, x2) == _lin((-1, x4))
        and br(x1, x4) == _lin((-1, x4))
        and br(x2, x4) == x4
        and br(x3, x4) == _lin((-1, x1), (1, x2))
        and br(x1, x3) == _lin((-1, x2), (1, x3), (1, x4), (-(1 + nu), x5))
        and br(x2, x3) == _lin((1, x1), (-1, x3), (-1, x4), ((1 + nu), x5))
        and all(_zero(br(x, x5)) for x in (x1, x2, x3, x4))
    )
    checks.append(check("bracket table of the five generators", "extended-bracket-table", table_ok))

    center, center_pivots = _span(alg._center)
    z1 = alg._coords(_lin((1, x1), (1, x2), (-1, x4)))
    z2 = alg._coords(x5)
    in_center = all(_coordinates(center, center_pivots, z) is not None for z in (z1, z2))
    checks.append(check("center = span{x1+x2-x4, x5}, dim 2",
                        "extended-structure", len(center) == 2 and in_center))

    a1 = x4
    a2 = _lin((1, x1), (-1, x2))
    a3 = _lin((1, x1), (-1, x3), (-1, x4), ((1 + nu), x5))
    e, f = a1, a3
    h = _lin((1, a1), (-1, a2))
    triple_ok = (br(h, e) == _lin((2, e)) and br(h, f) == _lin((-2, f))
                 and br(e, f) == h)
    checks.append(check("sl2 Chevalley triple (a1, a1-a2, a3)",
                        "sl2-triple", triple_ok))
    hat2 = _lin((1, a1), (-1, a2))
    hat3 = _lin((-1, a3))
    printed = (br(a1, hat2) == _lin((2, a1)) and br(a1, hat3) == _lin((-1, hat2))
               and br(hat2, hat3) == _lin((2, hat3)))
    oracle_hatted = (br(hat2, a1) == _lin((2, a1)) and br(a1, hat3) == _lin((-1, hat2))
                     and br(hat3, hat2) == _lin((2, hat3)))
    checks.append(check("hatted-basis relations, oracle orientation",
                        "sl2-triple", oracle_hatted,
                        displayed_form_pass=printed))

    derived, derived_pivots = _span(br(u, v) for u in xs for v in xs)
    checks.append(check("derived algebra is span{a1,a2,a3}", "extended-structure",
                        len(derived) == 3 and all(
                            _coordinates(derived, derived_pivots, v) is not None
                            for v in (a1, a2, a3))))

    # Casimir forms on algebra coordinates: ch o ch +- 4 ce o cf, with
    # u o v = (u v^T + v u^T) / 2
    ce, ch, cf = (_values(alg._coords(v)) for v in (e, h, f))
    hh = MatQ([[s * t for t in ch] for s in ch])
    ef = MatQ([[s * t for t in cf] for s in ce])
    ef = ef + ef.transpose()
    corr_ok = _ad_invariant(alg, hh + ef * 2, (0,) * alg.dim)
    disp_ok = _ad_invariant(alg, hh - ef * 2, tuple(-2 * t for t in ch))
    checks.append(check("quadratic Casimir ad-invariance", "quadratic-casimir",
                        corr_ok, displayed_form_pass=disp_ok))
    checks.append(check("linear Casimirs central", "linear-casimirs", in_center))

    # e1 = x2, e2 = x4, e3 = x1 + x2 - x4, e4 = x5: [e1, e2] = e2, all else 0
    sub = [x2, x4, _lin((1, x1), (1, x2), (-1, x4)), x5]
    sub_ok = br(x2, x4) == x4 and all(_zero(br(u, v)) for i, u in enumerate(sub)
                                      for j, v in enumerate(sub) if {i, j} != {0, 1})
    checks.append(check("subalgebra <x1,x2,x4,x5> = g2 + C^2",
                        "solvable-subalgebra", sub_ok))

    return {
        "dimension": alg.dim,
        "basis": alg.labels,
        "checks": checks,
    }


def _ad_invariant(alg: LieAlg, q: MatQ, ell) -> bool:
    """Casimir q + ell on basis coordinates is ad-invariant: for every basis
    element e_c, [e_c, ell] = 0 and M q + q M^T = 0 with M = ad(e_c)."""
    for c in range(alg.dim):
        m = MatQ(alg.ad_matrix(c))
        e_c = tuple(int(t == c) for t in range(alg.dim))
        if any(alg.bracket_coords(e_c, ell)) or not (m * q + q * m.transpose()).is_zero():
            return False
    return True


def _span(vectors):
    """Reduced echelon rows of the span of `vectors` and their pivots."""
    rows: list = []
    pivots: list = []
    for v in vectors:
        _, rest = _reduce(rows, pivots, v)
        if any(rest):
            _insert(rows, pivots, rest)
    return rows, pivots


def _null_space(rows, unknowns):
    """Exact null space of the system of rows (num, d); returns basis
    vectors (num, d), one per free column of the reduced rows."""
    reduced, pivots = _span(rows)
    m = math.lcm(*(d for _, d in reduced))
    basis = []
    for fc in range(unknowns):
        if fc in pivots:
            continue
        v = [0] * unknowns
        v[fc] = m
        for (row, d), pc in zip(reduced, pivots):
            v[pc] = -row[fc] * (m // d)
        basis.append(_canonical(v, m))
    return basis
