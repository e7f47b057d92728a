"""Lie algebras generated by the ladder pair over a polynomial weight
exponent, their closure, dimension and isomorphism classification, and the
five-dimensional extension by the second-order operator.

An algebra element is a coordinate tuple

    (cD, cDd, cD2, m_0, m_1, ..., m_B)

of rationals: the coefficients of the raising operator, its adjoint and the
second-order operator (extended case only), then the coefficients of a
right-multiplication polynomial m_0 + m_1 x + ... + m_B x^B, whose constant
term is the identity.  B = max(1, deg phi) holds every bracket, so all the
tuples of one algebra have one length; sums, multiples and equality are
those of tuples.  The bracket is the bilinear extension of the generator
table

    [D, p(x)] = -x p'(x),  [Ddag, p(x)] = x p'(x),
    [D, Ddag]  = -x^2 phi'' + (2 - phi') x,

plus, in the extended case (phi = x only),

    [D2nd, x] = -D + Ddag,
    [D, D2nd] = -D + D2nd - (1+nu),   [Ddag, D2nd] = Ddag - D2nd + (1+nu).

On coordinates the first table reads: for u = (a1, b1, 0, p), v = (a2, b2,
0, q), the bracket is the multiplication polynomial whose x^k coefficient is

    (a1 b2 - a2 b1) w_k + k ((b1 - a1) q_k + (a2 - b2) p_k),
    w_k = 2 [k = 1] - k^2 phi_k,

since x phi' + x^2 phi'' has x^k coefficient k^2 phi_k and x p' has k p_k.

The closure's last pass brackets every ordered pair of the final basis; those
brackets are the structure constants, and the Lie axioms are checked on them
directly.
"""

from __future__ import annotations

import math
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


def _el(bound: int, cD=0, cDd=0, cD2=0, mult=()) -> tuple:
    """The element with the given operator coefficients and multiplication
    coefficients mult (x^0 first), as a tuple of length bound + 4."""
    if len(mult) > bound + 1:
        raise ValueError("multiplication degree exceeds the coordinate bound")
    return (cD, cDd, cD2, *mult) + (0,) * (bound + 1 - len(mult))


def _lin(*pairs) -> tuple:
    """sum of c * v over the (c, v) pairs, for elements v of one length."""
    return tuple(sum(c * x for (c, _), x in zip(pairs, column))
                 for column in zip(*(v for _, v in pairs)))


def bracket(u, v, phi: RPoly, nu=None, extended: bool = False) -> tuple:
    """Lie bracket of two elements of one length over exponent phi, in the
    coefficient form of the module docstring.  The extended table
    (second-order generator) is only defined for phi = x and needs nu."""
    n = len(u)
    if len(v) != n:
        raise ValueError("elements of different lengths")
    a = u[0] * v[1] - v[0] * u[1]
    b = u[1] - u[0]
    c = v[0] - v[1]
    out = [0] * n
    if a:
        if max(1, phi.degree) > n - 4:
            raise ValueError("multiplication degree exceeds the coordinate bound")
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
        if not extended:
            raise DomainError("second-order generator outside the extended algebra")
        if phi != RPoly.x():
            raise DomainError("extended bracket table requires phi = x")
        if nu is None:
            raise DomainError("extended bracket table needs nu")
        if any(u[5:]) or any(v[5:]):
            raise DomainError("extended table only covers degree-1 multipliers")
        s = u[0] * v[2] - v[0] * u[2]
        t = u[1] * v[2] - v[1] * u[2]
        w = u[2] * v[4] - v[2] * u[4]
        out[0] += -s - w
        out[1] += t + w
        out[2] += s - t
        out[3] += (t - s) * (1 + rat(nu))
    return tuple(out)


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


def generator_elements(phi: RPoly, extended: bool = False) -> list[tuple]:
    """1, D, Ddag, x, x phi', x^2 phi'', ..., plus the second-order
    generator in the extended case.  The x^k coefficient of x^j phi^(j) is
    (k-j+1)_j phi_k = k!/(k-j)! phi_k, zero for k < j."""
    bound = max(1, phi.degree)
    gens = [_el(bound, mult=(1,)), _el(bound, cD=1), _el(bound, cDd=1),
            _el(bound, mult=(0, 1))]
    for j in range(1, phi.degree + 1):
        gens.append(_el(bound, mult=[math.perm(k, j) * phi.coeff(k)
                                     for k in range(bound + 1)]))
    if extended:
        gens.append(_el(bound, cD2=1))
    return gens


def generate_algebra(phi: RPoly, nu=None, extended: bool = False) -> LieAlg:
    """Span of the generators closed under bracket, with closure detected by
    rank stabilization; returns the finished algebra with structure
    constants."""
    if phi.is_zero():
        raise DomainError("phi must be nonzero")
    rows, pivots = _span(generator_elements(phi, extended))
    while True:
        # Bracket every ordered pair of the basis.  A pass that adds nothing
        # leaves the basis final, and its brackets are the structure.
        basis = [tuple(v) for v in rows]
        structure = {}
        grew = False
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                w = bracket(u, v, phi, nu, extended)
                coeffs = None if grew else _coordinates(rows, pivots, w)
                if coeffs is None:
                    grew |= _rref_insert(rows, pivots, w)
                structure[(i, j)] = coeffs
        if not grew:
            break
    labels = [_label(p) for p in pivots]
    return LieAlg(rows, labels, phi, structure, nu, extended, max(1, phi.degree))


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

    # z = D + Ddag + x (2 - phi')
    z = _el(bound, cD=1, cDd=1,
            mult=[2 * (t == 1) - t * phi.coeff(t) for t in range(bound + 1)])
    z_central = all(not any(bracket(z, v, phi)) for v in alg.basis)
    checks.append(check("z central", "central-element", z_central))

    # h is spanned by every generator but 1 and Ddag: D, x, x^j phi^(j)
    _one, d, _ddag, *mults = generator_elements(phi)
    h_rows, _ = _span([d, *mults])
    checks.append(check("dim h = k", "solvable-structure", len(h_rows) == k))

    d1_rows, _ = _span(bracket(v1, v2, phi) for v1 in h_rows for v2 in h_rows)
    second_zero = all(not any(bracket(v1, v2, phi))
                      for v1 in d1_rows for v2 in d1_rows)
    checks.append(check("derived series of h ends", "solvable-structure", second_zero))

    ideal = [v for v in h_rows if v[0] == 0 and v[1] == 0 and v[2] == 0]
    ideal_abelian = all(not any(bracket(v1, v2, phi)) for v1 in ideal for v2 in ideal)
    checks.append(check("multiplication ideal abelian, dim k-1",
                        "solvable-structure", ideal_abelian and len(ideal) == k - 1))

    e_gen = _el(bound, cD=-1)
    ok_e1 = bracket(e_gen, _el(bound, mult=(0, 1)), phi) == _el(bound, mult=(0, 1))
    support = sorted(monomial_support(phi))
    ok_et = all(
        bracket(e_gen, _el(bound, mult=(0,) * j + (1,)), phi)
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

    def el(**kw):
        return _el(alg.bound, **kw)

    x1 = el(cD=1, mult=(0, 1))
    x2 = el(cDd=1, mult=(0, 1))
    x3 = el(cD2=1)
    x4 = el(mult=(0, 1))
    x5 = el(mult=(1,))
    xs = [x1, x2, x3, x4, x5]

    def br(u, v):
        return bracket(u, v, phi, nu, True)

    table_ok = (
        br(x1, x2) == _lin((-1, x4))
        and br(x1, x4) == _lin((-1, x4))
        and br(x2, x4) == x4
        and br(x3, x4) == _lin((-1, x1), (1, x2))
        and br(x1, x3) == _lin((-1, x2), (1, x3), (1, x4), (-(1 + nu), x5))
        and br(x2, x3) == _lin((1, x1), (-1, x3), (-1, x4), ((1 + nu), x5))
        and not any(br(x1, x5)) and not any(br(x2, x5))
        and not any(br(x3, x5)) and not any(br(x4, x5))
    )
    checks.append(check("bracket table of the five generators", "extended-bracket-table", table_ok))

    coords = {i: alg.coordinates(v) for i, v in enumerate(xs)}
    center, center_pivots = _span(alg.center())
    z1 = alg.coordinates(_lin((1, x1), (1, x2), (-1, x4)))
    z2 = coords[4]
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

    derived, derived_pivots = _span(alg.bracket_coords(coords_i, coords_j)
                                    for coords_i in coords.values()
                                    for coords_j in coords.values())
    checks.append(check("derived algebra is span{a1,a2,a3}", "extended-structure",
                        len(derived) == 3 and all(
                            _coordinates(derived, derived_pivots, alg.coordinates(v))
                            is not None for v in (a1, a2, a3))))

    # Casimir forms on algebra coordinates: ch o ch +- 4 ce o cf, with
    # u o v = (u v^T + v u^T) / 2
    ce, ch, cf = (alg.coordinates(v) for v in (e, h, f))
    hh = MatQ([[s * t for t in ch] for s in ch])
    ef = MatQ([[s * t for t in cf] for s in ce])
    ef = ef + ef.transpose()
    corr_ok = _ad_invariant(alg, hh + ef * 2, (0,) * alg.dim)
    disp_ok = _ad_invariant(alg, hh - ef * 2, _lin((-2, ch)))
    checks.append(check("quadratic Casimir ad-invariance", "quadratic-casimir",
                        corr_ok, displayed_form_pass=disp_ok))
    checks.append(check("linear Casimirs central", "linear-casimirs", in_center))

    e1, e2 = x2, x4
    e3 = _lin((1, x1), (1, x2), (-1, x4))
    e4 = x5
    sub = [e1, e2, e3, e4]
    sub_ok = br(e1, e2) == e2
    for ii in range(4):
        for jj in range(4):
            if (ii, jj) in ((0, 1), (1, 0)):
                continue
            if any(br(sub[ii], sub[jj])):
                sub_ok = False
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
