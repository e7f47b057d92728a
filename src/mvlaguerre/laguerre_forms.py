"""Closed forms tying the matrix family to scalar Laguerre polynomials.

With K_n the unipotent eigenvector matrix of Gamma_n = A(n+nu+1+J) - (n+J)
and R(x,n) = K_n^{-1} P(x,n) e^{xA}, every entry of R is an exact rational
multiple of a scalar Laguerre polynomial:

    R(x,n)[i,j] = xi(n,i,j) L_{n+i-j}^{(nu+j)}(x),   zero when n+i-j < 0.

This module extracts the xi table from the oracle, rebuilds it from the
two-term recursions driven by the diagonal of G(n) and the superdiagonal of
I(n), and checks the nonlinear recursion for the squared norms.  The
rebuild is one pass over the keys in sorted order (`_pattern`); its
interior step (`_interior`) and antidiagonal step (`_antidiagonal`) are
written once, and the report on the printed variants reads the same two.
Where a commonly quoted recursion disagrees with the oracle (a handful of
signs and one Pochhammer subscript), the corrected form is used and the
quoted variant's status is reported alongside (engine.quoted_check).

D_Q, Lambda_n and J are diagonal, so the eigen-equation of R and the
derivative relation of Q are checked entry by entry, coefficient by
coefficient, on the integer numerators of the MatQ coefficients.  The K_n
checks are products (K_n Lambda_n = Gamma_n K_n, K_n K_n^{-1} = I) and take
no inverse.  The norm recursion pass inverts each H_m once, afresh, forms
H_m J H_m^{-1}, T_m and [J, H_m J H_m^{-1}] (entry by entry) once per m, and
hands them to every step, the one step h_recursion_next also takes.  Each X
recursion identity is one fused sum (MatQ.dot) that must vanish.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .engine import OPSeq, check, quoted_check
from .matrices import J_commutator, MatPoly, MatQ
from .operators import (DiffOp, casimir_mult, ladder_raising, right_mult,
                        second_order, second_order_diagonalized)
from .scalar import laguerre_numerators, pochhammer, rat_str
from .weights import WeightSpec


class ClosedFormViolation(AssertionError):
    """An entry of R failed the Laguerre proportionality the theory forces."""


def _K_coefficients(spec: WeightSpec) -> dict:
    """(i, j) -> prod_{k=j..i-1} a_k / (i-j)!, 1-based, i >= j: the factors
    of the closed-form entries of K_n that do not depend on n."""
    N = spec.N
    return {(ii, jj): prod(spec.a[jj - 1:ii - 1], start=Fraction(1)) / factorial(ii - jj)
            for ii in range(1, N + 1) for jj in range(1, ii + 1)}


def _K_closed_form(spec: WeightSpec, n: int, coef: dict) -> dict:
    """The closed-form entries coef[i, j] (n+nu+j+1)_{i-j} of K_n, 1-based,
    i >= j, with `coef` from `_K_coefficients`, as (i, j) -> (numerator,
    denominator).  Each rising factorial is one running integer product
    down its column: with nu = p/q, (n+nu+j+1)_m = R_m / q^m and
    R_{m+1} = R_m (p + q(n+j+1+m))."""
    p, q = spec.nu.numerator, spec.nu.denominator
    entries = {}
    for jj in range(1, spec.N + 1):
        rising, q_power = 1, 1
        for ii in range(jj, spec.N + 1):  # m = ii - jj
            c = coef[ii, jj]
            entries[ii, jj] = (c.numerator * rising, c.denominator * q_power)
            rising *= p + q * (n + ii + 1)
            q_power *= q
    return entries


def verify_K_properties(seq: OPSeq) -> list[dict]:
    """K_n Lambda_n = Gamma_n K_n exactly, unit diagonal, the closed-form
    entries (prod a_k) (n+nu+j+1)_{i-j} / (i-j)! (`_K_closed_form`), and
    K_n K_inv[n] = I for the closed-form K_n^{-1}.  K_n is unipotent, hence
    invertible, so the two products hold exactly when
    K_n Lambda_n K_n^{-1} = Gamma_n and K_inv[n] is the inverse of K_n; no
    inverse is taken.  Lambda_n is diagonal, so K_n Lambda_n scales column
    c (0-based) by -(n+c+1)."""
    spec = seq.spec
    checks = []
    N = spec.N
    coef = _K_coefficients(spec)  # once per family
    for n in range(seq.n_max + 1):
        k = seq.K[n]
        k_lam = MatQ._canonical([[-(n + c + 1) * v for c, v in enumerate(row)]
                                 for row in k.num], k.d)
        checks.append(check(f"K-conjugation n={n}", "triangularizer-conjugation",
                            k_lam == seq.Gamma[n] * k))
        checks.append(check(f"K-unipotent n={n}", "triangularizer-unipotent",
                            all(k.num[r][r] == k.d for r in range(N))))
        # num/den == k_num/k.d on integers; both denominators are positive
        entry_ok = all(k.num[ii - 1][jj - 1] * den == num * k.d
                       for (ii, jj), (num, den) in _K_closed_form(spec, n, coef).items())
        checks.append(check(f"K-closed-form n={n}", "triangularizer-entries", entry_ok))
        checks.append(check(f"K-inverse n={n}", "triangularizer-entries",
                            (k * seq.K_inv[n]).is_identity()))
    return checks


def verify_diagonalization(spec) -> list[dict]:
    """Conjugating the named operators by e^{xA}, as the compositions
    e^{-xA} D e^{xA}, collapses them to their diagonal forms: the ladder to
    d_x x - x, the second-order operator to d_x^2 x + d_x(1+nu-x+J) - J,
    and the multiplication Ax - J to -J."""
    left = right_mult(spec.exp_neg_xA)
    right = right_mult(spec.exp_xA)
    x_i = MatPoly.x_identity(spec.N)
    return [
        check("ladder diagonalization", "diagonalized-eigenproblem",
              left.compose(ladder_raising(spec)).compose(right) == DiffOp([-x_i, x_i])),
        check("second-order diagonalization", "diagonalized-eigenproblem",
              left.compose(second_order(spec)).compose(right)
              == second_order_diagonalized(spec)),
        check("multiplication diagonalization", "diagonalized-eigenproblem",
              left.compose(casimir_mult(spec)).compose(right)
              == right_mult(MatPoly.const(-spec.J))),
    ]


def verify_R_eigen(seq: OPSeq) -> list[dict]:
    """R . D_Q = Lambda_n . R, with D_Q = d_x^2 x + d_x(1+nu+J-x) - J the
    diagonalized second-order operator and Lambda_n = -(n+J), checked entry
    by entry.  Both are diagonal, so entry r = R(x,n)[i,j] (1-based) must
    solve the scalar Laguerre equation x r'' + (1+nu+j-x) r' + (n+i-j) r = 0,
    whose coefficient of x^k is

        (k+1)(k+1+nu+j) r_{k+1} + (n+i-j-k) r_k = 0.

    On integers, with nu = p/q and r_k = num_k[i][j] / d_k read off the
    MatQ numerators of R's coefficients (num zero above the top one):

        (k+1)(q(k+1+j)+p) num_{k+1} d_k + q(n+i-j-k) num_k d_{k+1} == 0."""
    spec = seq.spec
    p, q = spec.nu.numerator, spec.nu.denominator
    zero = MatQ.zero(spec.N)
    checks = []
    for n, r in enumerate(seq.R):
        # 0-based row a and column b: n+i-j = n+a-b and k+1+j = k+2+b
        ok = all((k + 1) * (q * (k + 2 + b) + p) * w * c.d + q * (n + a - b - k) * v * up.d == 0
                 for k, (c, up) in enumerate(zip(r.coeffs, r.coeffs[1:] + (zero,)))
                 for a, (row, up_row) in enumerate(zip(c.num, up.num))
                 for b, (v, w) in enumerate(zip(row, up_row)))
        checks.append(check(f"R eigen-equation n={n}", "diagonalized-eigenproblem", ok))
    return checks


class XiTable:
    """xi(n,i,j) for 0 <= n <= n_max, 1 <= i,j <= N; zero iff n+i-j < 0."""

    def __init__(self, n_dim: int, n_max: int):
        self.N = n_dim
        self.n_max = n_max
        self.values: dict = {}

    def get(self, n, i, j) -> Fraction:
        if n + i - j < 0:
            return Fraction(0)
        return self.values[(n, i, j)]

    def prefix(self, m: int) -> "XiTable":
        """The table of degrees n <= m."""
        table = XiTable(self.N, m)
        table.values = {key: v for key, v in self.values.items() if key[0] <= m}
        return table

    def records(self):
        for (n, i, j) in sorted(self.values):
            yield {"n": n, "i": i, "j": j, "xi": rat_str(self.values[(n, i, j)])}


def extract_xi(seq: OPSeq) -> XiTable:
    """The xi table of the family, read off the oracle once (`read_xi`) and
    kept by `seq`."""
    return seq.xi


def read_xi(seq: OPSeq) -> XiTable:
    """Read xi off the oracle: every R entry must be an exact multiple of
    its Laguerre polynomial (full-polynomial proportionality, not just the
    value at zero); off-pattern entries must vanish identically.

    The check runs on integers.  Each L_deg^(nu+j) the pattern reaches is
    built once, up front, as its numerators l_k (`laguerre_numerators`);
    coefficient k of an R entry is num_k / d_k, read off the MatQ
    numerators of R's coefficients.  An entry of degree deg is a multiple
    of L_deg exactly when num_k d_deg l_deg == num_deg d_k l_k for every
    k <= deg, and then xi = (-1)^deg deg! num_deg / d_deg, since
    l_deg / (q^deg deg!) = (-1)^deg / deg!."""
    spec = seq.spec
    table = XiTable(spec.N, seq.n_max)
    laguerre = {(j, deg): laguerre_numerators(spec.nu + j, deg)[0]
                for j in range(1, spec.N + 1)
                for deg in range(seq.n_max + spec.N - j + 1)}
    for n, r in enumerate(seq.R):
        nums = [c.num for c in r.coeffs]
        dens = [c.d for c in r.coeffs]
        for i in range(1, spec.N + 1):
            for j in range(1, spec.N + 1):
                entry = [num[i - 1][j - 1] for num in nums]
                deg = n + i - j
                if deg < 0:
                    if any(entry):
                        raise ClosedFormViolation(
                            f"R({n})[{i},{j}] nonzero below the degree pattern")
                    continue
                if not any(entry):
                    table.values[n, i, j] = Fraction(0)
                    continue
                lag = laguerre[j, deg]
                if len(entry) <= deg or any(entry[deg + 1:]) or not all(
                        v * dens[deg] * lag[deg] == entry[deg] * dens[k] * lag[k]
                        for k, v in enumerate(entry[:deg])):
                    raise ClosedFormViolation(
                        f"R({n})[{i},{j}] is not a multiple of L_{deg}^(nu+{j})")
                table.values[n, i, j] = Fraction((-1) ** deg * factorial(deg) * entry[deg],
                                                 dens[deg])
    return table


def _same_entries(x: MatQ, y: MatQ, positions) -> bool:
    """x[r, c] == y[r, c] at every (r, c) of `positions`, compared on the
    integer numerators by cross-multiplication (both denominators are
    positive)."""
    xn, xd, yn, yd = x.num, x.d, y.num, y.d
    return all(xn[r][c] * yd == yn[r][c] * xd for r, c in positions)


def compute_GI(seq: OPSeq) -> list[dict]:
    """Structure of the coupling matrices G(n) = K_n^{-1} T_n K_{n-1}
    (n >= 1) and I(n) = K_n^{-1} H_n J H_n^{-1} K_n of `seq`, verified
    exactly on integer numerators: G diagonal; I bidiagonal upper with
    (I)_{ii} = i; the two identities relating their nontrivial entries back
    to H_n itself."""
    N = seq.spec.N
    superdiagonal = [(r, r + 1) for r in range(N - 1)]
    diagonal = [(r, r) for r in range(N)]
    checks = []
    for n in range(seq.n_max + 1):
        i_n = seq.I[n]
        ok_struct = all(v == ((r + 1) * i_n.d if r == c else 0)
                        for r, row in enumerate(i_n.num) for c, v in enumerate(row)
                        if c != r + 1)
        checks.append(check(f"I(n) bidiagonal n={n}", "coupling-structure", ok_struct))
        checks.append(check(f"I(n) superdiagonal n={n}", "coupling-diagonal-entries",
                            _same_entries(i_n, seq.HJH[n], superdiagonal)))
        if n >= 1:
            g_n = seq.G[n]
            ok_diag = not any(v for r, row in enumerate(g_n.num)
                              for c, v in enumerate(row) if r != c)
            checks.append(check(f"G(n) diagonal n={n}", "coupling-structure", ok_diag))
            checks.append(check(f"G(n) diagonal entries n={n}", "coupling-diagonal-entries",
                                _same_entries(g_n, seq.T[n], diagonal)))
    return checks


def _g_ratios(seq: OPSeq) -> dict:
    """(n, i) -> G(n)_{ii} / (n+nu+i) for 1 <= n <= n_max and 1 <= i <= N,
    the factor both xi recursions read, one Fraction each: with nu = p/q it
    is G_num q / (G_d (q(n+i) + p))."""
    p, q = seq.spec.nu.numerator, seq.spec.nu.denominator
    ratios = {}
    for n in range(1, seq.n_max + 1):
        g = seq.G[n]
        for i in range(1, seq.spec.N + 1):
            ratios[n, i] = Fraction(g.num[i - 1][i - 1] * q, g.d * (q * (n + i) + p))
    return ratios


def _pattern(N: int, n_max: int) -> list:
    """The keys (n, i, j) of an xi table, n+i-j >= 0, in sorted order.
    Every recursion step reads only keys before its own, so the table can
    be rebuilt in this order."""
    return [(n, i, j) for n in range(n_max + 1) for i in range(1, N + 1)
            for j in range(1, N + 1) if n + i - j >= 0]


def _interior(get, ratio: dict, a: tuple, n: int, i: int, j: int) -> tuple:
    """(tail, prev) of the interior step at (n, i, j), n+i-j > 0, with
    tail = G(n)_{ii}/(n+nu+i) xi(n-1,i,j) and prev = a_{i-1} xi(n,i-1,j)
    (0 at i = 1), reading xi through `get`: the corrected step is
    tail - prev, the printed one tail + prev."""
    tail = ratio[n, i] * get(n - 1, i, j)
    return tail, (a[i - 2] * get(n, i - 1, j) if i > 1 else 0)


def _antidiagonal(seq: OPSeq, ratio: dict, m: int, ii: int) -> tuple:
    """(lead, cross) of the antidiagonal relation at row ii, 1 <= ii < N,
    and degree m >= 1:

        a_{ii-1} xi(m+1,ii-1,j) = lead xi(m,ii,j) + cross xi(m-1,ii+1,j),
        lead = G(m+1)_{ii,ii}/(m+1+nu+ii) + 1 - a_ii I(m)_{ii,ii+1},
        cross = I(m)_{ii,ii+1} G(m)_{ii+1,ii+1}/(m+nu+ii+1)."""
    i_m = seq.I[m][ii - 1, ii]
    return ratio[m + 1, ii] + 1 - seq.spec.a[ii - 1] * i_m, i_m * ratio[m, ii + 1]


def xi_by_recursion(seq: OPSeq) -> XiTable:
    """Rebuild the xi table from seeds and two-term recursions only; no
    polynomial extraction involved.  One pass over the keys in sorted order
    (`_pattern`), each read off earlier keys:

    - n = 0: xi(0,i,j) = (K_0^{-1})_{ij} (i-j)!/(nu+j+1)_{i-j};
    - n = 1, j = i+1: xi(1,i,i+1) = -I(0)_{i,i+1} (the oracle fixes the
      minus sign; the printed form carries +);
    - n >= 2, j = n+i: the antidiagonal step (`_antidiagonal`) at row i+1,
      xi(n,i,j) = (lead xi(n-1,i+1,j) + cross xi(n-2,i+2,j)) / a_i;
    - otherwise (n+i-j > 0) the interior step (`_interior`) with the
      corrected sign on the a-term,
      xi(n,i,j) = G(n)_{ii}/(n+nu+i) xi(n-1,i,j) - a_{i-1} xi(n,i-1,j).

    Each G(n)_{ii}/(n+nu+i) is formed once (`_g_ratios`).
    """
    spec = seq.spec
    a, ratio = spec.a, _g_ratios(seq)
    table = XiTable(spec.N, seq.n_max)
    get = table.get
    for n, i, j in _pattern(spec.N, seq.n_max):
        if n == 0:
            v = seq.K_inv[0][i - 1, j - 1] * factorial(i - j) / pochhammer(spec.nu + j + 1, i - j)
        elif j == n + i and n == 1:
            v = -seq.I[0][i - 1, i]
        elif j == n + i:
            lead, cross = _antidiagonal(seq, ratio, n - 1, i + 1)
            v = (lead * get(n - 1, i + 1, j) + cross * get(n - 2, i + 2, j)) / a[i - 1]
        else:
            tail, prev = _interior(get, ratio, a, n, i, j)
            v = tail - prev
        table.values[n, i, j] = v
    return table


def verify_xi_tables(extracted: XiTable, recursed: XiTable) -> list[dict]:
    """The extracted and the recursed table agree key by key (the first
    differing key in sorted order is reported as `first_mismatch`), and the
    extracted keys are exactly the zero pattern n+i-j >= 0 (`_pattern`); a
    value on the pattern may itself be 0."""
    first_bad = next((k for k in sorted(set(extracted.values) | set(recursed.values))
                      if extracted.values.get(k) != recursed.values.get(k)), None)
    return [
        check("xi extraction equals recursion", "multiplier-recursions", first_bad is None,
              first_mismatch=None if first_bad is None else str(first_bad)),
        check("xi zero pattern", "multiplier-zero-pattern",
              set(extracted.values) == set(_pattern(extracted.N, extracted.n_max))),
    ]


def i1_boundary_relation(seq: OPSeq) -> list:
    """(derived holds, printed holds) of the i = 1 boundary relation on the
    oracle table seq.xi, one pair per degree 1 <= n < min(n_max, N).  The
    derived side is the antidiagonal step at row 0 (`_antidiagonal` at
    ii = 1), where the left side is zero:
    lead xi(n,1,n+1) + cross xi(n-1,2,n+1) = 0.  The printed side is
    ((nu+2n+3) G(n+1)_11/(n+nu+2) + n+2+nu + (nu+2n+2) a_1 I(n)_12)
    xi(n,1,n+1) = (nu+2n+2) cross xi(n-1,2,n+1).  The printed-variant
    report and the i = 1 resolution both read it."""
    nu, a, xi, ratio = seq.spec.nu, seq.spec.a, seq.xi, _g_ratios(seq)

    def relation(n):
        lo, hi = xi.get(n, 1, n + 1), xi.get(n - 1, 2, n + 1)
        lead, cross = _antidiagonal(seq, ratio, n, 1)
        n1_disp = (nu + 2 * n + 3) * ratio[n + 1, 1] + (n + 2 + nu) \
            + seq.I[n][0, 1] * (nu + 2 * n + 2) * a[0]
        return lead * lo + cross * hi == 0, n1_disp * lo == (nu + 2 * n + 2) * cross * hi

    return [relation(n) for n in range(1, min(seq.n_max, seq.spec.N))]


def verify_displayed_xi_recursions(seq: OPSeq) -> list[dict]:
    """Status of the printed variants against the oracle table seq.xi: the
    interior a-term sign (`_interior`, tail - prev against tail + prev), the
    n=1 boundary sign, and the printed N1/N2 coefficients of the i=1
    boundary relation (`i1_boundary_relation`, which the i = 1 resolution
    reads too).  These are reports, not gates; the package's own recursion
    (the corrected one) is gated by verify_xi_tables.  The interior
    recursion compares entries from N >= 2 and n_max >= 1, the boundary
    seed too, and the i=1 relation from N >= 2 and n_max >= 2.  Each
    G(n)_{ii}/(n+nu+i) is formed once per reader (`_g_ratios`)."""
    a, N, xi, I, ratio = seq.spec.a, seq.spec.N, seq.xi, seq.I, _g_ratios(seq)

    def interior(n, i, j):
        tail, prev = _interior(xi.get, ratio, a, n, i, j)
        v = xi.get(n, i, j)
        return v == tail - prev, v == tail + prev

    def seed(i):
        return xi.get(1, i, i + 1) == -I[0][i - 1, i], xi.get(1, i, i + 1) == I[0][i - 1, i]

    return [
        *quoted_check("interior recursion, corrected sign", "multiplier-interior-recursion",
                      [interior(n, i, j) for (n, i, j) in sorted(xi.values)
                       if n >= 1 and i >= 2 and n + i - j > 0]),
        *quoted_check("boundary seed xi(1,i,i+1), corrected sign", "multiplier-boundary-seed",
                      [seed(i) for i in range(1, N if seq.n_max >= 1 else 1)]),
        *quoted_check("i=1 boundary relation, derived coefficients",
                      "multiplier-boundary-relation", i1_boundary_relation(seq)),
    ]


def _norm_terms(spec: WeightSpec, h: MatQ, h_inv: MatQ, h_prev_inv: MatQ | None) -> tuple:
    """What the norm recursion reads of one H_m, from H_m, H_m^{-1} and
    H_{m-1}^{-1} (None at m = 0, where the sequence vanishes below):
    H_m J H_m^{-1}, T_m = H_m (A^T - 1) H_{m-1}^{-1} (None at m = 0) and
    W_m = [J, H_m J H_m^{-1}] + T_m (A - 1)."""
    hjh = h * spec.J * h_inv
    if h_prev_inv is None:
        return hjh, None, J_commutator(hjh)
    t = h * spec.at1 * h_prev_inv
    return hjh, t, MatQ.dot([(MatQ.identity(spec.N), J_commutator(hjh)), (t, spec.am1)],
                            spec.N)


def _h_step(spec: WeightSpec, lower: tuple, upper: tuple, h_up: MatQ) -> MatQ:
    """H_{n+2} from the `_norm_terms` of H_n (`lower`) and of H_{n+1}
    (`upper`) and from H_{n+1} itself:

        b_n = (A-1) T_{n+1} - W_n,
        H_{n+2} = (A-1)^{-2} (b_n (A-1) + (A-1) W_{n+1} + H_n J H_n^{-1}
                              - H_{n+1} J H_{n+1}^{-1} - 2) H_{n+1} (A^T-1)^{-1},

    b_n and the inner sum each one fused MatQ.dot; (A-1)^{-2} is the
    spec's (`am1_inv_sq`)."""
    i, am1 = MatQ.identity(spec.N), spec.am1
    hjh_n, _, w_n = lower
    hjh_up, t_up, w_up = upper
    bn = MatQ.dot([(am1, t_up), (i, -w_n)], spec.N)
    inner = MatQ.dot([(bn, am1), (am1, w_up), (i, hjh_n), (i, -hjh_up), (i, i * -2)], spec.N)
    return spec.am1_inv_sq * inner * h_up * spec.at1_inv


def h_recursion_next(spec: WeightSpec, H: list, H_inv: list) -> MatQ:
    """H_{n+2} from (H_{n-1},) H_n, H_{n+1}, the last two of `H`, and their
    inverses H_inv[m] = H_m^{-1}, through the delta-coefficient identities,
    with A - 1, A^T - 1, their inverses and (A-1)^{-2} read off `spec`; the H_{n-1}
    term drops when producing H_2 because the sequence vanishes at negative
    indices.  It forms the `_norm_terms` of H_n and H_{n+1} and takes the
    one step (`_h_step`) that verify_H_recursion takes."""
    n = len(H) - 2  # producing index n+2
    lower = _norm_terms(spec, H[n], H_inv[n], H_inv[n - 1] if n >= 1 else None)
    upper = _norm_terms(spec, H[n + 1], H_inv[n + 1], H_inv[n])
    return _h_step(spec, lower, upper, H[n + 1])


def verify_H_recursion(seq: OPSeq) -> list[dict]:
    """H_n for 2 <= n <= n_max by the step of h_recursion_next from the
    family's H_{n-3}, H_{n-2}, H_{n-1}, against its H_n, in one pass: each
    H_m, m < n_max, is inverted once, afresh, and its `_norm_terms`
    (H_m J H_m^{-1}, T_m, W_m) are formed once and read by both steps that
    need them.  The inverses are part of the check, so they are taken of
    the H under check and not read from the family's memo (seq.h_inv)."""
    checks = []
    if seq.n_max < 2:
        return checks
    spec, H = seq.spec, seq.H
    inverses = [h.inverse() for h in H[:-1]]
    terms = [_norm_terms(spec, h, inv, inverses[m - 1] if m else None)
             for m, (h, inv) in enumerate(zip(H, inverses))]
    for n in range(2, seq.n_max + 1):
        nxt = _h_step(spec, terms[n - 2], terms[n - 1], H[n - 1])
        checks.append(check(f"H-recursion n={n}", "norm-three-term-recursion", nxt == H[n]))
    return checks


def x1_from_h0(spec: WeightSpec, h0: MatQ) -> MatQ:
    """Bootstrap X(1) from H_0 alone: zero pattern above the superdiagonal,
    superdiagonal X(1)_{i,i+1} = -(H_0 J H_0^{-1})_{i,i+1} (oracle-fixed
    sign), and the entrywise recursions filling each row right to left."""
    N, nu, a = spec.N, spec.nu, spec.a
    hjh = h0 * spec.J * h0.inverse()
    x = [[Fraction(0)] * N for _ in range(N)]
    for i in range(1, N):
        x[i - 1][i] = -hjh[i - 1, i]
    for i in range(1, N + 1):
        for j in range(min(i, N), 0, -1):
            acc = Fraction(0)
            if j + 1 <= N:
                acc += a[j - 1] * (nu + j + 1) * x[i - 1][j]
            if i >= 2:
                acc -= a[i - 2] * (nu + i + 1) * x[i - 2][j - 1]
            if i == j:
                acc += 1 + nu + i
            x[i - 1][j - 1] = -acc / (1 + i - j)
    return MatQ(x)


def h1_from_h0(spec: WeightSpec, h0: MatQ) -> MatQ:
    """H_1 = (X(1) + [J, X(1)]) H_0 (A^T - 1)^{-1}, X(1) from x1_from_h0;
    public as the first step of demo 04 (the suite reuses its own X(1))."""
    return _h1_from_x1(spec, h0, x1_from_h0(spec, h0))


def _h1_from_x1(spec: WeightSpec, h0: MatQ, x1: MatQ) -> MatQ:
    return (x1 + J_commutator(x1)) * h0 * spec.at1_inv


def verify_X1_bootstrap(seq: OPSeq) -> list[dict]:
    """X(1) and H_1 rebuilt from H_0, H_1 from that one X(1) (so H_0 is
    inverted once); a family without P_1 has nothing to compare them with."""
    spec = seq.spec
    if seq.n_max < 1:
        return []
    x1 = x1_from_h0(spec, seq.H[0])
    zero_ok = all(seq.X[1][i, j] == 0
                  for i in range(spec.N) for j in range(spec.N) if j > i + 1)
    h1 = _h1_from_x1(spec, seq.H[0], x1)
    return [
        check("X(1) from H_0", "norm-bootstrap", x1 == seq.X[1]),
        check("X(1) zero pattern", "norm-bootstrap", zero_ok),
        check("H_1 from H_0", "norm-bootstrap", h1 == seq.H[1]),
    ]


def verify_Q_relation(seq: OPSeq) -> list[dict]:
    """-Q(x,n) J = x Q'(x,n) - (n+J) Q(x,n) + T_n Q(x,n-1), with
    T_n = H_n (A-1)^* H_{n-1}^{-1} and the last term absent at n = 0,
    checked entry by entry.  J is diagonal, so coefficient k of entry (i,j)
    (1-based) reads

        (k-n-i+j) Q_k[i,j] + (T_n Q_{n-1})_k[i,j] = 0.

    T_n Q(x,n-1) is the one block product, one per coefficient; then, with
    Q_k = num/d and (T_n Q_{n-1})_k = tnum/td on integers,
    (k-n-i+j) num td + tnum d == 0.  A T_n Q(x,n-1) of higher degree than
    Q(x,n) fails."""
    zero = MatQ.zero(seq.spec.N)
    checks = []
    for n, q in enumerate(seq.Q):
        tq = (seq.T[n] * seq.Q[n - 1]).coeffs if n >= 1 else ()
        ok = len(tq) <= len(q.coeffs) and all(
            (k - n - a + b) * v * t.d + w * c.d == 0
            for k, (c, t) in enumerate(zip(q.coeffs, tq + (zero,) * (len(q.coeffs) - len(tq))))
            for a, (row, t_row) in enumerate(zip(c.num, t.num))
            for b, (v, w) in enumerate(zip(row, t_row)))
        checks.append(check(f"Q relation n={n}", "conjugated-derivative-relation", ok))
    return checks


def verify_X_recursion(seq: OPSeq) -> list[dict]:
    """The zeroth-coefficient identity as the matrix identity
    n + X_n A - A X_{n+1} - X_n + X_{n+1} = -(n+1+nu) - H_n J H_n^{-1}
    for 1 <= n < n_max, whose rows are the X recursions, plus the
    G(n)_{ii} = X(n)_{ii} diagonal claim.  Each identity is one fused sum
    (MatQ.dot) that must vanish:

        X_n (A-1) - (A-1) X_{n+1} + (2n+1+nu) + H_n J H_n^{-1} = 0.

    The printed item (a) drops the X(n+1) term and swaps H_n J H_n^{-1} for
    I(n) in row 1, so its status is row 1 of
    X_n (A-1) + (2n+1+nu) + I(n) = 0, reported against the oracle.  The X
    recursion compares rows from n_max = 2, the diagonal claim from
    n_max = 1."""
    spec = seq.spec
    N, X = spec.N, seq.X
    i, am1 = MatQ.identity(N), spec.am1
    one_minus_a = -am1

    def rows(n):
        xa, shift = X[n] * am1, i * (2 * n + 1 + spec.nu)
        derived = MatQ.dot([(i, xa), (one_minus_a, X[n + 1]), (i, shift), (i, seq.HJH[n])], N)
        printed = MatQ.dot([(i, xa), (i, shift), (i, seq.I[n])], N)
        return derived.is_zero(), not any(printed.num[0])

    checks = quoted_check("X recursion rows, derived form", "zero-shift-coefficient-entrywise",
                          [rows(n) for n in range(1, seq.n_max)])
    if seq.n_max >= 1:
        diagonal = [(r, r) for r in range(N)]
        gx_ok = all(_same_entries(seq.G[n], X[n], diagonal) for n in range(1, seq.n_max + 1))
        checks.append(check("G(n) diagonal equals X(n) diagonal", "coupling-diagonal-claim",
                            gx_ok))
    return checks
