"""Closed forms tying the matrix family to scalar Laguerre polynomials.

With K_n the unipotent eigenvector matrix of Gamma_n = A(n+nu+1+J) - (n+J)
and R(x,n) = K_n^{-1} P(x,n) e^{xA}, every entry of R is an exact rational
multiple of a scalar Laguerre polynomial:

    R(x,n)[i,j] = xi(n,i,j) L_{n+i-j}^{(nu+j)}(x),   zero when n+i-j < 0.

This module extracts the xi table from the oracle, rebuilds it from the
two-term recursions driven by the diagonal of G(n) and the superdiagonal of
I(n), and checks the nonlinear recursion for the squared norms.  Where a commonly
quoted recursion disagrees with the oracle (a handful of signs and one
Pochhammer subscript), the corrected form is used and the quoted variant's
status is reported alongside.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .engine import OPSeq, check
from .matrices import MatPoly, MatQ, commutator, exp_nilpotent
from .operators import (DiffOp, casimir_mult, ladder_raising, right_mult,
                        second_order, second_order_diagonalized)
from .scalar import laguerre_numerators, pochhammer, rat_str
from .weights import WeightSpec


class ClosedFormViolation(AssertionError):
    """An entry of R failed the Laguerre proportionality the theory forces."""


def verify_K_properties(seq: OPSeq) -> list[dict]:
    """K_n Lambda_n K_n^{-1} = Gamma_n exactly, unit diagonal, the
    closed-form entries (prod a_k) (n+nu+j+1)_{i-j} / (i-j)!, and the
    closed-form K_n^{-1} against a fresh inverse of K_n."""
    spec = seq.spec
    checks = []
    N, nu = spec.N, spec.nu
    for n in range(seq.n_max + 1):
        k = seq.K[n]
        k_inv = k.inverse()  # fresh, to check the closed form seq.K_inv[n]
        lam = MatQ.diag([-(n + r) for r in range(1, N + 1)])
        checks.append(check(f"K-conjugation n={n}", "triangularizer-conjugation",
                            k * lam * k_inv == seq.Gamma[n]))
        checks.append(check(f"K-unipotent n={n}", "triangularizer-unipotent",
                            all(k[r, r] == 1 for r in range(N))))
        entry_ok = True
        for ii in range(1, N + 1):
            for jj in range(1, ii + 1):
                prod = Fraction(1)
                for m in range(jj, ii):
                    prod *= spec.a[m - 1]
                expected = prod * pochhammer(nu + jj + n + 1, ii - jj) / factorial(ii - jj)
                if k[ii - 1, jj - 1] != expected:
                    entry_ok = False
        checks.append(check(f"K-closed-form n={n}", "triangularizer-entries", entry_ok))
        checks.append(check(f"K-inverse n={n}", "triangularizer-entries",
                            seq.K_inv[n] == k_inv))
    return checks


def verify_diagonalization(spec) -> list[dict]:
    """Conjugating the named operators by e^{xA}, as the compositions
    e^{-xA} D e^{xA}, collapses them to their diagonal forms: the ladder to
    d_x x - x, the second-order operator to d_x^2 x + d_x(1+nu-x+J) - J,
    and the multiplication Ax - J to -J."""
    left = right_mult(exp_nilpotent(spec.A, -1))
    right = right_mult(exp_nilpotent(spec.A, +1))
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
    """R . D_Q = Lambda_n . R with D_Q the diagonalized second-order operator
    and Lambda_n = -(n+J)."""
    spec = seq.spec
    dq = second_order_diagonalized(spec)
    checks = []
    for n, r in enumerate(seq.R):
        lam = MatQ.diag([-(n + k) for k in range(1, spec.N + 1)])
        checks.append(check(f"R eigen-equation n={n}", "diagonalized-eigenproblem",
                            dq.act(r) == MatPoly.const(lam) * r))
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


def compute_GI(seq: OPSeq) -> list[dict]:
    """Structure of the coupling matrices G(n) = K_n^{-1} T_n K_{n-1}
    (n >= 1) and I(n) = K_n^{-1} H_n J H_n^{-1} K_n of `seq`, verified
    exactly: G diagonal; I bidiagonal upper with (I)_{ii} = i; the two
    identities relating their nontrivial entries back to H_n itself."""
    N = seq.spec.N
    checks = []
    for n in range(seq.n_max + 1):
        hjh, i_n = seq.HJH[n], seq.I[n]
        ok_struct = all(
            i_n[r, c] == (r + 1 if r == c else 0)
            for r in range(N) for c in range(N) if c != r + 1
        )
        checks.append(check(f"I(n) bidiagonal n={n}", "coupling-structure", ok_struct))
        ok_super = all(i_n[r, r + 1] == hjh[r, r + 1] for r in range(N - 1))
        checks.append(check(f"I(n) superdiagonal n={n}", "coupling-diagonal-entries", ok_super))
        if n >= 1:
            hth, g_n = seq.T[n], seq.G[n]
            ok_diag = all(g_n[r, c] == 0 for r in range(N) for c in range(N) if r != c)
            checks.append(check(f"G(n) diagonal n={n}", "coupling-structure", ok_diag))
            ok_eq = all(g_n[r, r] == hth[r, r] for r in range(N))
            checks.append(check(f"G(n) diagonal entries n={n}", "coupling-diagonal-entries", ok_eq))
    return checks


def xi_by_recursion(seq: OPSeq) -> XiTable:
    """Rebuild the xi table from seeds and two-term recursions only; no
    polynomial extraction involved.

    Seeds: xi(0,i,j) = (K_0^{-1})_{ij} (i-j)!/(nu+j+1)_{i-j}, and the n = 1
    boundary xi(1,i,i+1) = -I(0)_{i,i+1} (the oracle fixes the minus sign;
    the printed form carries +).  Interior (n+i-j > 0):

        xi(n,1,j) = G(n)_{11} / (n+nu+1) xi(n-1,1,j)
        xi(n,i,j) = -a_{i-1} xi(n,i-1,j) + G(n)_{ii} / (n+nu+i) xi(n-1,i,j)

    (corrected sign on the a-term).  Boundary antidiagonal j = n+i advanced
    by the corrected relation

        a_{i-1} xi(n+1,i-1,j) = (G(n+1)_{ii}/(n+1+nu+i) + 1
                                 - a_i I(n)_{i,i+1}) xi(n,i,j)
                                + I(n)_{i,i+1} G(n)_{i+1,i+1}/(n+nu+i+1)
                                  xi(n-1,i+1,j).
    """
    spec = seq.spec
    N, nu = spec.N, spec.nu
    a = spec.a
    G, I = seq.G, seq.I
    table = XiTable(N, seq.n_max)
    for i in range(1, N + 1):
        for j in range(1, i + 1):
            v = seq.K_inv[0][i - 1, j - 1] * factorial(i - j) / pochhammer(nu + j + 1, i - j)
            table.values[0, i, j] = v
    if seq.n_max >= 1:
        for i in range(1, N):
            table.values[1, i, i + 1] = -I[0][i - 1, i]
    # boundary antidiagonals: for column j, entries (n, i) with n = j - i
    for j in range(1, N + 1):
        for i in range(j - 1, 0, -1):
            n = j - i  # producing xi(n, i, j) from (n-1, i+1) and (n-2, i+2)
            if n > seq.n_max or n < 2:
                continue
            m, ii = n - 1, i + 1
            lead = G[m + 1][ii - 1, ii - 1] / (m + 1 + nu + ii) + 1
            cross = Fraction(0)
            if ii < N:
                lead -= a[ii - 1] * I[m][ii - 1, ii]
                cross = I[m][ii - 1, ii] * G[m][ii, ii] / (m + nu + ii + 1)
            v = lead * table.get(m, ii, j)
            if ii < N:
                v += cross * table.get(m - 1, ii + 1, j)
            table.values[n, i, j] = v / a[i - 1]
    for n in range(1, seq.n_max + 1):
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                if n + i - j <= 0 or (n, i, j) in table.values:
                    continue
                if i == 1:
                    v = G[n][0, 0] / (n + nu + 1) * table.get(n - 1, 1, j)
                else:
                    v = -a[i - 2] * table.get(n, i - 1, j) \
                        + G[n][i - 1, i - 1] / (n + nu + i) * table.get(n - 1, i, j)
                table.values[n, i, j] = v
    return table


def verify_xi_tables(extracted: XiTable, recursed: XiTable) -> list[dict]:
    checks = []
    keys = sorted(set(extracted.values) | set(recursed.values))
    ok = True
    first_bad = None
    for k in keys:
        a = extracted.values.get(k)
        b = recursed.values.get(k)
        if a != b:
            ok = False
            first_bad = k
            break
    checks.append(check("xi extraction equals recursion",
                        "multiplier-recursions", ok,
                        first_mismatch=str(first_bad) if first_bad else None))
    zero_ok = all(extracted.values.get((n, i, j)) is not None
                  for (n, i, j) in extracted.values if n + i - j >= 0)
    checks.append(check("xi zero pattern", "multiplier-zero-pattern", zero_ok))
    return checks


def verify_displayed_xi_recursions(seq: OPSeq) -> list[dict]:
    """Status of the printed variants against the oracle table seq.xi: the
    interior a-term sign, the n=1 boundary sign, and the printed N1/N2
    coefficients of the i=1 boundary relation.  These are reports, not gates; the package's
    own recursion (the corrected one) is gated by verify_xi_tables."""
    spec = seq.spec
    nu, a, N = spec.nu, spec.a, spec.N
    xi, G, I = seq.xi, seq.G, seq.I
    out = []
    disp_ok, corr_ok = True, True
    for (n, i, j) in sorted(xi.values):
        if n < 1 or i < 2 or n + i - j <= 0:
            continue
        prev = xi.get(n, i - 1, j)
        up = xi.get(n - 1, i, j)
        tail = G[n][i - 1, i - 1] / (n + nu + i) * up
        if xi.get(n, i, j) != a[i - 2] * prev + tail:
            disp_ok = False
        if xi.get(n, i, j) != -a[i - 2] * prev + tail:
            corr_ok = False
    out.append(check("interior recursion, corrected sign", "multiplier-interior-recursion", corr_ok,
                     displayed_form_pass=disp_ok))
    if seq.n_max >= 1:
        disp = all(xi.get(1, i, i + 1) == I[0][i - 1, i] for i in range(1, N))
        corr = all(xi.get(1, i, i + 1) == -I[0][i - 1, i] for i in range(1, N))
        out.append(check("boundary seed xi(1,i,i+1), corrected sign",
                         "multiplier-boundary-seed", corr, displayed_form_pass=disp))
    disp_ok, corr_ok, tested = True, True, False
    for n in range(1, seq.n_max):
        j = n + 1
        if j > N or N < 2:
            continue
        tested = True
        n1_disp = (nu + 2 * n + 3) * G[n + 1][0, 0] / (n + nu + 2) + (n + 2 + nu) \
            + I[n][0, 1] * (nu + 2 * n + 2) * a[0]
        n2_disp = I[n][0, 1] * (nu + 2 * n + 2) * G[n][1, 1] / (n + nu + 2)
        if n1_disp * xi.get(n, 1, j) != n2_disp * xi.get(n - 1, 2, j):
            disp_ok = False
        n1 = G[n + 1][0, 0] / (n + nu + 2) + 1 - I[n][0, 1] * a[0]
        n2 = -I[n][0, 1] * G[n][1, 1] / (n + nu + 2)
        if n1 * xi.get(n, 1, j) != n2 * xi.get(n - 1, 2, j):
            corr_ok = False
    if tested:
        out.append(check("i=1 boundary relation, derived coefficients",
                         "multiplier-boundary-relation", corr_ok, displayed_form_pass=disp_ok))
    return out


def h_recursion_next(spec: WeightSpec, H: list) -> MatQ:
    """H_{n+2} from (H_{n-1},) H_n, H_{n+1} through the delta-coefficient
    identities, with A, J, A^T - 1 and the inverses of A - 1 and A^T - 1
    read off `spec`; the H_{n-1} term drops when producing H_2 because the
    sequence vanishes at negative indices.  Each H_m is inverted afresh,
    once per call: the inverses are part of the check."""
    A, J, at1, am1_inv = spec.A, spec.J, spec.at1, spec.am1_inv
    i = MatQ.identity(A.N)
    am1 = A - i
    n = len(H) - 2  # producing index n+2
    hn, hn1 = H[n], H[n + 1]
    hn_inv = hn.inverse()
    hjh_n = hn * J * hn_inv
    hjh_n1 = hn1 * J * hn1.inverse()
    bn = -commutator(J, hjh_n) + am1 * hn1 * at1 * hn_inv
    if n >= 1:
        bn = bn - hn * at1 * H[n - 1].inverse() * am1
    inner = (bn * am1 - i * 2 - hjh_n1 + hjh_n
             + am1 * commutator(J, hjh_n1) + am1 * (hn1 * at1 * hn_inv) * am1)
    return am1_inv * am1_inv * inner * hn1 * spec.at1_inv


def verify_H_recursion(seq: OPSeq) -> list[dict]:
    checks = []
    if seq.n_max < 2:
        return checks
    H = [seq.H[0], seq.H[1]]
    for n in range(2, seq.n_max + 1):
        nxt = h_recursion_next(seq.spec, H)
        checks.append(check(f"H-recursion n={n}", "norm-three-term-recursion", nxt == seq.H[n]))
        H.append(seq.H[n])
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
    """H_1 = (X(1) + [J, X(1)]) H_0 (A^T - 1)^{-1}."""
    x1 = x1_from_h0(spec, h0)
    return (x1 + commutator(spec.J, x1)) * h0 * spec.at1_inv


def verify_X1_bootstrap(seq: OPSeq) -> list[dict]:
    """X(1) and H_1 rebuilt from H_0; a family without P_1 has nothing to
    compare them with."""
    spec = seq.spec
    if seq.n_max < 1:
        return []
    x1 = x1_from_h0(spec, seq.H[0])
    zero_ok = all(seq.X[1][i, j] == 0
                  for i in range(spec.N) for j in range(spec.N) if j > i + 1)
    h1 = h1_from_h0(spec, seq.H[0])
    return [
        check("X(1) from H_0", "norm-bootstrap", x1 == seq.X[1]),
        check("X(1) zero pattern", "norm-bootstrap", zero_ok),
        check("H_1 from H_0", "norm-bootstrap", h1 == seq.H[1]),
    ]


def verify_Q_relation(seq: OPSeq) -> list[dict]:
    """-Q(x,n) J = x Q'(x,n) - (n+J) Q(x,n) + H_n (A-1)^* H_{n-1}^{-1}
    Q(x,n-1), with the last term absent at n = 0."""
    J = seq.spec.J
    i = MatQ.identity(seq.spec.N)
    checks = []
    q = seq.Q
    for n in range(seq.n_max + 1):
        lhs = -(q[n] * J)
        rhs = q[n].derivative().scale_x(1) - MatPoly.const(i * n + J) * q[n]
        if n >= 1:
            rhs = rhs + MatPoly.const(seq.T[n]) * q[n - 1]
        checks.append(check(f"Q relation n={n}", "conjugated-derivative-relation", lhs == rhs))
    return checks


def verify_X_recursion(seq: OPSeq) -> list[dict]:
    """The zeroth-coefficient identity as the matrix identity
    n + X_n A - A X_{n+1} - X_n + X_{n+1} = -(n+1+nu) - H_n J H_n^{-1}
    for 1 <= n < n_max, whose rows are the X recursions, plus the
    G(n)_{ii} = X(n)_{ii} diagonal claim.

    The printed item (a) drops the X(n+1) term and swaps H_n J H_n^{-1} for
    I(n) in row 1; its status is reported against the oracle."""
    spec = seq.spec
    A, N, X = spec.A, spec.N, seq.X
    i = MatQ.identity(N)
    corr_ok = all(i * n + X[n] * A - A * X[n + 1] - X[n] + X[n + 1]
                  == -(i * (n + 1 + spec.nu)) - seq.HJH[n] for n in range(1, seq.n_max))
    disp_ok = all(not any((i * n + X[n] * A - X[n] + i * (n + 1 + spec.nu) + seq.I[n]).rows[0])
                  for n in range(1, seq.n_max))
    gx_ok = all(seq.G[n][r, r] == X[n][r, r]
                for n in range(1, seq.n_max + 1) for r in range(N))
    return [check("X recursion rows, derived form", "zero-shift-coefficient-entrywise",
                  corr_ok, displayed_form_pass=disp_ok),
            check("G(n) diagonal equals X(n) diagonal", "coupling-diagonal-claim", gx_ok)]
