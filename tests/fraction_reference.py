"""Fraction-by-Fraction reference versions of the scalar closed forms, of
`read_xi`, of the moment sums and of the moment functional (`moment_row`,
`pair_row`): every step is one `fractions.Fraction` operation, the way they
read before the package moved them onto integer numerators and fused sums.  The exactness tests require the package to give the same
values, and to raise `DomainError` or `ClosedFormViolation` on the same
inputs.  `three_term_residuals` is the three-term check as the `MatPoly`
identity it was before it became one fused sum per coefficient."""

from fractions import Fraction
from math import factorial

from mvlaguerre.laguerre_forms import ClosedFormViolation, XiTable
from mvlaguerre.matrices import MatPoly, MatQ
from mvlaguerre.scalar import DomainError, RPoly, lambda_lattice, rat


def pochhammer(a, n: int) -> Fraction:
    if n < 0:
        raise DomainError("pochhammer needs n >= 0")
    a = rat(a)
    out = Fraction(1)
    for k in range(n):
        out *= a + k
    return out


def laguerre_poly(alpha, n: int) -> RPoly:
    """Built downward from c_n = (-1)^n / n! by
    c_k = -c_{k+1} (k+1) (alpha+k+1) / (n-k)."""
    if n < 0:
        raise DomainError("laguerre_poly needs n >= 0")
    alpha = rat(alpha)
    coeffs = [Fraction((-1) ** n, factorial(n))]
    for k in range(n - 1, -1, -1):
        coeffs.append(-coeffs[-1] * (k + 1) * (alpha + k + 1) / (n - k))
    return RPoly(coeffs[::-1])


def dual_hahn(k: int, x, gamma, delta, M: int) -> Fraction:
    if k < 0 or M < 0:
        raise DomainError("dual_hahn needs k, M >= 0")
    if k > M:
        raise DomainError(f"dual_hahn needs k <= M (got k={k}, M={M})")
    x, gamma, delta = rat(x), rat(gamma), rat(delta)
    total = Fraction(0)
    term = Fraction(1)
    for m in range(k + 1):
        total += term
        if m == k:
            break
        den = (gamma + 1 + m) * (-M + m) * (m + 1)
        if den == 0:
            raise DomainError("vanishing denominator Pochhammer in 3F2 sum")
        term *= (-k + m) * (-x + m) * (x + gamma + delta + 1 + m)
        term /= den
    return total


def dual_hahn_recurrence_step(s_k, s_km1, k: int, gamma, delta, M: int, x):
    """One step of the normalized recurrence x s_k = s_{k+1} - (u_k+v_k) s_k
    + u_{k-1} v_k s_{k-1}, solved for s_{k+1}.

    u_k = (k+gamma+1)(k-M), v_k = k(k-delta-M-1); seeds s_0 = 1, s_{-1} = 0.
    """
    x, gamma, delta = rat(x), rat(gamma), rat(delta)
    u = lambda j: (j + gamma + 1) * (j - M)
    v = lambda j: j * (j - delta - M - 1)
    return x * rat(s_k) + (u(k) + v(k)) * rat(s_k) - u(k - 1) * v(k) * rat(s_km1)


def dual_hahn_via_recurrence(k: int, x, gamma, delta, M: int) -> Fraction:
    if k > M:
        raise DomainError(f"dual_hahn needs k <= M (got k={k}, M={M})")
    lam = lambda_lattice(x, gamma, delta)
    s_km1, s_k = Fraction(0), Fraction(1)
    for j in range(k):
        s_km1, s_k = s_k, dual_hahn_recurrence_step(s_k, s_km1, j, gamma, delta, M, lam)
    norm = pochhammer(rat(gamma) + 1, k) * pochhammer(Fraction(-M), k)
    if norm == 0:
        raise DomainError("vanishing normalization in dual Hahn recurrence")
    return s_k / norm


def read_xi(seq) -> XiTable:
    """Each R entry divided by its Laguerre polynomial coefficient by
    coefficient, over Fractions."""
    spec = seq.spec
    table = XiTable(spec.N, seq.n_max)
    for n, r in enumerate(seq.R):
        for i in range(1, spec.N + 1):
            for j in range(1, spec.N + 1):
                p = r.entry(i - 1, j - 1)
                deg = n + i - j
                if deg < 0:
                    if not p.is_zero():
                        raise ClosedFormViolation(
                            f"R({n})[{i},{j}] nonzero below the degree pattern")
                    continue
                lag = laguerre_poly(spec.nu + j, deg)
                if p.is_zero():
                    table.values[n, i, j] = Fraction(0)
                    continue
                ratio = p.coeff(p.degree) / lag.coeff(p.degree) if p.degree == deg else None
                if ratio is None or ratio * lag != p:
                    raise ClosedFormViolation(
                        f"R({n})[{i},{j}] is not a multiple of L_{deg}^(nu+{j})")
                table.values[n, i, j] = ratio
    return table


def moment_sums(spec, offsets) -> list:
    """For each s in `offsets` (each >= -1) the matrix with 1-based entries
    sum_{r<=min(i,j)} delta_r c_{i,r} c_{j,r} (nu+1)_{s+i+j-r}, each term a
    Fraction product over the Fraction prefix list of (nu+1)_t."""
    offsets = list(offsets)
    n = spec.N
    c = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for r in range(1, n + 1):
        c[r][r] = Fraction(1)
        for i in range(r + 1, n + 1):
            c[i][r] = c[i - 1][r] * spec.a[i - 2] / (i - r)
    rising = [Fraction(1)]
    for k in range(max(offsets) + 2 * n - 1):
        rising.append(rising[-1] * (spec.nu + 1 + k))
    terms = {(i, j): [(spec.delta[r - 1] * c[i][r] * c[j][r], i + j - r)
                      for r in range(1, j + 1)]
             for i in range(1, n + 1) for j in range(1, i + 1)}
    out = []
    for s in offsets:
        rows = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), ij_terms in terms.items():
            v = sum((k * rising[s + e] for k, e in ij_terms), Fraction(0))
            rows[i - 1][j - 1] = rows[j - 1][i - 1] = v
        out.append(MatQ(rows))
    return out


def moment_row(p, moments: list, offsets) -> list:
    """<p, x^t I> for each t in `offsets`, entry by entry: entry (i, j) is
    sum_c sum_k p_c[i,k] m_{t+c}[k,j] over every coefficient, zero or not.
    `moments` is m_0, m_1, ... (from `moment_sums`)."""
    n = p.N
    out = []
    for t in offsets:
        rows = [[Fraction(0)] * n for _ in range(n)]
        for c, pc in enumerate(p.coeffs):
            m = moments[t + c]
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        rows[i][j] += pc[i, k] * m[k, j]
        out.append(MatQ(rows))
    return out


def pair_row(row: list, q, shift: int):
    """sum_b row[b+shift] q_b^T, entry by entry: entry (i, j) is
    sum_b sum_k row[b+shift][i,k] q_b[j,k]."""
    n = q.N
    rows = [[Fraction(0)] * n for _ in range(n)]
    for b, qb in enumerate(q.coeffs):
        block = row[b + shift]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    rows[i][j] += block[i, k] * qb[j, k]
    return MatQ(rows)


def three_term_residuals(seq) -> list[bool]:
    """For k < n_max, whether x P_k - (P_{k+1} + B_k P_k + C_k P_{k-1}) is
    the zero matrix polynomial."""
    out = []
    for k in range(seq.n_max):
        rhs = seq.P[k + 1] + MatPoly.const(seq.B[k]) * seq.P[k]
        if k >= 1:
            rhs = rhs + MatPoly.const(seq.C[k]) * seq.P[k - 1]
        out.append((seq.P[k].scale_x(1) - rhs).is_zero())
    return out
