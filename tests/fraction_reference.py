"""Fraction-by-Fraction reference versions of the scalar closed forms and of
`read_xi`: every step is one `fractions.Fraction` operation, the way they
read before the package moved them onto integer numerators.  The exactness
tests require the package to give the same values, and to raise
`DomainError` or `ClosedFormViolation` on the same inputs."""

from fractions import Fraction
from math import factorial

from mvlaguerre.laguerre_forms import ClosedFormViolation, XiTable
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
