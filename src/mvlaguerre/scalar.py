"""Exact rational scalars and the classical special functions the closed
forms are written in: Pochhammer symbols, generalized Laguerre polynomials,
and terminating dual Hahn polynomials evaluated as 3F2 sums.

All arithmetic is over `fractions.Fraction`; nothing here ever touches a
float.  Values are immutable and every function is pure.
"""

from __future__ import annotations

import re
from fractions import Fraction


class DomainError(ValueError):
    """A parameter outside the domain of an exact special-function formula."""


def rat(x) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to Fraction; a string with
    a zero denominator raises DomainError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass int, Fraction or 'p/q'")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise DomainError(f"zero denominator in {x!r}") from None


def rat_str(x: Fraction) -> str:
    """Serialize a rational as 'p/q', or 'p' when the denominator is 1."""
    return str(Fraction(x))


def pochhammer(a, n: int) -> Fraction:
    """Rising factorial (a)_n = a(a+1)...(a+n-1), with (a)_0 = 1."""
    if n < 0:
        raise DomainError("pochhammer needs n >= 0")
    a = rat(a)
    out = Fraction(1)
    for k in range(n):
        out *= a + k
    return out


def factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


class RPoly:
    """Univariate polynomial with Fraction coefficients, index = power of x.

    Canonical form: no trailing zero coefficients; the zero polynomial has an
    empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def zero() -> "RPoly":
        return RPoly()

    @staticmethod
    def one() -> "RPoly":
        return RPoly((1,))

    @staticmethod
    def x() -> "RPoly":
        return RPoly((0, 1))

    @staticmethod
    def monomial(k: int, c=1) -> "RPoly":
        return RPoly((0,) * k + (rat(c),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, RPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "RPoly") -> "RPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return RPoly([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other: "RPoly") -> "RPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return RPoly([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __neg__(self) -> "RPoly":
        return RPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, RPoly):
            if self.is_zero() or other.is_zero():
                return RPoly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return RPoly(out)
        return RPoly([c * rat(other) for c in self.coeffs])

    __rmul__ = __mul__

    def derivative(self) -> "RPoly":
        return RPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def __call__(self, x) -> Fraction:
        x = rat(x)
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __repr__(self):
        if self.is_zero():
            return "RPoly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(rat_str(c))
            elif k == 1:
                terms.append(f"{rat_str(c)}*x")
            else:
                terms.append(f"{rat_str(c)}*x^{k}")
        return "RPoly(" + " + ".join(terms) + ")"


def laguerre_poly(alpha, n: int) -> RPoly:
    """Generalized Laguerre polynomial L_n^(alpha) as an exact RPoly.

    Coefficient of x^k is c_k = (-1)^k (alpha+k+1)_{n-k} / ((n-k)! k!); the
    value at 0 is (alpha+1)_n / n!.  Built downward from c_n = (-1)^n / n!
    by c_k = -c_{k+1} (k+1) (alpha+k+1) / (n-k), which divides by nothing
    that depends on alpha, so negative integer alpha stays exact.
    """
    if n < 0:
        raise DomainError("laguerre_poly needs n >= 0")
    alpha = rat(alpha)
    coeffs = [Fraction((-1) ** n, factorial(n))]
    for k in range(n - 1, -1, -1):
        coeffs.append(-coeffs[-1] * (k + 1) * (alpha + k + 1) / (n - k))
    return RPoly(coeffs[::-1])


def laguerre_derivative(alpha, n: int) -> RPoly:
    """d/dx L_n^(alpha) in closed form, -L_{n-1}^(alpha+1); zero for n = 0."""
    if n == 0:
        return RPoly.zero()
    return -laguerre_poly(rat(alpha) + 1, n - 1)


def lambda_lattice(x, gamma, delta) -> Fraction:
    """Quadratic lattice lambda(x) = x(x + gamma + delta + 1)."""
    x, gamma, delta = rat(x), rat(gamma), rat(delta)
    return x * (x + gamma + delta + 1)


def dual_hahn(k: int, x, gamma, delta, M: int) -> Fraction:
    """Dual Hahn polynomial T_k(lambda(x); gamma, delta, M) by its
    terminating 3F2 sum at unit argument.

    The sum runs to m = k; requires k <= M so that the (-M)_m denominator
    factor never vanishes inside the range.
    """
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
    """T_k evaluated through the monic chain s_k and the normalization
    T_k = s_k(lambda(x)) / ((gamma+1)_k (-M)_k)."""
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


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?P<coeff>\d+(?:/\d+)?)?\s*\*?\s*
        (?P<var>x(?:\^(?P<pow>\d+))?)?\s*""",
    re.VERBOSE,
)


def parse_phi(text: str) -> RPoly:
    """Parse a sum-of-monomials expression like 'x^3 + 2x^2 - 1/2x + 3'.

    Grammar: optional sign, optional rational coefficient (p or p/q), optional
    x or x^k.  Anything else is a parse error.
    """
    s = text.strip()
    if not s:
        raise DomainError("empty polynomial expression")
    pos = 0
    terms = {}
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos or (m.group("coeff") is None and m.group("var") is None):
            raise DomainError(f"cannot parse polynomial near {s[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        coeff = rat(m.group("coeff")) if m.group("coeff") else Fraction(1)
        if m.group("var"):
            power = int(m.group("pow")) if m.group("pow") else 1
        else:
            power = 0
        terms[power] = terms.get(power, Fraction(0)) + sign * coeff
        pos = m.end()
    top = max(terms)
    return RPoly([terms.get(k, Fraction(0)) for k in range(top + 1)])
