"""Exact rational scalars and the classical special functions the closed
forms are written in: Pochhammer symbols, generalized Laguerre polynomials,
and terminating dual Hahn polynomials evaluated as 3F2 sums.

Each closed form brings its rational arguments over one common
denominator and runs its loop on integer numerators, building one
`fractions.Fraction` per result (per coefficient, for a polynomial) at the
end; nothing here ever touches a float.  Values are immutable and every
function is pure.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, factorial, lcm


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
    """Rising factorial (a)_n = a(a+1)...(a+n-1), with (a)_0 = 1: for
    a = p/q, the integer product (p)(p+q)...(p+(n-1)q) over q^n."""
    if n < 0:
        raise DomainError("pochhammer needs n >= 0")
    a = rat(a)
    p, q = a.numerator, a.denominator
    out = 1
    for k in range(n):
        out *= p + k * q
    return Fraction(out, q ** n)


def _common(*values) -> tuple:
    """Integer numerators of Fractions over their least common denominator
    Q, followed by Q."""
    q = lcm(*(v.denominator for v in values))
    return (*(v.numerator * (q // v.denominator) for v in values), q)


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


def laguerre_numerators(alpha, n: int) -> tuple:
    """Integer numerators (l_0, ..., l_n) and the denominator q^n n! of the
    generalized Laguerre polynomial L_n^(alpha), alpha = p/q:

        L_n^(alpha)(x) = sum_k l_k x^k / (q^n n!),
        l_k = (-1)^k C(n,k) q^k prod_{m=k+1..n} (p + m q),

    which is c_k = (-1)^k (alpha+k+1)_{n-k} / ((n-k)! k!) over one
    denominator.  Nothing divides by a quantity that depends on alpha, so
    negative integer alpha stays exact; l_n = (-q)^n never vanishes."""
    if n < 0:
        raise DomainError("laguerre_poly needs n >= 0")
    alpha = rat(alpha)
    p, q = alpha.numerator, alpha.denominator
    nums = []
    prod = 1  # prod_{m=k+1..n} (p + m q), built downward from k = n
    for k in range(n, -1, -1):
        nums.append((-1) ** k * comb(n, k) * q ** k * prod)
        prod *= p + k * q
    return tuple(nums[::-1]), q ** n * factorial(n)


def laguerre_poly(alpha, n: int) -> RPoly:
    """Generalized Laguerre polynomial L_n^(alpha) as an exact RPoly over
    the numerators of `laguerre_numerators`; the value at 0 is
    (alpha+1)_n / n!."""
    nums, den = laguerre_numerators(alpha, n)
    return RPoly([Fraction(v, den) for v in nums])


def lambda_lattice(x, gamma, delta) -> Fraction:
    """Quadratic lattice lambda(x) = x(x + gamma + delta + 1)."""
    x, gamma, delta = rat(x), rat(gamma), rat(delta)
    return x * (x + gamma + delta + 1)


def dual_hahn(k: int, x, gamma, delta, M: int) -> Fraction:
    """Dual Hahn polynomial T_k(lambda(x); gamma, delta, M) by its
    terminating 3F2 sum at unit argument.

    The sum runs to m = k; requires k <= M so that the (-M)_m denominator
    factor never vanishes inside the range.  With x, gamma, delta over one
    denominator Q, the ratio of consecutive terms is u_m / den_m with

        u_m   = (m-k) (mQ - X) (X + G + D + (m+1)Q),
        den_m = Q (G + (m+1)Q) (m-M) (m+1),

    and the partial sum s/v and the current term t/v share the integer
    denominator v: s <- s den_m + t u_m, t <- t u_m, v <- v den_m.
    """
    if k < 0 or M < 0:
        raise DomainError("dual_hahn needs k, M >= 0")
    if k > M:
        raise DomainError(f"dual_hahn needs k <= M (got k={k}, M={M})")
    X, G, D, Q = _common(rat(x), rat(gamma), rat(delta))
    top = X + G + D + Q
    s, t, v = 1, 1, 1  # after the m = 0 term
    for m in range(k):
        den = Q * (G + (m + 1) * Q) * (m - M) * (m + 1)
        if den == 0:
            raise DomainError("vanishing denominator Pochhammer in 3F2 sum")
        t *= (m - k) * (m * Q - X) * (top + m * Q)
        s = s * den + t
        v *= den
    return Fraction(s, v)


def dual_hahn_via_recurrence(k: int, x, gamma, delta, M: int) -> Fraction:
    """T_k evaluated through the monic chain s_k of the normalized
    recurrence y s_k = s_{k+1} - (u_k+v_k) s_k + u_{k-1} v_k s_{k-1} at
    y = lambda(x), with u_k = (k+gamma+1)(k-M), v_k = k(k-delta-M-1) and
    seeds s_0 = 1, s_{-1} = 0, and the normalization
    T_k = s_k(lambda(x)) / ((gamma+1)_k (-M)_k).

    With x, gamma, delta over one denominator Q, Q^2 lambda, Q u_j and Q v_j
    are integers, and so is S_j = Q^{2j} s_j:

        S_{j+1} = (Q^2 lambda + Q (Q u_j + Q v_j)) S_j
                  - Q^2 (Q u_{j-1}) (Q v_j) S_{j-1},

    and the normalization is prod_{m<k} (Q u_m) / Q^k.
    """
    if k > M:
        raise DomainError(f"dual_hahn needs k <= M (got k={k}, M={M})")
    X, G, D, Q = _common(rat(x), rat(gamma), rat(delta))
    if k < 0:  # the normalization (gamma+1)_k is undefined
        raise DomainError("pochhammer needs n >= 0")
    q2 = Q * Q
    lam = X * (X + G + D + Q)
    s_km1, s_k = 0, 1
    norm = 1
    for j in range(k):
        qu = (G + (j + 1) * Q) * (j - M)  # Q u_j
        qv = j * (j * Q - D - (M + 1) * Q)  # Q v_j
        qu_prev = (G + j * Q) * (j - 1 - M)  # Q u_{j-1}
        s_km1, s_k = s_k, (lam + Q * (qu + qv)) * s_k - q2 * qu_prev * qv * s_km1
        norm *= qu
    if norm == 0:
        raise DomainError("vanishing normalization in dual Hahn recurrence")
    return Fraction(s_k, Q ** k * norm)


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:(?P<coeff>\d+(?:/\d+)?)\s*(?P<star>\*)?\s*)?
        (?P<var>x(?:\^(?P<pow>\d+))?)?\s*""",
    re.VERBOSE,
)


def parse_phi(text: str) -> RPoly:
    """Parse a sum-of-monomials expression like 'x^3 + 2x^2 - 1/2x + 3'.

    Grammar: optional sign, optional rational coefficient (p or p/q), optional
    x or x^k.  Every term after the first starts with its sign, and a `*`
    stands between a coefficient and x.  Anything else is a parse error.
    """
    s = text.strip()
    if not s:
        raise DomainError("empty polynomial expression")
    pos = 0
    terms = {}
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if (not m or m.end() == pos or (m.group("coeff") is None and m.group("var") is None)
                or (pos and not m.group("sign")) or (m.group("star") and not m.group("var"))):
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
