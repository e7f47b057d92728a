"""Weight specification and exact Gamma-normalized moment tables.

The weight on [0, infinity) is

    W(x) = e^{xA} T(x) e^{xA^T},   T(x) = e^{-x} sum_k delta_k x^{nu+k} E_kk,

with A strictly lower bidiagonal.  The spec owns this form: `spec.weight`
is W and `spec.diagonal_weight` is T, each an x^nu e^{-x} (matrix
polynomial) `ScaledMat`, and `spec.exp_xA`, `spec.exp_neg_xA` are e^{+-xA},
each built once per spec, on first use.  Dividing every moment by Gamma(nu+1)
makes the whole table rational:

    m_s[i,j] = sum_{r<=min(i,j)} delta_r c_{i,r} c_{j,r} (nu+1)_{s+i+j-r}

where c_{i,r} = (A^{i-r})_{i,r} / (i-r)! (1-based indices throughout the
formulas; storage is 0-based).  The table is built on integer numerators:
with nu = p/q, (nu+1)_t = R_t / q^t for the integers R_0 = 1,
R_{t+1} = R_t (p + q(t+1)); the s-independent weights delta_r c_{i,r} c_{j,r}
are written k_{ijr} / W over one common denominator W, and, with
e = i+j-r in 1..2N-1,

    m_s[i,j] = sum_r k_{ijr} q^{2N-1-e} R_{s+e} / (W q^{s+2N-1}),

one integer sum per entry and one gcd pass per matrix.

The inner product <P, Q> = integral of P W Q^T / Gamma(nu+1) is summed here
only: `moment_row` gives <p, x^t I> = sum_c p_c m_{t+c}, and `pair_row`
pairs such a row with q; no other module sums over moment indices.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm

from .matrices import MatPoly, MatQ, build_A, build_J, exp_nilpotent
from .scalar import DomainError, RPoly, pochhammer, rat


class UnsupportedWeightError(ValueError):
    """Moment computation is only exact for phi(x) = x."""


class Frozen:
    """An immutable value: compared, hashed and shown by the fields that
    `_fields` names, which `__init__` stores once in the instance dict.
    `cached_property` also writes there directly, so it still caches."""

    _fields: tuple = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ScaledMat:
    """x^s e^{-x} B(x) for a rational power s and a matrix polynomial B;
    closed under d/dx and under one-sided multiplication by matrix
    polynomials, which is what the symmetry equations need.  It is zero
    exactly when B is, so every identity between such terms is an exact
    identity between matrix polynomials."""

    __slots__ = ("s", "body")

    def __init__(self, s, body: MatPoly):
        self.s = rat(s)
        self.body = body

    def dx(self) -> "ScaledMat":
        """d/dx (x^s e^{-x} B) = x^{s-1} e^{-x} (s B + x (B' - B))."""
        b = self.body
        return ScaledMat(self.s - 1, b * self.s + (b.derivative() - b).scale_x(1))

    def lmul(self, f: MatPoly) -> "ScaledMat":
        return ScaledMat(self.s, f * self.body)

    def rmul(self, f: MatPoly) -> "ScaledMat":
        return ScaledMat(self.s, self.body * f)

    def transpose(self) -> "ScaledMat":
        return ScaledMat(self.s, self.body.transpose())

    def _aligned(self, other: "ScaledMat"):
        """Both bodies over the lower of the two powers of x."""
        gap = self.s - other.s
        if gap.denominator != 1:
            raise ValueError(f"powers x^{self.s} and x^{other.s} differ by a non-integer")
        if gap >= 0:
            return other.s, self.body.scale_x(int(gap)), other.body
        return self.s, self.body, other.body.scale_x(int(-gap))

    def __add__(self, other: "ScaledMat") -> "ScaledMat":
        s, a, b = self._aligned(other)
        return ScaledMat(s, a + b)

    def __sub__(self, other: "ScaledMat") -> "ScaledMat":
        s, a, b = self._aligned(other)
        return ScaledMat(s, a - b)

    def scale(self, c) -> "ScaledMat":
        return ScaledMat(self.s, self.body * rat(c))

    def is_zero(self) -> bool:
        return self.body.is_zero()


class WeightSpec(Frozen):
    """The weight's parameters: size N, exponent nu, the subdiagonal a of A,
    the diagonal weights delta and the exponent phi of e^{-phi}.  A variant
    is a new spec, built with the constructor."""

    _fields = ("N", "nu", "a", "delta", "phi")

    def __init__(self, N: int, nu, a, delta, phi: RPoly = RPoly.x()):
        nu, a, delta = rat(nu), tuple(rat(v) for v in a), tuple(rat(v) for v in delta)
        if N < 1:
            raise ValueError("N must be >= 1")
        if nu <= 0:
            raise ValueError("nu must be > 0")
        if len(a) != N - 1:
            raise ValueError("need N-1 subdiagonal entries a_k")
        if any(v == 0 for v in a):
            raise ValueError("a_k must be nonzero")
        if len(delta) != N:
            raise ValueError("need N diagonal weights delta_k")
        if any(v <= 0 for v in delta):
            raise ValueError("delta_k must be positive")
        self.__dict__.update(N=N, nu=nu, a=a, delta=delta, phi=phi)

    # built once per spec
    @cached_property
    def A(self) -> MatQ:
        return build_A(self.a)

    @cached_property
    def J(self) -> MatQ:
        return build_J(self.N)

    # A - 1, A^T - 1, their inverses and (A - 1)^{-2}, for the operators and
    # the norm recursions
    @cached_property
    def am1(self) -> MatQ:
        return self.A - MatQ.identity(self.N)

    @cached_property
    def at1(self) -> MatQ:
        return self.A.transpose() - MatQ.identity(self.N)

    @cached_property
    def am1_inv(self) -> MatQ:
        return self.am1.inverse()

    @cached_property
    def am1_inv_sq(self) -> MatQ:
        """(A - 1)^{-2}."""
        return self.am1_inv * self.am1_inv

    @cached_property
    def at1_inv(self) -> MatQ:
        return self.at1.inverse()

    # the weight of phi(x) = x and its factors
    @cached_property
    def exp_xA(self) -> MatPoly:
        return exp_nilpotent(self.A)

    @cached_property
    def exp_neg_xA(self) -> MatPoly:
        return exp_nilpotent(-self.A)

    @cached_property
    def diagonal_weight(self) -> ScaledMat:
        """T(x) = x^nu e^{-x} sum_k delta_k x^k E_kk (1-based k), its body
        written coefficient by coefficient."""
        n = self.N
        return ScaledMat(self.nu, MatPoly(
            [MatQ.zero(n)]
            + [MatQ.diag([self.delta[k] if k == m else 0 for k in range(n)]) for m in range(n)],
            n))

    @cached_property
    def weight(self) -> ScaledMat:
        """W(x) = e^{xA} T(x) e^{xA^T}, the body e^{xA} diag(delta_k x^k) e^{xA^T}."""
        left = self.exp_xA
        return ScaledMat(self.nu, left * self.diagonal_weight.body * left.transpose())

    def phi_is_x(self) -> bool:
        return self.phi == RPoly.x()

    def to_dict(self) -> dict:
        from .scalar import rat_str

        return {
            "N": self.N,
            "nu": rat_str(self.nu),
            "a": [rat_str(v) for v in self.a],
            "delta": [rat_str(v) for v in self.delta],
        }


def _moment_sums(spec: WeightSpec, offsets) -> list[MatQ]:
    """For each s in `offsets` the symmetric matrix with 1-based entries

        sum_{r<=min(i,j)} delta_r c_{i,r} c_{j,r} (nu+1)_{s+i+j-r},

    c_{i,r} = prod_{k=r}^{i-1} a_k / (i-r)!, summed on the integer
    numerators of the module docstring: the weights, the R_t and the
    powers of q are built once for all offsets, and each m_s is one MatQ
    with one gcd pass.  Every offset must be >= -1, so that no index
    s+i+j-r is negative."""
    if not spec.phi_is_x():
        raise UnsupportedWeightError("moments require phi(x) = x")
    offsets = list(offsets)
    n = spec.N
    c = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for r in range(1, n + 1):
        c[r][r] = Fraction(1)
        for i in range(r + 1, n + 1):
            c[i][r] = c[i - 1][r] * spec.a[i - 2] / (i - r)
    ratios = {(i, j): [(spec.delta[r - 1] * c[i][r] * c[j][r], i + j - r)
                       for r in range(1, j + 1)]
              for i in range(1, n + 1) for j in range(1, i + 1)}
    w = lcm(*(k.denominator for terms in ratios.values() for k, _ in terms))
    p, q = spec.nu.numerator, spec.nu.denominator
    top = 2 * n - 1
    terms = {ij: [(k.numerator * (w // k.denominator) * q ** (top - e), e) for k, e in ij_terms]
             for ij, ij_terms in ratios.items()}
    rising = [1]
    for t in range(max(offsets) + top):
        rising.append(rising[-1] * (p + q * (t + 1)))
    out = []
    for s in offsets:
        rows = [[0] * n for _ in range(n)]
        for (i, j), ij_terms in terms.items():
            rows[i - 1][j - 1] = rows[j - 1][i - 1] = sum(k * rising[s + e] for k, e in ij_terms)
        out.append(MatQ._canonical(rows, w * q ** (s + top)))
    return out


def moment(spec: WeightSpec, s: int) -> MatQ:
    """Normalized moment m_s = integral of x^s W(x) dx / Gamma(nu+1)."""
    if s < 0:
        raise DomainError("moment index s must be >= 0")
    return _moment_sums(spec, [s])[0]


def moment_via_expansion(spec: WeightSpec, s: int) -> MatQ:
    """Independent moment path: expand e^{xA} T_pol(x) e^{xA^T} entrywise as
    a polynomial and integrate monomials against e^{-x} x^nu by Gamma ratios.
    Used as the oracle's oracle; must agree with `moment` exactly."""
    if not spec.phi_is_x():
        raise UnsupportedWeightError("moments require phi(x) = x")
    body = spec.weight.body
    n = spec.N
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            p = body.entry(i, j)
            row.append(sum(
                (c * pochhammer(spec.nu + 1, s + m) for m, c in enumerate(p.coeffs)),
                Fraction(0),
            ))
        rows.append(row)
    return MatQ(rows)


class MomentTable:
    """Read-only table m_0..m_depth for one WeightSpec."""

    def __init__(self, spec: WeightSpec, depth: int):
        if depth < 0:
            raise ValueError(f"moment table depth must be >= 0 (got depth={depth})")
        self.spec = spec
        self.depth = depth
        self.moments = _moment_sums(spec, range(depth + 1))

    def __getitem__(self, s: int) -> MatQ:
        """m_s; an index outside 0..depth raises (a negative one would
        otherwise read a deep moment off the end of the list)."""
        if not 0 <= s <= self.depth:
            raise IndexError(f"moment index {s} outside the table's 0..{self.depth}")
        return self.moments[s]


def moment_row(p: MatPoly, table: MomentTable, offsets) -> list[MatQ]:
    """<p, x^t I> = sum_c p_c m_{t+c} for each t in `offsets`, in their
    order, one fused sum (MatQ.dot) each.  A zero coefficient of p makes no
    term."""
    n = table.spec.N
    coeffs = [(c, pc) for c, pc in enumerate(p.coeffs) if not pc.is_zero()]
    return [MatQ.dot([(pc, table[t + c]) for c, pc in coeffs], n) for t in offsets]


def pair_row(row: list, q: MatPoly, shift: int) -> MatQ:
    """<p, x^shift q> = sum_b row[b+shift] q_b^T, one fused sum, from the
    moment row row[t] = <p, x^t I> of `moment_row` at offsets 0, 1, ...
    A zero block of the row makes no term, and q_b is transposed only where
    it meets a nonzero block.  The row must reach offset deg q + shift."""
    return MatQ.dot([(row[b + shift], qb.transpose()) for b, qb in enumerate(q.coeffs)
                     if not row[b + shift].is_zero()], q.N)


def inner_product(p: MatPoly, q: MatPoly, table: MomentTable) -> MatQ:
    """<P, Q> = sum_b <P, x^b I> Q_b^T, exactly: the moment row of P at
    offsets 0..deg Q, paired with Q."""
    return pair_row(moment_row(p, table, range(len(q.coeffs))), q, 0)


def h0_as_displayed(spec: WeightSpec) -> MatQ:
    """H_0 / Gamma(nu+1) evaluated with the Pochhammer index (nu)_{i+j-r}
    exactly as commonly quoted, for the index-discrepancy probe.  Dividing
    the printed Gamma(nu)-normalized value by Gamma(nu+1) turns
    (nu)_m Gamma(nu) into (nu)_m / nu = (nu+1)_{m-1}: the moment sum at
    offset s = -1."""
    return _moment_sums(spec, [-1])[0]

