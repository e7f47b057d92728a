"""Weight specification and exact Gamma-normalized moment tables.

The weight on [0, infinity) is

    W(x) = e^{xA} T(x) e^{xA^T},   T(x) = e^{-x} sum_k delta_k x^{nu+k} E_kk,

with A strictly lower bidiagonal.  Dividing every moment by Gamma(nu+1)
makes the whole table rational:

    m_s[i,j] = sum_{r<=min(i,j)} delta_r c_{i,r} c_{j,r} (nu+1)_{s+i+j-r}

where c_{i,r} = (A^{i-r})_{i,r} / (i-r)! (1-based indices throughout the
formulas; storage is 0-based).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

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

    # A^T - 1 and the inverses of A - 1 and A^T - 1, for the norm recursions
    @cached_property
    def at1(self) -> MatQ:
        return self.A.transpose() - MatQ.identity(self.N)

    @cached_property
    def am1_inv(self) -> MatQ:
        return (self.A - MatQ.identity(self.N)).inverse()

    @cached_property
    def at1_inv(self) -> MatQ:
        return self.at1.inverse()

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

    c_{i,r} = prod_{k=r}^{i-1} a_k / (i-r)!.  The c table and the prefix
    list (nu+1)_0, (nu+1)_1, ... are built once for all offsets; every
    offset must be >= -1, so that no index is negative."""
    if not spec.phi_is_x():
        raise UnsupportedWeightError("moments require phi(x) = x")
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
    # delta_r c_{i,r} c_{j,r} and the index i+j-r do not depend on s
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
    body = weight_polynomial_part(spec)
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


def weight_polynomial_part(spec: WeightSpec) -> MatPoly:
    """The matrix polynomial G(x) with W(x) = e^{-x} x^nu G(x):
    G = e^{xA} diag(delta_k x^k) e^{xA^T}."""
    left = exp_nilpotent(spec.A, +1)
    return left * diagonal_part(spec) * left.transpose()


def diagonal_part(spec: WeightSpec) -> MatPoly:
    """The diagonal factor sum_k delta_k x^k E_kk (1-based k) of the weight
    body, written coefficient by coefficient."""
    n = spec.N
    return MatPoly(
        [MatQ.zero(n)]
        + [MatQ.diag([spec.delta[k] if k == m else 0 for k in range(n)]) for m in range(n)],
        n,
    )


class MomentTable:
    """Read-only table m_0..m_depth for one WeightSpec."""

    def __init__(self, spec: WeightSpec, depth: int):
        self.spec = spec
        self.depth = depth
        self.moments = _moment_sums(spec, range(depth + 1))

    def __getitem__(self, s: int) -> MatQ:
        if s > self.depth:
            raise IndexError(f"moment table depth {self.depth} < {s}")
        return self.moments[s]


def inner_product(p: MatPoly, q: MatPoly, table: MomentTable) -> MatQ:
    """<P, Q> = sum_a P_a (sum_b m_{a+b} Q_b^T), exactly.  Both sums are
    fused (MatQ.dot, one gcd pass each); regrouping them is exact."""
    n = table.spec.N
    qt = [(b, qb.transpose()) for b, qb in enumerate(q.coeffs) if not qb.is_zero()]
    return MatQ.dot([(pa, MatQ.dot([(table[a + b], qb) for b, qb in qt], n))
                     for a, pa in enumerate(p.coeffs) if not pa.is_zero()], n)


def h0_as_displayed(spec: WeightSpec) -> MatQ:
    """H_0 / Gamma(nu+1) evaluated with the Pochhammer index (nu)_{i+j-r}
    exactly as commonly quoted, for the index-discrepancy probe.  Dividing
    the printed Gamma(nu)-normalized value by Gamma(nu+1) turns
    (nu)_m Gamma(nu) into (nu)_m / nu = (nu+1)_{m-1}: the moment sum at
    offset s = -1."""
    return _moment_sums(spec, [-1])[0]


def h0_index_corrected(spec: WeightSpec) -> MatQ:
    """Same formula with the index raised by one, (nu)_{i+j-r+1}; this is the
    variant the direct integral produces.  (nu)_{m+1} / nu = (nu+1)_m, so
    it is the moment sum at offset s = 0."""
    return _moment_sums(spec, [0])[0]
