"""Monic matrix-valued orthogonal polynomials by block Gram-Schmidt on the
moment table.  This is the oracle every closed form in the package is
checked against: orthogonalization uses nothing but the inner product.
The family it returns, `OPSeq`, also owns every per-degree object derived
from it (H_n^{-1}, H_n J H_n^{-1}, the coupling T_n, Gamma_n, K_n, K_n^{-1},
Q(x,n), R(x,n), G(n), I(n) and the xi table), each built at most once, on
first use.  Every sum of block products here (the projections, the inner
products, the moment rows of the orthogonality check) is fused into one
`MatQ.dot` with a single gcd pass; the canonical form is unique, so
regrouping a sum this way is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .matrices import MatPoly, MatQ, SingularMatrixError, build_K, exp_nilpotent
from .scalar import RPoly, rat
from .weights import MomentTable, WeightSpec, inner_product


def check(check_id: str, equation: str, ok, **extra) -> dict:
    """One verdict: {check_id, equation, pass, ...extra}.  Every suite in
    the package builds its checks with this."""
    return {"check_id": check_id, "equation": equation, "pass": bool(ok), **extra}


def _inverse_of_H(H, inverses: dict, m: int) -> MatQ:
    """H_m^{-1}, memoized in `inverses`; a singular H_m raises when its
    inverse is first needed."""
    if m not in inverses:
        try:
            inverses[m] = H[m].inverse()
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                f"singular H_{m}; parameters violate the weight invariants"
            ) from exc
    return inverses[m]


class OPSeq:
    """Computed family P_0..P_{n_max} and the matrices derived from it.

    From Gram-Schmidt, stored as tuples so nothing derived can go stale:
    P[n] the monic polynomials and H[n] their Gamma-normalized squared
    norms.  Read off them at construction: X[n] the one-but-leading
    coefficient (X[0] = 0), Y[n] the second-but-leading (Y[0] = Y[1] = 0),
    B[n] = X[n] - X[n+1] for n <= n_max-1 and C[n] = H[n] H[n-1]^{-1} for
    1 <= n <= n_max (C[0] is None).  `table` is the moment table the family
    was orthogonalized on; inner products of its polynomials are
    `weights.inner_product(p, q, seq.table)`.

    Computed on first use and kept, at most once per family, as tuples over
    n = 0..n_max:
    h_inv(n) = H_n^{-1} (the oracle hands over those it used);
    HJH[n] = H_n J H_n^{-1};
    T[n] = H_n (A^T - 1) H_{n-1}^{-1}, the down-shift coupling (T[0] is None);
    Gamma[n] = A(n+nu+1+J) - n - J, the second-order eigenvalue;
    K[n] and K_inv[n], the triangularizer K_n = exp(A(n+nu+1+J)) of Gamma_n
    and its inverse;
    Q[n] = P_n e^{xA} and R[n] = K_n^{-1} Q[n];
    G[n] = K_n^{-1} T[n] K_{n-1} (G[0] is None) and I[n] = K_n^{-1} HJH[n] K_n;
    xi, the XiTable read off R (laguerre_forms.extract_xi returns it).
    Everything from Gamma on is a closed form and never enters Gram-Schmidt.
    Two threads racing on first use compute the same exact value, so a
    family is safe to share.
    """

    def __init__(self, spec: WeightSpec, table: MomentTable, P, H,
                 h_inv: dict | None = None):
        self.spec = spec
        self.table = table
        self.P = tuple(P)
        self.H = tuple(H)
        self.n_max = n_max = len(self.P) - 1
        self._h_inv = dict(h_inv or {})
        zero = MatQ.zero(spec.N)
        self.X = tuple(p.coeff(deg - 1) if deg >= 1 else zero for deg, p in enumerate(self.P))
        self.Y = tuple(p.coeff(deg - 2) if deg >= 2 else zero for deg, p in enumerate(self.P))
        self.B = tuple(self.X[k] - self.X[k + 1] for k in range(n_max))
        self.C = (None,) + tuple(self.H[k] * self.h_inv(k - 1) for k in range(1, n_max + 1))

    def h_inv(self, n: int) -> MatQ:
        return _inverse_of_H(self.H, self._h_inv, n)

    @cached_property
    def HJH(self) -> tuple:
        J = self.spec.J
        return tuple(h * J * self.h_inv(n) for n, h in enumerate(self.H))

    @cached_property
    def T(self) -> tuple:
        at1 = self.spec.at1
        return (None,) + tuple(h * at1 * self.h_inv(n) for n, h in enumerate(self.H[1:]))

    @cached_property
    def Gamma(self) -> tuple:
        spec = self.spec
        A, J, i = spec.A, spec.J, MatQ.identity(spec.N)
        return tuple(A * (i * (n + spec.nu + 1) + J) - i * n - J
                     for n in range(self.n_max + 1))

    @cached_property
    def K(self) -> tuple:
        spec = self.spec
        return tuple(build_K(n, spec.nu, spec.A) for n in range(self.n_max + 1))

    @cached_property
    def K_inv(self) -> tuple:
        # K_n^{-1} = exp(-A(n+nu+1+J)) is K_n at -A
        spec = self.spec
        neg_A = -spec.A
        return tuple(build_K(n, spec.nu, neg_A) for n in range(self.n_max + 1))

    @cached_property
    def Q(self) -> tuple:
        ex = exp_nilpotent(self.spec.A, +1)
        return tuple(p * ex for p in self.P)

    @cached_property
    def R(self) -> tuple:
        return tuple(kinv * q for kinv, q in zip(self.K_inv, self.Q))

    @cached_property
    def G(self) -> tuple:
        return (None,) + tuple(kinv * t * k for kinv, t, k in
                               zip(self.K_inv[1:], self.T[1:], self.K))

    @cached_property
    def I(self) -> tuple:
        return tuple(kinv * hjh * k for kinv, hjh, k in zip(self.K_inv, self.HJH, self.K))

    @cached_property
    def xi(self):
        from .laguerre_forms import read_xi  # it builds on this module

        return read_xi(self)


def compute_monic_ops(spec: WeightSpec, n_max: int) -> OPSeq:
    """Gram-Schmidt the monomials x^n I against the moment inner product.

    P_n = x^n I - sum_{m<n} <x^n I, P_m> H_m^{-1} P_m, one fused sum
    (MatQ.dot) per coefficient.  Since P_n is orthogonal to every lower
    degree, H_n = <P_n, P_n> = <x^n I, P_n>, which costs one product per
    coefficient of P_n.  Each H_m^{-1} is computed once, when degree m+1
    first needs it, and handed to the family.
    """
    if not spec.phi_is_x():
        raise ValueError("orthogonalization requires phi(x) = x")
    table = MomentTable(spec, 2 * n_max + 2)
    n, i = spec.N, MatQ.identity(spec.N)
    P: list[MatPoly] = []
    H: list[MatQ] = []
    inverses: dict = {}
    for deg in range(n_max + 1):
        xn = MatPoly.monomial(deg, i)
        terms = [[] for _ in range(deg)]
        for m in range(deg):
            coef = inner_product(xn, P[m], table) * _inverse_of_H(H, inverses, m)
            for k, c in enumerate(P[m].coeffs):
                terms[k].append((coef, c))
        P.append(MatPoly([-MatQ.dot(t, n) for t in terms] + [i], n))
        H.append(inner_product(xn, P[-1], table))
    return OPSeq(spec, table, P, H, inverses)


def scalar_laguerre_monic(alpha, n_max: int):
    """Independent scalar reference: monic Laguerre polynomials for weight
    x^alpha e^{-x} via the classical recurrence

        P_{n+1} = (x - B_n) P_n - C_n P_{n-1},
        B_n = 2n + alpha + 1,   C_n = n (n + alpha).

    Returns (P, B, C) with P as RPoly.
    """
    alpha = rat(alpha)
    B = [2 * n + alpha + 1 for n in range(n_max + 1)]
    C = [Fraction(n) * (n + alpha) for n in range(n_max + 1)]
    P = [RPoly.one()]
    if n_max >= 1:
        P.append(RPoly.x() - RPoly((B[0],)))
    for n in range(1, n_max):
        P.append((RPoly.x() - RPoly((B[n],))) * P[n] - C[n] * P[n - 1])
    return P, B, C


def verify_three_term(seq: OPSeq) -> list[dict]:
    """Exact residual checks for the three-term recurrence and the
    second-coefficient recursion."""
    checks = []
    for k in range(seq.n_max):
        lhs = seq.P[k].scale_x(1)
        rhs = seq.P[k + 1] + MatPoly.const(seq.B[k]) * seq.P[k]
        if k >= 1:
            rhs = rhs + MatPoly.const(seq.C[k]) * seq.P[k - 1]
        checks.append(check(f"three-term n={k}", "three-term-recurrence",
                            (lhs - rhs).is_zero()))
    for k in range(2, seq.n_max):
        ok = seq.Y[k] == seq.Y[k + 1] + seq.B[k] * seq.X[k] + seq.C[k]
        checks.append(check(f"Y-recursion n={k}", "second-coefficient-recursion", ok))
    return checks


def moment_row(p: MatPoly, table: MomentTable) -> list[MatQ]:
    """L[b] = <p, x^b I> = sum_a p_a m_{a+b} for 0 <= b <= deg p, one
    fused sum each."""
    n = table.spec.N
    return [MatQ.dot([(pa, table[a + b]) for a, pa in enumerate(p.coeffs)], n)
            for b in range(len(p.coeffs))]


def verify_orthogonality(seq: OPSeq) -> list[dict]:
    """<P_i, P_j> = delta_ij H_i exactly for every pair j < i, positive
    definiteness of every H_i by minors, and C_i for 1 <= i <= n_max
    against <x P_i, P_{i-1}> = C_i H_{i-1} (the three-term recurrence),
    not against the H_i H_{i-1}^{-1} it is built from.  Both products are
    read off the moment row L_i of one degree at a time:
    <P_i, x^s P_j> = sum_b L_i[b+s] P_{j,b}^T, O(n^3) block products for
    the triangle instead of O(n^4).  No row outlives its degree."""
    n = seq.spec.N
    transposed = [[c.transpose() for c in p.coeffs] for p in seq.P]
    checks = []
    for i, p in enumerate(seq.P):
        row = moment_row(p, seq.table)
        for j in range(i):
            ip = MatQ.dot(list(zip(row, transposed[j])), n)
            checks.append(check(f"orthogonality n={i},m={j}", "orthogonality", ip.is_zero()))
        checks.append(check(f"H-posdef n={i}", "orthogonality",
                            seq.H[i].is_positive_definite()))
        if i >= 1:
            ip = MatQ.dot(list(zip(row[1:], transposed[i - 1])), n)
            checks.append(check(f"C-ratio n={i}", "recurrence-coefficients",
                                seq.C[i] * seq.H[i - 1] == ip))
    return checks
