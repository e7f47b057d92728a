"""Monic matrix-valued orthogonal polynomials by block Gram-Schmidt on the
moment table.  This is the oracle every closed form in the package is
checked against: orthogonalization uses nothing but the inner product.
"""

from __future__ import annotations

from fractions import Fraction

from .matrices import MatPoly, MatQ, SingularMatrixError
from .scalar import RPoly, rat
from .weights import MomentTable, WeightSpec, inner_product


def check(check_id: str, equation: str, ok, **extra) -> dict:
    """One verdict: {check_id, equation, pass, ...extra}.  Every suite in
    the package builds its checks with this."""
    return {"check_id": check_id, "equation": equation, "pass": bool(ok), **extra}


class OPSeq:
    """Computed family P_0..P_{n_max} with squared norms and recurrence data.

    H[n] is the Gamma-normalized squared norm, X[n] the one-but-leading
    coefficient (X[0] = 0), Y[n] the second-but-leading (Y[0] = Y[1] = 0).
    B[n] is defined for n <= n_max-1, C[n] for 1 <= n <= n_max.
    """

    def __init__(self, spec: WeightSpec, n_max: int, table: MomentTable,
                 P, H, X, Y, B, C):
        self.spec = spec
        self.n_max = n_max
        self.table = table
        self.P = P
        self.H = H
        self.X = X
        self.Y = Y
        self.B = B
        self.C = C

    def ip(self, p: MatPoly, q: MatPoly) -> MatQ:
        return inner_product(p, q, self.table)


def compute_monic_ops(spec: WeightSpec, n_max: int, depth: int | None = None,
                      projection_order=None) -> OPSeq:
    """Gram-Schmidt the monomials x^n I against the moment inner product.

    P_n = x^n I - sum_{m<n} <x^n I, P_m> H_m^{-1} P_m.  `projection_order`
    permutes the subtraction order (the result must not change; used by the
    uniqueness test).  Since P_n is orthogonal to every lower degree,
    H_n = <P_n, P_n> = <x^n I, P_n>, which costs one product per
    coefficient of P_n.  Each H_m^{-1} is computed once, when degree m+1
    first needs it.
    """
    if not spec.phi_is_x():
        raise ValueError("orthogonalization requires phi(x) = x")
    if depth is None:
        depth = 2 * n_max + 2
    table = MomentTable(spec, depth)
    n = spec.N
    P: list[MatPoly] = []
    H: list[MatQ] = []
    H_inv: list[MatQ | None] = []

    def inverse_of_H(m: int) -> MatQ:
        if H_inv[m] is None:
            try:
                H_inv[m] = H[m].inverse()
            except SingularMatrixError as exc:
                raise SingularMatrixError(
                    f"singular H_{m}; parameters violate the weight invariants"
                ) from exc
        return H_inv[m]

    for deg in range(n_max + 1):
        xn = MatPoly.monomial(deg, MatQ.identity(n))
        p = xn
        order = list(range(deg)) if projection_order is None else projection_order(deg)
        for m in order:
            coef = inner_product(xn, P[m], table) * inverse_of_H(m)
            p = p - MatPoly.const(coef) * P[m]
        P.append(p)
        H.append(inner_product(xn, p, table))
        H_inv.append(None)
    X = [p.coeff(deg - 1) if deg >= 1 else MatQ.zero(n) for deg, p in enumerate(P)]
    Y = [p.coeff(deg - 2) if deg >= 2 else MatQ.zero(n) for deg, p in enumerate(P)]
    B = [X[k] - X[k + 1] for k in range(n_max)]
    C = [None] + [H[k] * inverse_of_H(k - 1) for k in range(1, n_max + 1)]
    return OPSeq(spec, n_max, table, P, H, X, Y, B, C)


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
    """Exact residual checks for the three-term recurrence, the B/C
    formulas, and the second-coefficient recursion."""
    checks = []
    n = seq.spec.N
    xI = MatPoly.x_identity(n)
    for k in range(seq.n_max):
        lhs = xI * seq.P[k]
        rhs = seq.P[k + 1] + MatPoly.const(seq.B[k]) * seq.P[k]
        if k >= 1:
            rhs = rhs + MatPoly.const(seq.C[k]) * seq.P[k - 1]
        checks.append(check(f"three-term n={k}", "three-term-recurrence",
                            (lhs - rhs).is_zero()))
    for k in range(1, seq.n_max + 1):
        ok = seq.C[k] == seq.H[k] * seq.H[k - 1].inverse()
        checks.append(check(f"C-ratio n={k}", "recurrence-coefficients", ok))
    for k in range(2, seq.n_max):
        ok = seq.Y[k] == seq.Y[k + 1] + seq.B[k] * seq.X[k] + seq.C[k]
        checks.append(check(f"Y-recursion n={k}", "second-coefficient-recursion", ok))
    return checks


def verify_orthogonality(seq: OPSeq) -> list[dict]:
    """<P_n, P_m> = delta_nm H_n exactly, plus positive definiteness of
    every H_n by leading minors."""
    checks = []
    for i in range(seq.n_max + 1):
        for j in range(i):
            ok = seq.ip(seq.P[i], seq.P[j]).is_zero()
            checks.append(check(f"orthogonality n={i},m={j}", "orthogonality", ok))
        checks.append(check(f"H-posdef n={i}", "orthogonality",
                            seq.H[i].is_positive_definite()))
    return checks
