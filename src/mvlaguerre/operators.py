"""Differential operators acting from the right, difference operators acting
from the left, the dagger adjoint, the named operators of the Laguerre-type
weight, and the identity suites connecting them.

Conventions.  A differential operator D = sum_j d^j F_j(x) acts on a matrix
polynomial Q by (Q . D) = sum_j (d^j Q) F_j; coefficients multiply on the
right.  Composition follows the right action: Q . (D1 D2) = ((Q . D1) . D2).
A difference operator M = sum_j A_j(n) delta^j acts on a sequence by
(M . P)(n) = sum_j A_j(n) P(n+j), with sequences vanishing at negative
indices.  A difference operator is its shifts and a coefficient function
over the window n = 0..n_max, each coefficient formed once, where first
read.

Operators combine by composition and sums: conjugation by e^{xA} is
e^{-xA} D e^{xA}, and the dagger is H M^* H^{-1}.  A difference coefficient
at shift j with n + j < 0 multiplies a vanishing sequence value: it reads
as an exact zero.  One the family cannot form (B_{n_max}, or any n outside
the window) raises WindowError when read.

The identity suites form each product once: the adjoint kernels grouped by
moment offset on the moment rows of `weights.moment_row`
(`adjoint_kernels`), the symmetry equations from one F_k W per
coefficient (`symmetry_residuals`), and the J-brackets entry by entry
(`matrices.J_commutator`).
"""

from __future__ import annotations

import math
from functools import cache

from .engine import OPSeq, check, quoted_check
from .matrices import J_commutator, MatPoly, MatQ, commutator
from .scalar import RPoly
from .weights import MomentTable, ScaledMat, WeightSpec, moment_row


class WindowError(IndexError):
    """A difference-operator coefficient or image the finite n-window of the
    family cannot form."""


class DiffOp:
    """Right-acting differential operator with MatPoly coefficients."""

    __slots__ = ("F", "N")

    def __init__(self, coeffs, n: int | None = None):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        if coeffs:
            n = coeffs[0].N
        elif n is None:
            raise ValueError("zero DiffOp needs an explicit dimension")
        self.F = tuple(coeffs)
        self.N = n

    @property
    def order(self) -> int:
        return len(self.F) - 1

    def coeff(self, j: int) -> MatPoly:
        if 0 <= j < len(self.F):
            return self.F[j]
        return MatPoly.zero(self.N)

    def act(self, q: MatPoly) -> MatPoly:
        """sum_j (d^j q) F_j, summed power by power with one MatQ.dot each."""
        derivatives = [q]
        for _ in self.F[1:]:
            derivatives.append(derivatives[-1].derivative())
        return self.act_on_derivatives(derivatives)

    def act_on_derivatives(self, derivatives: list) -> MatPoly:
        """act(q) from derivatives = [q, q', q'', ...], formed once by the
        caller for every operator acting on q; it must reach d^order q."""
        if len(derivatives) < len(self.F):
            raise ValueError("fewer derivatives than the operator's order needs")
        return MatPoly.dot(list(zip(derivatives, self.F)), self.N)

    def __add__(self, other: "DiffOp") -> "DiffOp":
        m = max(len(self.F), len(other.F))
        return DiffOp([self.coeff(j) + other.coeff(j) for j in range(m)], self.N)

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        m = max(len(self.F), len(other.F))
        return DiffOp([self.coeff(j) - other.coeff(j) for j in range(m)], self.N)

    def __neg__(self) -> "DiffOp":
        return DiffOp([-f for f in self.F], self.N)

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.N == other.N and self.F == other.F

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Operator with Q . (self compose other) = (Q . self) . other."""
        pairs = [[] for _ in range(len(self.F) + len(other.F) - 1)]
        for j, fj in enumerate(self.F):
            for k, gk in enumerate(other.F):
                dfj = fj
                for m in range(k, -1, -1):
                    # dfj holds the (k-m)-th derivative of F_j at this point
                    c = math.comb(k, m)
                    pairs[j + m].append((dfj if c == 1 else dfj * c, gk))
                    if m > 0:
                        dfj = dfj.derivative()
        return DiffOp([MatPoly.dot(t, self.N) for t in pairs], self.N)

    def bracket(self, other: "DiffOp") -> "DiffOp":
        return self.compose(other) - other.compose(self)

    def __repr__(self):
        return f"DiffOp(order={self.order}, N={self.N})"


def right_mult(p: MatPoly) -> DiffOp:
    """Order-zero operator: right multiplication by a matrix polynomial."""
    return DiffOp([p], p.N)


class SeqOp:
    """Difference operator sum_j A_j(n) delta^j over the window n = 0..n_max,
    given by its shifts and a coefficient function coef(j, n) -> MatQ.

    Each coefficient is formed once, where first read (`coef` is cached),
    and never tabulated.  One edge rule: `coeff(j, n)` is an exact zero at a
    shift the operator lacks and where n + j < 0 (the coefficient multiplies
    a vanishing sequence value, so `act` and `compose` skip such terms); it
    raises WindowError for n outside the window and wherever the family
    cannot form the coefficient (coef raises it).  `coef` itself is read
    only inside the window at n + j >= 0, on a shift of the operator.
    """

    __slots__ = ("_shifts", "coef", "n_max", "N")

    def __init__(self, shifts, coef, n_max: int, n_dim: int):
        self._shifts = tuple(sorted(set(shifts)))
        self.coef = cache(coef)
        self.n_max = n_max
        self.N = n_dim

    @staticmethod
    def constant(j: int, m: MatQ, n_max: int) -> "SeqOp":
        return SeqOp((j,), lambda j, n: m, n_max, m.N)

    def shifts(self):
        return list(self._shifts)

    def coeff(self, j: int, n: int) -> MatQ:
        if not 0 <= n <= self.n_max:
            raise WindowError(f"n={n} outside window 0..{self.n_max}")
        if n + j < 0 or j not in self._shifts:
            return MatQ.zero(self.N)
        return self.coef(j, n)

    def act(self, values, n: int):
        """(M . P)(n) for a sequence given as a list of MatPoly."""
        if not (0 <= n <= self.n_max):
            raise WindowError(f"n={n} outside window 0..{self.n_max}")
        pairs = []
        for j in self._shifts:
            k = n + j
            if k < 0:
                continue
            if k >= len(values):
                raise WindowError(f"shift {j} at n={n} needs sequence index {k}")
            pairs.append((MatPoly.const(self.coef(j, n)), values[k]))
        return MatPoly.dot(pairs, self.N)

    def __add__(self, other: "SeqOp") -> "SeqOp":
        """Zero-padded, shift by shift."""
        return SeqOp(self._shifts + other._shifts,
                     lambda j, n: self.coeff(j, n) + other.coeff(j, n), self.n_max, self.N)

    def scale(self, c) -> "SeqOp":
        """Every coefficient times the scalar c."""
        return SeqOp(self._shifts, lambda j, n: self.coef(j, n) * c, self.n_max, self.N)

    def star(self) -> "SeqOp":
        """(sum A_j(n) delta^j)^* = sum A_j(n-j)^T delta^{-j}."""
        return SeqOp([-j for j in self._shifts],
                     lambda j, n: self.coeff(-j, n + j).transpose(), self.n_max, self.N)

    def dagger(self, seq: OPSeq) -> "SeqOp":
        """M^dagger = H(n) M^* H(n)^{-1}: its coefficient at shift j is
        H_n A_{-j}(n+j)^T H_{n+j}^{-1}, from the squared norms of `seq`."""
        def dagger_coef(j, n):
            return seq.H[n] * self.coeff(-j, n + j).transpose() * seq.h_inv(n + j)

        return SeqOp([-j for j in self._shifts], dagger_coef, self.n_max, self.N)

    def compose(self, other: "SeqOp") -> "SeqOp":
        """(self other) . P = self . (other . P): the coefficient at shift k
        is sum_{i+j=k} A_i(n) B_j(n+i), with the terms whose n + i < 0
        dropped exactly (they multiply vanishing sequence values)."""
        def composed(k, n):
            return MatQ.dot([(self.coef(i, n), other.coeff(k - i, n + i)) for i in self._shifts
                             if n + i >= 0 and k - i in other._shifts], self.N)

        return SeqOp([i + j for i in self._shifts for j in other._shifts], composed,
                     self.n_max, self.N)

    def agrees_with(self, other: "SeqOp", n_range) -> bool:
        return all(self.coeff(j, n) == other.coeff(j, n)
                   for j in set(self._shifts) | set(other._shifts) for n in n_range)


# ---------------------------------------------------------------------------
# Named operators of the phi(x) = x weight
# ---------------------------------------------------------------------------


def ladder_raising(spec: WeightSpec) -> DiffOp:
    """The first-order operator d_x x + x(A - 1)."""
    return DiffOp([MatPoly.monomial(1, spec.am1), MatPoly.x_identity(spec.N)])


def ladder_lowering(spec: WeightSpec) -> DiffOp:
    """Its adjoint: -d_x x - (1 + nu + J) + x phi'(x) - x; for phi = x the
    multiplication tail cancels to -d_x x - (1 + nu + J)."""
    n = spec.N
    i = MatQ.identity(n)
    const = MatPoly.const(-(i * (1 + spec.nu)) - spec.J)
    phi_tail = spec.phi.derivative() * RPoly.x() - RPoly.x()
    tail = MatPoly.from_scalar(phi_tail, n)
    return DiffOp([const + tail, -MatPoly.x_identity(n)])


def second_order(spec: WeightSpec) -> DiffOp:
    """d_x^2 x + d_x((A-1)x + 1 + nu + J) + A nu + J A - J."""
    n = spec.N
    i = MatQ.identity(n)
    f2 = MatPoly.x_identity(n)
    f1 = MatPoly.monomial(1, spec.am1) + MatPoly.const(i * (1 + spec.nu) + spec.J)
    f0 = MatPoly.const(spec.A * spec.nu + spec.J * spec.A - spec.J)
    return DiffOp([f0, f1, f2])


def casimir_mult(spec: WeightSpec) -> DiffOp:
    """Right multiplication by Ax - J."""
    return right_mult(MatPoly.monomial(1, spec.A) - MatPoly.const(spec.J))


def second_order_diagonalized(spec: WeightSpec) -> DiffOp:
    """d_x^2 x + d_x(1 + nu - x + J) - J, the conjugated form of the
    second-order operator."""
    n = spec.N
    i = MatQ.identity(n)
    f2 = MatPoly.x_identity(n)
    f1 = MatPoly.const(i * (1 + spec.nu) + spec.J) - MatPoly.x_identity(n)
    f0 = MatPoly.const(-spec.J)
    return DiffOp([f0, f1, f2])


def make_named_operators(seq: OPSeq) -> dict:
    """All named operators for one computed family: differential ones keyed
    'D', 'Ddag', 'D2', 'C', 'DQ2'; difference ones 'M', 'Mdag', 'L', 'MC'.
    The eigenvalues of 'D2' are seq.Gamma.  A - 1 is the spec's, [J, X_k]
    is formed entry by entry, X_k A - A X_{k+1}, which enters both the
    delta^0 and the delta^{-1} coefficient of 'MC', once per k, and
    -(k + 1 + nu), which enters the delta^0 coefficients of 'M' and 'Mdag',
    once per k."""
    spec = seq.spec
    n = spec.N
    i = MatQ.identity(n)
    n_max = seq.n_max
    A, J = spec.A, spec.J
    neg_a = -A
    x_shift = [MatQ.dot([(seq.X[k], A), (neg_a, seq.X[k + 1])], n) for k in range(n_max)]
    level = [-(i * (k + 1 + spec.nu)) for k in range(n_max + 1)]

    def m0(j, k):
        if j == 1:
            return spec.am1
        return level[k] - seq.HJH[k]

    def mdag0(j, k):
        if j == 0:
            return level[k] - J
        return seq.T[k]

    def l0(j, k):
        if j == 1:
            return i
        if j == -1:
            return seq.C[k]
        if k == n_max:
            raise WindowError(f"B_{k} needs P_{k + 1}")
        return seq.B[k]

    def mc0(j, k):
        if j == 1:
            return A
        if k == n_max:
            raise WindowError(f"the shift-{j} coefficient of MC at n={k} needs P_{k + 1}")
        if j == 0:
            return x_shift[k] - J
        return MatQ.dot([(seq.Y[k], A), (neg_a, seq.Y[k + 1]), (i, J_commutator(seq.X[k])),
                         (-x_shift[k], seq.X[k])], n)

    return {
        "D": ladder_raising(spec),
        "Ddag": ladder_lowering(spec),
        "D2": second_order(spec),
        "C": casimir_mult(spec),
        "DQ2": second_order_diagonalized(spec),
        "M": SeqOp([0, 1], m0, n_max, n),
        "Mdag": SeqOp([-1, 0], mdag0, n_max, n),
        "L": SeqOp([-1, 0, 1], l0, n_max, n),
        "MC": SeqOp([-1, 0, 1], mc0, n_max, n),
    }


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def adjoint_kernels(d1: DiffOp, d2: DiffOp, table: MomentTable, deg_bound: int) -> dict:
    """(a, b) -> S1(a,b) - S2(a,b) for 0 <= a, b <= deg_bound: since
    <x^a E_uv . D1, x^b E_st> equals E_uv S1(a,b) E_ts and likewise for the
    right side, entrywise equality of the kernels covers every matrix-unit
    pair at degrees (a, b).  The kernels are grouped by moment offset,

        S1(a,b) = sum_j a!/(a-j)! U_j[a+b-j],   U_j[t] = sum_c F_{j,c} m_{t+c},
        S2(a,b) = sum_j b!/(b-j)! V_j[a+b-j],   V_j[t] = sum_c m_{t+c} G_{j,c}^T,

    for D1 = sum_j d^j F_j and D2 = sum_j d^j G_j.  U_j is the moment row
    <F_j, x^t I> (weights.moment_row) at offsets t <= 2 deg_bound - j, each
    read by some (a, b); every moment is symmetric, so V_j[t] is the
    transposed entry of the moment row of G_j, or of F_j for a self pair
    (d1 is d2), which is then formed once.  Each defect is one integer
    combination (MatQ.lincomb)."""
    n = d1.N

    def rows(op: DiffOp) -> list[list]:
        return [moment_row(f, table, range(2 * deg_bound - j + 1))
                for j, f in enumerate(op.F[:deg_bound + 1])]

    u = rows(d1)
    v = [[m.transpose() for m in row] for row in (u if d2 is d1 else rows(d2))]
    return {(a, b): MatQ.lincomb([(math.perm(a, j), col[a + b - j])
                                  for j, col in enumerate(u[:a + 1])]
                                 + [(-math.perm(b, j), col[a + b - j])
                                    for j, col in enumerate(v[:b + 1])], n)
            for a in range(deg_bound + 1) for b in range(deg_bound + 1)}


def verify_adjoint_pair(d1: DiffOp, d2: DiffOp, table: MomentTable,
                        deg_bound: int, label: str) -> list[dict]:
    """<P.D1, Q> = <P, Q.D2> for all matrix monomial pairs up to deg_bound,
    one check per (a, b) on the kernels of `adjoint_kernels`."""
    return [check(f"adjoint {label} a={a},b={b}", "adjoint-pairing", defect.is_zero())
            for (a, b), defect in adjoint_kernels(d1, d2, table, deg_bound).items()]


def verify_intertwinings(seq: OPSeq, ops: dict) -> list[dict]:
    """P.D = M.P, P.Ddag = Mdag.P, P.D2 = Gamma.P and P.C = MC.P, with every
    check that reads these images: A_1(n) = A - 1 off the top coefficient of
    P_n.D (P_{n+1} is monic), the Casimir identity
    (M + Mdag + L + 1 + nu).P = P.(Ax - J), and the Fourier map
    (M L).P = (P.D).x on the window interior.  One pass over the degrees
    forms each image once, next to the coefficient identities on X, Y, B, H
    that the matched operators force; P_n' and P_n'' are formed once per
    degree and read by every image of P_n.  `ops` is
    make_named_operators(seq)."""
    spec = seq.spec
    A, am1 = spec.A, spec.am1
    i = MatQ.identity(spec.N)
    one_nu = MatPoly.const(i * (1 + spec.nu))
    ml = ops["M"].compose(ops["L"])
    checks = []
    for n in range(seq.n_max + 1):
        p = seq.P[n]
        ders = [p, p.derivative()]
        ders.append(ders[1].derivative())
        mdag_p = ops["Mdag"].act(seq.P, n)
        checks.append(check(f"P.Ddag=Mdag.P n={n}", "ladder-intertwining",
                            ops["Ddag"].act_on_derivatives(ders) == mdag_p))
        checks.append(check(f"P.D2=Gamma.P n={n}", "second-order-eigenvalue",
                            ops["D2"].act_on_derivatives(ders)
                            == MatPoly.const(seq.Gamma[n]) * p))
        if n >= 1:
            lhs = seq.X[n] + J_commutator(seq.X[n])
            checks.append(check(f"fla Ad-1n n={n}", "down-shift-coefficient", lhs == seq.T[n]))
        if n == seq.n_max:
            break
        p_d, m_p = ops["D"].act_on_derivatives(ders), ops["M"].act(seq.P, n)
        p_c = ops["C"].act_on_derivatives(ders)
        checks.append(check(f"P.D=M.P n={n}", "ladder-intertwining", p_d == m_p))
        checks.append(check(f"P.C=MC.P n={n}", "symmetric-first-order",
                            p_c == ops["MC"].act(seq.P, n)))
        checks.append(check(f"A1(n)=A-1 n={n}", "ladder-difference-form",
                            ops["M"].coeff(1, n) == p_d.coeff(n + 1) == am1))
        casimir = m_p + mdag_p + ops["L"].act(seq.P, n) + one_nu * p
        checks.append(check(f"Casimir identity n={n}", "casimir-difference-identity",
                            casimir == p_c))
        if 1 <= n < seq.n_max - 1:
            checks.append(check(f"phi-map multiplicative n={n}", "fourier-map-multiplicative",
                                ml.act(seq.P, n) == p_d.scale_x(1)))
        a0 = i * n + seq.X[n] * A - A * seq.X[n + 1] - seq.B[n]
        checks.append(check(f"fla A0n n={n}", "zero-shift-coefficient",
                            a0 == ops["M"].coeff(0, n)))
        if n >= 2:
            # the delta^{-1} coefficient of the operator matched to D vanishes
            resid = MatQ.dot([(i * (n - 1) - a0, seq.X[n]), (seq.Y[n], am1),
                              (-am1, seq.Y[n + 1])], spec.N)
            checks.append(check(f"fla A-1n n={n}", "vanishing-down-shift", resid.is_zero()))
    return checks


def verify_star_dagger(seq: OPSeq, ops: dict) -> list[dict]:
    """Structure of the * and dagger involutions, plus self-adjointness of
    the recurrence operator L.  The dagger rows compare n = 0..n_max-1,
    where every coefficient they read exists: a shift below zero reads as
    an exact zero, and a dagger at n reads its source up to n + 1.  At
    n_max = 0 they compare nothing."""
    checks = []
    window = range(seq.n_max)
    m = ops["M"]
    m_dag = m.dagger(seq)
    checks.append(check("dagger involution on M", "dagger-involution",
                        m_dag.dagger(seq).agrees_with(m, window)))
    l = ops["L"]
    checks.append(check("L self-adjoint", "dagger-involution",
                        l.dagger(seq).agrees_with(l, window)))
    const = SeqOp.constant(0, seq.spec.A, seq.n_max)
    ok = const.star().agrees_with(
        SeqOp.constant(0, seq.spec.A.transpose(), seq.n_max), range(seq.n_max + 1))
    checks.append(check("(A delta^0)* = A^T delta^0", "star-involution", ok))
    mdag = ops["Mdag"]
    checks.append(check("Mdag = dagger(M)", "dagger-involution",
                        m_dag.agrees_with(mdag, window)))
    return checks


def apply_L_poly(v: RPoly, l: SeqOp) -> SeqOp:
    """The difference operator v(L) by repeated composition from the
    recurrence operator L; satisfies v(L) . P = P v(x) on the window
    interior."""
    acc, power = SeqOp.constant(0, MatQ.identity(l.N) * v.coeff(0), l.n_max), l
    for k in range(1, v.degree + 1):
        if v.coeff(k):
            acc = acc + power.scale(v.coeff(k))
        power = power.compose(l)
    return acc


def verify_L_poly(v: RPoly, seq: OPSeq, ops: dict) -> list[dict]:
    vl = apply_L_poly(v, ops["L"])
    checks = []
    k = v.degree
    for n in range(k, seq.n_max - k + 1):
        lhs = vl.act(seq.P, n)
        rhs = seq.P[n] * MatPoly.from_scalar(v, seq.spec.N)
        checks.append(check(f"v(L).P = P v(x) n={n} deg={k}",
                            "recurrence-operator-polynomial", lhs == rhs))
    return checks


def verify_bracket_identities(seq: OPSeq) -> list[dict]:
    """The seven delta-coefficient equations tying B, C, H, Gamma together
    and the two J-bracket closed forms.

    Two printed forms fail under the oracle by one sign on their last term
    (the delta^{-1} equation of the M-dagger bracket and the [C_n, J]
    formula); both variants are reported, the corrected one is the check.
    Each [B_n, J], [C_n, J] and [J, H_n J H_n^{-1}] is formed once, entry by
    entry, and each product a corrected form shares with its printed
    variant once; A - 1 is the spec's.
    """
    spec = seq.spec
    N, am1 = spec.N, spec.am1
    one_minus_a = -am1
    i = MatQ.identity(N)
    checks = []
    B, C, hjh, t, gamma = seq.B, seq.C, seq.HJH, seq.T, seq.Gamma
    interior = range(1, seq.n_max)
    # [Gamma, C]_n = Gamma_n C_n - C_n Gamma_{n-1}, read by three identities
    gc = [None] + [gamma[n] * C[n] - C[n] * gamma[n - 1] for n in range(1, seq.n_max + 1)]
    # [X, J] = -[J, X]
    bj = {n: -J_commutator(B[n]) for n in interior}
    cj = {n: -J_commutator(C[n]) for n in interior}
    two_c = {n: C[n] * 2 for n in interior}

    for n in range(seq.n_max - 1):
        lhs = MatQ.dot([(B[n], am1), (one_minus_a, B[n + 1])], N)
        rhs = i * 2 + hjh[n + 1] - hjh[n]
        checks.append(check(f"ML.1 n={n}", "bracket-raising-shift", lhs == rhs))
    for n in interior:
        rhs = bj[n] + t[n] - t[n + 1]
        checks.append(check(f"MdL0 n={n}", "bracket-B-J", B[n] == rhs))
    for n in interior:
        common, last = cj[n] - B[n] * t[n], t[n] * B[n - 1]
        checks += quoted_check(f"MdL-1 n={n}", "bracket-C-J",
                               [(two_c[n] == common + last, two_c[n] == common - last)])
    for n in interior:
        rhs = MatQ.dot([(i, -J_commutator(hjh[n])), (t[n], one_minus_a), (am1, t[n + 1])], N)
        checks.append(check(f"MMd0 n={n}", "bracket-B-from-norms", B[n] == rhs))
    for n in range(1, seq.n_max + 1):
        checks.append(check(f"GamaL-1 n={n}", "bracket-eigen-C", gc[n] == t[n]))
    for n in range(seq.n_max + 1):
        lhs = commutator(gamma[n], hjh[n])
        rhs = i * n + gamma[n] + hjh[n]
        checks.append(check(f"GamaM0 n={n}", "bracket-eigen-J", lhs == rhs))
    for n in range(1, seq.n_max + 1):
        lhs = gamma[n] * t[n] - t[n] * gamma[n - 1]
        checks.append(check(f"GamaMdag-1 n={n}", "bracket-eigen-downshift", lhs == -t[n]))

    for n in interior:
        rhs = B[n] - gc[n] + gc[n + 1]
        checks.append(check(f"prop5.6 [B,J] n={n}", "J-bracket-closed-form", bj[n] == rhs))
    for n in interior:
        common, last = two_c[n] + B[n] * gc[n], gc[n] * B[n - 1]
        checks += quoted_check(f"prop5.6 [C,J] n={n}", "J-bracket-closed-form",
                               [(cj[n] == common - last, cj[n] == common + last)])

    return checks


# ---------------------------------------------------------------------------
# Symmetry equations for second-order operators against the weight
# ---------------------------------------------------------------------------


def symmetry_residuals(d: DiffOp, w: ScaledMat) -> tuple:
    """The three algebraic symmetry equations of a second-order operator
    D = sum_k d^k F_k against a weight W, as the residuals

        F_2 W - W F_2^T,   2 (F_2 W)' - F_1 W - W F_1^T,
        (F_2 W)'' - (F_1 W)' + F_0 W - W F_0^T,

    each zero exactly when its equation holds.  The weight is symmetric, so
    W F_k^T = (F_k W)^T: each F_k W is formed once and every W F_k^T is its
    transpose.  A weight whose body differs from its transpose raises
    ValueError."""
    if w.body != w.body.transpose():
        raise ValueError("the weight is not symmetric")
    f0w, f1w, f2w = (w.lmul(d.coeff(k)) for k in range(3))
    f2w_dx = f2w.dx()
    return (f2w - f2w.transpose(),
            f2w_dx.scale(2) - f1w - f1w.transpose(),
            f2w_dx.dx() - f1w.dx() + f0w - f0w.transpose())


def verify_symmetry_conditions(d: DiffOp, w: ScaledMat, label: str) -> list[dict]:
    """The three symmetry equations (`symmetry_residuals`) as exact
    identities between matrix polynomials.  Boundary conditions are
    assumptions carried by nu > 0, not checks."""
    return [check(f"symmetry-{k} {label}", "weight-symmetry", c.is_zero())
            for k, c in enumerate(symmetry_residuals(d, w), 1)]
