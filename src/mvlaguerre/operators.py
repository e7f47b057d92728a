"""Differential operators acting from the right, difference operators acting
from the left, the dagger adjoint, the named operators of the Laguerre-type
weight, and the identity suites connecting them.

Conventions.  A differential operator D = sum_j d^j F_j(x) acts on a matrix
polynomial Q by (Q . D) = sum_j (d^j Q) F_j; coefficients multiply on the
right.  Composition follows the right action: Q . (D1 D2) = ((Q . D1) . D2).
A difference operator M = sum_j A_j(n) delta^j acts on a sequence by
(M . P)(n) = sum_j A_j(n) P(n+j), with sequences vanishing at negative
indices.  Coefficient tables are stored pointwise over a finite window.

Operators combine by composition and sums: conjugation by e^{xA} is
e^{-xA} D e^{xA}, and the dagger is H M^* H^{-1}.  A difference coefficient
at shift j with n + j < 0 multiplies a vanishing sequence value, and a
composition leaves it an exact zero.
"""

from __future__ import annotations

import math

from .engine import OPSeq, check
from .matrices import MatPoly, MatQ, commutator
from .scalar import RPoly, rat
from .weights import MomentTable, WeightSpec, diagonal_part, weight_polynomial_part


class WindowError(IndexError):
    """A difference-operator evaluation fell off the finite n-window."""


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
    """Difference operator over the window n = 0..n_max.

    `table` maps shift j to a list over n of MatQ coefficients (None where
    the coefficient is undefined, e.g. it would involve H_{-1}; a zero where
    n + j < 0 after a composition).  Acting on a sequence treats negative
    sequence indices as zero, so an undefined coefficient is only an error
    if its sequence argument is inside range.
    """

    __slots__ = ("table", "n_max", "N")

    def __init__(self, table: dict, n_max: int, n_dim: int):
        self.table = {int(j): list(col) for j, col in table.items()}
        self.n_max = n_max
        self.N = n_dim
        for col in self.table.values():
            if len(col) != n_max + 1:
                raise ValueError("coefficient column length must be n_max + 1")

    @staticmethod
    def constant(j: int, m: MatQ, n_max: int) -> "SeqOp":
        return SeqOp({j: [m] * (n_max + 1)}, n_max, m.N)

    @staticmethod
    def from_fn(shifts, fn, n_max: int, n_dim: int) -> "SeqOp":
        """fn(j, n) -> MatQ or None."""
        return SeqOp({j: [fn(j, n) for n in range(n_max + 1)] for j in shifts},
                     n_max, n_dim)

    def shifts(self):
        return sorted(self.table)

    def coeff(self, j: int, n: int):
        if j not in self.table or not (0 <= n <= self.n_max):
            return None
        return self.table[j][n]

    def act(self, values, n: int):
        """(M . P)(n) for a sequence given as a list of MatPoly."""
        if not (0 <= n <= self.n_max):
            raise WindowError(f"n={n} outside window 0..{self.n_max}")
        pairs = []
        for j in self.shifts():
            k = n + j
            if k < 0:
                continue
            if k >= len(values):
                raise WindowError(f"shift {j} at n={n} needs sequence index {k}")
            c = self.table[j][n]
            if c is None:
                raise WindowError(f"coefficient at shift {j}, n={n} is undefined")
            pairs.append((MatPoly.const(c), values[k]))
        return MatPoly.dot(pairs, self.N)

    def __add__(self, other: "SeqOp") -> "SeqOp":
        """Zero-padded, shift by shift; None on either side stays None."""
        zero = [MatQ.zero(self.N)] * (self.n_max + 1)
        return SeqOp({j: [None if a is None or b is None else a + b
                          for a, b in zip(self.table.get(j, zero), other.table.get(j, zero))]
                      for j in set(self.table) | set(other.table)}, self.n_max, self.N)

    def star(self) -> "SeqOp":
        """(sum A_j(n) delta^j)^* = sum A_j(n-j)^T delta^{-j}."""
        table = {}
        for j, col in self.table.items():
            new = []
            for n in range(self.n_max + 1):
                src = n - j
                c = col[src] if 0 <= src <= self.n_max else None
                new.append(None if c is None else c.transpose())
            table[-j] = new
        return SeqOp(table, self.n_max, self.N)

    def dagger(self, seq: OPSeq) -> "SeqOp":
        """M^dagger = H(n) M^* H(n)^{-1}, composed over the window from the
        squared norms of `seq`.  Entries with n + j < 0 are exact zeros: act
        and agrees_with skip them, and star never reads them."""
        h = SeqOp({0: seq.H[:self.n_max + 1]}, self.n_max, self.N)
        h_inv = SeqOp({0: [seq.h_inv(n) for n in range(self.n_max + 1)]}, self.n_max, self.N)
        return h.compose(self.star()).compose(h_inv)

    def compose(self, other: "SeqOp") -> "SeqOp":
        """(self other) . P = self . (other . P); sequence values at negative
        indices vanish, so terms reaching below the window drop exactly."""
        pairs = {i + j: [[] for _ in range(self.n_max + 1)]
                 for i in self.table for j in other.table}
        for n in range(self.n_max + 1):
            for i, col_a in self.table.items():
                mid = n + i
                if mid < 0:
                    continue
                for j, col_b in other.table.items():
                    col = pairs[i + j]
                    if col[n] is None:
                        continue
                    if mid > self.n_max or col_a[n] is None or col_b[mid] is None:
                        col[n] = None
                        continue
                    col[n].append((col_a[n], col_b[mid]))
        table = {k: [None if t is None else MatQ.dot(t, self.N) for t in col]
                 for k, col in pairs.items()}
        return SeqOp(table, self.n_max, self.N)

    def agrees_with(self, other: "SeqOp", n_range) -> bool:
        shifts = set(self.table) | set(other.table)
        zero = MatQ.zero(self.N)
        for j in shifts:
            for n in n_range:
                if n + j < 0:
                    continue  # would multiply a vanishing sequence value
                a = self.table[j][n] if j in self.table else zero
                b = other.table[j][n] if j in other.table else zero
                if a is None and b is None:
                    continue
                if a is None or b is None or a != b:
                    return False
        return True


# ---------------------------------------------------------------------------
# Named operators of the phi(x) = x weight
# ---------------------------------------------------------------------------


def ladder_raising(spec: WeightSpec) -> DiffOp:
    """The first-order operator d_x x + x(A - 1)."""
    n = spec.N
    i = MatQ.identity(n)
    return DiffOp([MatPoly.monomial(1, spec.A - i), MatPoly.x_identity(n)])


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
    f1 = MatPoly.monomial(1, spec.A - i) + MatPoly.const(i * (1 + spec.nu) + spec.J)
    f0 = MatPoly.const(spec.A * spec.nu + spec.J * spec.A - spec.J)
    return DiffOp([f0, f1, f2])


def casimir_mult(spec: WeightSpec) -> DiffOp:
    """Right multiplication by Ax - J."""
    n = spec.N
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
    'D', 'Ddag', 'D2', 'C', 'DQ2'; difference ones 'M', 'Mdag', 'L', 'Gamma',
    'MC'."""
    spec = seq.spec
    n = spec.N
    i = MatQ.identity(n)
    n_max = seq.n_max
    A, J = spec.A, spec.J
    nu = spec.nu

    def m0(j, k):
        if j == 1:
            return A - i
        return -(i * (k + 1 + nu)) - seq.HJH[k]

    def mdag0(j, k):
        if j == 0:
            return -(i * (k + nu + 1)) - J
        return seq.T[k]

    def l0(j, k):
        if j == 1:
            return i
        if j == 0:
            return seq.B[k] if k < n_max else None
        return seq.C[k] if k >= 1 else None

    def mc0(j, k):
        if j == 1:
            return A
        if j == 0:
            if k >= n_max:
                return None
            return seq.X[k] * A - A * seq.X[k + 1] - J
        if k >= n_max:
            return None
        return (seq.Y[k] * A - A * seq.Y[k + 1] + commutator(J, seq.X[k])
                + (A * seq.X[k + 1] - seq.X[k] * A) * seq.X[k])

    return {
        "D": ladder_raising(spec),
        "Ddag": ladder_lowering(spec),
        "D2": second_order(spec),
        "C": casimir_mult(spec),
        "DQ2": second_order_diagonalized(spec),
        "M": SeqOp.from_fn([0, 1], m0, n_max, n),
        "Mdag": SeqOp.from_fn([-1, 0], mdag0, n_max, n),
        "L": SeqOp.from_fn([-1, 0, 1], l0, n_max, n),
        "Gamma": SeqOp({0: seq.Gamma}, n_max, n),
        "MC": SeqOp.from_fn([-1, 0, 1], mc0, n_max, n),
    }


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def adjoint_defect(d1: DiffOp, d2: DiffOp, table: MomentTable, a: int, b: int) -> MatQ:
    """Kernel S1(a,b) - S2(a,b): since <x^a E_uv . D1, x^b E_st> equals
    E_uv S1 E_ts and likewise for the right side, entrywise equality of the
    kernels covers every matrix-unit pair at degrees (a, b)."""
    pairs = []
    for j, fj in enumerate(d1.F):
        fall = math.perm(a, j)
        if fall:
            pairs += [(fc, table[a + b - j + c] * fall) for c, fc in enumerate(fj.coeffs)]
    for j, gj in enumerate(d2.F):
        fall = math.perm(b, j)
        if fall:
            pairs += [(table[a + b - j + c] * -fall, gc.transpose())
                      for c, gc in enumerate(gj.coeffs)]
    return MatQ.dot(pairs, d1.N)


def verify_adjoint_pair(d1: DiffOp, d2: DiffOp, table: MomentTable,
                        deg_bound: int, label: str) -> list[dict]:
    """<P.D1, Q> = <P, Q.D2> for all matrix monomial pairs up to deg_bound."""
    checks = []
    for a in range(deg_bound + 1):
        for b in range(deg_bound + 1):
            defect = adjoint_defect(d1, d2, table, a, b)
            checks.append(check(f"adjoint {label} a={a},b={b}",
                                "adjoint-pairing", defect.is_zero()))
    return checks


def verify_intertwinings(seq: OPSeq, ops: dict) -> list[dict]:
    """P.D = M.P, P.Ddag = Mdag.P, P.D2 = Gamma.P, P.C = MC.P, and the
    coefficient identities they force on X, B, H.  `ops` is
    make_named_operators(seq)."""
    spec = seq.spec
    A, J = spec.A, spec.J
    i = MatQ.identity(spec.N)
    checks = []
    for n in range(seq.n_max):
        lhs = ops["D"].act(seq.P[n])
        rhs = ops["M"].act(seq.P, n)
        checks.append(check(f"P.D=M.P n={n}", "ladder-intertwining", lhs == rhs))
    for n in range(seq.n_max + 1):
        lhs = ops["Ddag"].act(seq.P[n])
        rhs = ops["Mdag"].act(seq.P, n)
        checks.append(check(f"P.Ddag=Mdag.P n={n}", "ladder-intertwining", lhs == rhs))
    for n in range(seq.n_max + 1):
        lhs = ops["D2"].act(seq.P[n])
        gamma_n = ops["Gamma"].coeff(0, n)
        checks.append(check(f"P.D2=Gamma.P n={n}", "second-order-eigenvalue",
                            lhs == MatPoly.const(gamma_n) * seq.P[n]))
    for n in range(seq.n_max):
        lhs = ops["C"].act(seq.P[n])
        rhs = ops["MC"].act(seq.P, n)
        checks.append(check(f"P.C=MC.P n={n}", "symmetric-first-order", lhs == rhs))
    for n in range(seq.n_max):
        lhs = i * n + seq.X[n] * A - A * seq.X[n + 1] - seq.B[n]
        rhs = -(i * (n + 1 + spec.nu)) - seq.HJH[n]
        checks.append(check(f"fla A0n n={n}", "zero-shift-coefficient", lhs == rhs))
    for n in range(1, seq.n_max + 1):
        lhs = seq.X[n] + commutator(J, seq.X[n])
        checks.append(check(f"fla Ad-1n n={n}", "down-shift-coefficient", lhs == seq.T[n]))
    return checks


def verify_general_D_theorem(seq: OPSeq, ops: dict) -> list[dict]:
    """Degree-one tail: the delta^{-1} coefficient of the operator matched to
    the raising ladder vanishes identically, and A_1(n) = A - 1, where the
    shift-1 coefficient A_1(n) of M must also be the x^{n+1} coefficient of
    P_n . D, the leading term of P_n . D = M . P_n (P_{n+1} is monic)."""
    spec = seq.spec
    A, J = spec.A, spec.J
    i = MatQ.identity(spec.N)
    checks = []
    for n in range(2, seq.n_max):
        a0 = i * n + seq.X[n] * A - A * seq.X[n + 1] - seq.B[n]
        resid = (i * (n - 1)) * seq.X[n] + seq.Y[n] * (A - i) \
            - (A - i) * seq.Y[n + 1] - a0 * seq.X[n]
        checks.append(check(f"fla A-1n n={n}", "vanishing-down-shift", resid.is_zero()))
    for n in range(seq.n_max):
        lead = ops["D"].act(seq.P[n]).coeff(n + 1)
        checks.append(check(f"A1(n)=A-1 n={n}", "ladder-difference-form",
                            ops["M"].coeff(1, n) == lead == A - i))
    return checks


def verify_star_dagger(seq: OPSeq, ops: dict) -> list[dict]:
    """Structure of the * and dagger involutions on the window interior,
    plus self-adjointness of the recurrence operator L."""
    checks = []
    interior = range(1, seq.n_max)
    m = ops["M"]
    m_dag = m.dagger(seq)
    checks.append(check("dagger involution on M", "dagger-involution",
                        m_dag.dagger(seq).agrees_with(m, interior)))
    l = ops["L"]
    checks.append(check("L self-adjoint", "dagger-involution",
                        l.dagger(seq).agrees_with(l, interior)))
    const = SeqOp.constant(0, seq.spec.A, seq.n_max)
    ok = const.star().agrees_with(
        SeqOp.constant(0, seq.spec.A.transpose(), seq.n_max), range(seq.n_max + 1))
    checks.append(check("(A delta^0)* = A^T delta^0", "star-involution", ok))
    mdag = ops["Mdag"]
    checks.append(check("Mdag = dagger(M)", "dagger-involution",
                        m_dag.agrees_with(mdag, interior)))
    return checks


def verify_fourier_homomorphism(seq: OPSeq, ops: dict) -> list[dict]:
    """(M L) . P = (P . D) . x on the window interior: the generalized
    Fourier map is multiplicative on the tested pair."""
    ml = ops["M"].compose(ops["L"])
    x_mult = right_mult(MatPoly.x_identity(seq.spec.N))
    checks = []
    for n in range(1, seq.n_max - 1):
        lhs = ml.act(seq.P, n)
        rhs = x_mult.act(ops["D"].act(seq.P[n]))
        checks.append(check(f"phi-map multiplicative n={n}",
                            "fourier-map-multiplicative", lhs == rhs))
    return checks


def apply_L_poly(v: RPoly, l: SeqOp) -> SeqOp:
    """The difference operator v(L) by repeated composition from the
    recurrence operator L; satisfies v(L) . P = P v(x) on the window
    interior."""
    acc = SeqOp.constant(0, MatQ.identity(l.N) * v.coeff(0), l.n_max)
    power = None
    for k in range(1, v.degree + 1):
        power = l if power is None else power.compose(l)
        ck = v.coeff(k)
        if ck != 0:
            scaled = SeqOp(
                {j: [None if c is None else c * ck for c in col]
                 for j, col in power.table.items()},
                l.n_max, l.N)
            acc = acc + scaled
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


def verify_bracket_identities(seq: OPSeq, ops: dict) -> list[dict]:
    """The seven delta-coefficient equations tying B, C, H, Gamma together,
    the two J-bracket closed forms, and the Casimir identity.

    Two printed forms fail under the oracle by one sign on their last term
    (the delta^{-1} equation of the M-dagger bracket and the [C_n, J]
    formula); both variants are reported, the corrected one is the check.
    """
    spec = seq.spec
    A, J = spec.A, spec.J
    i = MatQ.identity(spec.N)
    nu = spec.nu
    checks = []
    hjh, t, gamma = seq.HJH, seq.T, seq.Gamma
    # [Gamma, C]_n = Gamma_n C_n - C_n Gamma_{n-1}, read by three identities
    gc = [None] + [gamma[n] * seq.C[n] - seq.C[n] * gamma[n - 1]
                   for n in range(1, seq.n_max + 1)]

    for n in range(seq.n_max - 1):
        lhs = seq.B[n] * (A - i) - (A - i) * seq.B[n + 1]
        rhs = i * 2 + hjh[n + 1] - hjh[n]
        checks.append(check(f"ML.1 n={n}", "bracket-raising-shift", lhs == rhs))
    for n in range(1, seq.n_max):
        rhs = commutator(seq.B[n], J) + t[n] - t[n + 1]
        checks.append(check(f"MdL0 n={n}", "bracket-B-J", seq.B[n] == rhs))
    for n in range(1, seq.n_max):
        corrected = commutator(seq.C[n], J) - seq.B[n] * t[n] + t[n] * seq.B[n - 1]
        displayed = commutator(seq.C[n], J) - seq.B[n] * t[n] - t[n] * seq.B[n - 1]
        checks.append(check(f"MdL-1 n={n}", "bracket-C-J", 2 * seq.C[n] == corrected,
                            displayed_form_pass=bool(2 * seq.C[n] == displayed)))
    for n in range(1, seq.n_max):
        rhs = -commutator(J, hjh[n]) - t[n] * (A - i) + (A - i) * t[n + 1]
        checks.append(check(f"MMd0 n={n}", "bracket-B-from-norms", seq.B[n] == rhs))
    for n in range(1, seq.n_max + 1):
        checks.append(check(f"GamaL-1 n={n}", "bracket-eigen-C", gc[n] == t[n]))
    for n in range(seq.n_max + 1):
        lhs = commutator(gamma[n], hjh[n])
        rhs = i * n + gamma[n] + hjh[n]
        checks.append(check(f"GamaM0 n={n}", "bracket-eigen-J", lhs == rhs))
    for n in range(1, seq.n_max + 1):
        lhs = gamma[n] * t[n] - t[n] * gamma[n - 1]
        checks.append(check(f"GamaMdag-1 n={n}", "bracket-eigen-downshift", lhs == -t[n]))

    for n in range(1, seq.n_max):
        rhs = seq.B[n] - gc[n] + gc[n + 1]
        checks.append(check(f"prop5.6 [B,J] n={n}", "J-bracket-closed-form",
                            commutator(seq.B[n], J) == rhs))
    for n in range(1, seq.n_max):
        corrected = 2 * seq.C[n] + seq.B[n] * gc[n] - gc[n] * seq.B[n - 1]
        displayed = 2 * seq.C[n] + seq.B[n] * gc[n] + gc[n] * seq.B[n - 1]
        checks.append(check(f"prop5.6 [C,J] n={n}", "J-bracket-closed-form",
                            commutator(seq.C[n], J) == corrected,
                            displayed_form_pass=bool(commutator(seq.C[n], J) == displayed)))

    cas = ops["C"]
    for n in range(seq.n_max):
        lhs = ops["M"].act(seq.P, n) + ops["Mdag"].act(seq.P, n) \
            + ops["L"].act(seq.P, n) + MatPoly.const(i * (1 + nu)) * seq.P[n]
        checks.append(check(f"Casimir identity n={n}", "casimir-difference-identity",
                            lhs == cas.act(seq.P[n])))
    return checks


# ---------------------------------------------------------------------------
# Symmetry equations for second-order operators against the weight
# ---------------------------------------------------------------------------


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


def weight_scaled(spec: WeightSpec) -> ScaledMat:
    return ScaledMat(spec.nu, weight_polynomial_part(spec))


def diagonal_weight_scaled(spec: WeightSpec) -> ScaledMat:
    return ScaledMat(spec.nu, diagonal_part(spec))


def verify_symmetry_conditions(d: DiffOp, w: ScaledMat, label: str) -> list[dict]:
    """The three algebraic symmetry equations for a second-order operator
    against a weight, as exact identities between matrix polynomials.
    Boundary conditions are assumptions carried by nu > 0, not checks."""
    f0, f1, f2 = d.coeff(0), d.coeff(1), d.coeff(2)
    c1 = w.lmul(f2) - w.rmul(f2.transpose())
    c2 = w.lmul(f2).dx().scale(2) - w.lmul(f1) - w.rmul(f1.transpose())
    c3 = w.lmul(f2).dx().dx() - w.lmul(f1).dx() + w.lmul(f0) - w.rmul(f0.transpose())
    return [
        check(f"symmetry-1 {label}", "weight-symmetry", c1.is_zero()),
        check(f"symmetry-2 {label}", "weight-symmetry", c2.is_zero()),
        check(f"symmetry-3 {label}", "weight-symmetry", c3.is_zero()),
    ]
