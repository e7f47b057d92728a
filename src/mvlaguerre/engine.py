"""Monic matrix-valued orthogonal polynomials by block Gram-Schmidt on the
moment table.  This is the oracle every closed form in the package is
checked against: orthogonalization uses nothing but the inner product.
The family it returns, `OPSeq`, also owns every per-degree object derived
from it (H_n^{-1}, C_n, H_n J H_n^{-1}, the coupling T_n, Gamma_n, K_n,
K_n^{-1}, Q(x,n), R(x,n), G(n), I(n), the xi step ratios and the xi table),
each built at most once, on first use.  The moment table is read only
through `weights.moment_row` and `weights.pair_row`.  Every other sum of
block products here (the projections, each coefficient of the three-term
recurrence) is fused into one `MatQ.dot` with a single gcd pass; the
canonical form is unique, so regrouping a sum this way is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, wraps

from .matrices import MatPoly, MatQ, SingularMatrixError, build_K
from .scalar import RPoly, rat
from .weights import MomentTable, WeightSpec, moment_row, pair_row


def check(check_id: str, equation: str, ok, **extra) -> dict:
    """One verdict: {check_id, equation, pass, ...extra}.  Every suite in
    the package builds its checks with this."""
    return {"check_id": check_id, "equation": equation, "pass": bool(ok), **extra}


def quoted_check(check_id: str, equation: str, verdicts: list) -> list[dict]:
    """A corrected form beside its printed variant, from one (corrected
    holds, printed holds) pair per compared entry: `pass` is the conjunction
    of the first items and `displayed_form_pass` of the second.  No pairs
    give no check, so a variant is reported only where it compared at least
    one entry."""
    if not verdicts:
        return []
    return [check(check_id, equation, all(c for c, _ in verdicts),
                  displayed_form_pass=all(p for _, p in verdicts))]


def _inverse(h: MatQ, m: int) -> MatQ:
    """H_m^{-1}; a singular H_m raises, naming its degree."""
    try:
        return h.inverse()
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"singular H_{m}; parameters violate the weight invariants"
        ) from exc


def _per_degree(build):
    """A per-degree tuple of the family, built on first use and kept; a
    prefix slices its whole family's tuple instead of building its own."""
    @wraps(build)
    def get(seq):
        if seq._whole is not None:
            return getattr(seq._whole, build.__name__)[:seq.n_max + 1]
        return build(seq)
    return cached_property(get)


class OPSeq:
    """Computed family P_0..P_{n_max} and the matrices derived from it.

    From Gram-Schmidt, stored as tuples so nothing derived can go stale:
    P[n] the monic polynomials and H[n] their Gamma-normalized squared
    norms.  Read off them at construction: X[n] the one-but-leading
    coefficient (X[0] = 0), Y[n] the second-but-leading (Y[0] = Y[1] = 0)
    and B[n] = X[n] - X[n+1] for n <= n_max-1.  `table` is the moment table
    the family was orthogonalized on; inner products of its polynomials are
    `weights.inner_product(p, q, seq.table)`.

    Computed on first use and kept, at most once per family, as tuples over
    n = 0..n_max:
    H_inv[n] = H_n^{-1} (the oracle hands over the H_m^{-1}, m < n_max, it
    used, and the first read adds H_{n_max}^{-1}; a singular H_m raises
    then);
    C[n] = H[n] H_inv[n-1] for 1 <= n <= n_max (C[0] is None);
    HJH[n] = H_n J H_n^{-1};
    T[n] = H_n (A^T - 1) H_{n-1}^{-1}, the down-shift coupling (T[0] is None);
    Gamma[n] = A(n+nu+1+J) - n - J, the second-order eigenvalue, entry by
    entry on the numerators of A;
    K[n] and K_inv[n], the triangularizer K_n = exp(A(n+nu+1+J)) of Gamma_n
    and its inverse, each summed on integers (matrices.build_K);
    Q[n] = P_n e^{xA} and R[n] = K_n^{-1} Q[n];
    G[n] = K_n^{-1} T[n] K_{n-1} (G[0] is None) and I[n] = K_n^{-1} HJH[n] K_n;
    G_ratio[n][i-1] = G(n)_{ii}/(n+nu+i), 1 <= i <= N, the coefficient of the
    two-term xi recursions (G_ratio[0] is None);
    xi, the XiTable read off R (laguerre_forms.extract_xi returns it).
    Everything from Gamma on is a closed form and never enters Gram-Schmidt.
    `prefix(m)` is the family of degrees 0..m, read off this one: a reader
    that needs fewer degrees takes a prefix instead of a second oracle run,
    and the prefix's tuples above and its xi table are slices of this
    family's, built here once over all degrees.
    Two threads racing on first use compute the same exact value, so a
    family is safe to share.
    """

    def __init__(self, spec: WeightSpec, table: MomentTable, P, H, H_inv=()):
        self.spec = spec
        self.table = table
        self.P = tuple(P)
        self.H = tuple(H)
        self.n_max = n_max = len(self.P) - 1
        self._oracle_inverses = tuple(H_inv)  # H_m^{-1} for m < len(H_inv)
        self._whole = None  # the family this one is a proper prefix of
        zero = MatQ.zero(spec.N)
        self.X = tuple(p.coeff(deg - 1) if deg >= 1 else zero for deg, p in enumerate(self.P))
        self.Y = tuple(p.coeff(deg - 2) if deg >= 2 else zero for deg, p in enumerate(self.P))
        self.B = tuple(self.X[k] - self.X[k + 1] for k in range(n_max))

    def prefix(self, m: int) -> "OPSeq":
        """The family of degrees 0..m: `self` at m == n_max, else one sharing
        P[:m+1], H[:m+1] and the moment table, whose H_inv, C, HJH, T, Gamma,
        K, K_inv, Q, R, G, I and G_ratio are the [:m+1] slices of this
        family's and whose xi is this family's table at n <= m (so reading
        any of them builds it here, over every degree).  Monic orthogonal
        polynomials do not depend on how far the family goes, so this equals
        compute_monic_ops(spec, m) but for table depth."""
        if not 0 <= m <= self.n_max:
            raise ValueError(f"prefix degree {m} outside 0..{self.n_max}")
        if m == self.n_max:
            return self
        seq = OPSeq(self.spec, self.table, self.P[:m + 1], self.H[:m + 1])
        seq._whole = self
        return seq

    @_per_degree
    def H_inv(self) -> tuple:
        made = self._oracle_inverses
        return made + tuple(_inverse(h, m) for m, h in enumerate(self.H[len(made):], len(made)))

    @_per_degree
    def C(self) -> tuple:
        return (None,) + tuple(h * inv for h, inv in zip(self.H[1:], self.H_inv))

    @_per_degree
    def HJH(self) -> tuple:
        J = self.spec.J
        return tuple(h * J * inv for h, inv in zip(self.H, self.H_inv))

    @_per_degree
    def T(self) -> tuple:
        at1 = self.spec.at1
        return (None,) + tuple(h * at1 * inv for h, inv in zip(self.H[1:], self.H_inv))

    @_per_degree
    def Gamma(self) -> tuple:
        # entry (r, c), 0-based: A[r,c] (n+nu+2+c) - delta_rc (n+r+1), on the
        # numerators of A over d_A q, with nu = p/q
        spec = self.spec
        a, p, q = spec.A, spec.nu.numerator, spec.nu.denominator
        d = a.d * q
        return tuple(MatQ._canonical([[v * (q * (n + 2 + c) + p) - (r == c) * (n + r + 1) * d
                                       for c, v in enumerate(row)]
                                      for r, row in enumerate(a.num)], d)
                     for n in range(self.n_max + 1))

    @_per_degree
    def K(self) -> tuple:
        spec = self.spec
        return tuple(build_K(n, spec.nu, spec.A) for n in range(self.n_max + 1))

    @_per_degree
    def K_inv(self) -> tuple:
        # K_n^{-1} = exp(-A(n+nu+1+J)) is K_n at -A
        spec = self.spec
        neg_A = -spec.A
        return tuple(build_K(n, spec.nu, neg_A) for n in range(self.n_max + 1))

    @_per_degree
    def Q(self) -> tuple:
        ex = self.spec.exp_xA
        return tuple(p * ex for p in self.P)

    @_per_degree
    def R(self) -> tuple:
        return tuple(kinv * q for kinv, q in zip(self.K_inv, self.Q))

    @_per_degree
    def G(self) -> tuple:
        return (None,) + tuple(kinv * t * k for kinv, t, k in
                               zip(self.K_inv[1:], self.T[1:], self.K))

    @_per_degree
    def I(self) -> tuple:
        return tuple(kinv * hjh * k for kinv, hjh, k in zip(self.K_inv, self.HJH, self.K))

    @_per_degree
    def G_ratio(self) -> tuple:
        # with nu = p/q, G(n)_ii / (n+nu+i) = G_num q / (G_d (q(n+i) + p))
        p, q = self.spec.nu.numerator, self.spec.nu.denominator
        return (None,) + tuple(tuple(Fraction(g.num[r][r] * q, g.d * (q * (n + r + 1) + p))
                                     for r in range(self.spec.N))
                               for n, g in enumerate(self.G[1:], 1))

    @cached_property
    def xi(self):
        if self._whole is not None:
            return self._whole.xi.prefix(self.n_max)
        from .laguerre_forms import read_xi  # it builds on this module

        return read_xi(self)


def compute_monic_ops(spec: WeightSpec, n_max: int) -> OPSeq:
    """Gram-Schmidt the monomials x^n I against the moment inner product.

    P_n = x^n I - sum_{m<n} <x^n I, P_m> H_m^{-1} P_m, one fused sum
    (MatQ.dot) per coefficient.  When P_m is finished its moment row
    <P_m, x^t I> (weights.moment_row) is formed at t = m..n_max, one fused
    sum per entry; every moment is symmetric, so <x^n I, P_m> is the
    transpose of entry t = n.  Since P_n is orthogonal to every lower
    degree, H_n = <P_n, P_n> = <x^n I, P_n>, the transposed first entry of
    P_n's own row.  Each H_m^{-1}, m < n_max, is computed once, when
    degree m+1 first needs it, and handed to the family as the head of its
    H_inv tuple.  The moment table raises
    `UnsupportedWeightError` (a ValueError) for phi other than x.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0 (got n_max={n_max})")
    table = MomentTable(spec, 2 * n_max + 2)
    n, i = spec.N, MatQ.identity(spec.N)
    P: list[MatPoly] = []
    H: list[MatQ] = []
    rows: list[list] = []  # <P_m, x^t I> for t = m..n_max
    inverses: list[MatQ] = []  # H_m^{-1}, m < deg
    for deg in range(n_max + 1):
        terms = [[] for _ in range(deg)]
        if deg:
            inverses.append(_inverse(H[-1], deg - 1))
        for m in range(deg):
            coef = rows[m][deg - m].transpose() * inverses[m]
            for k, c in enumerate(P[m].coeffs):
                terms[k].append((coef, c))
        P.append(MatPoly([-MatQ.dot(t, n) for t in terms] + [i], n))
        rows.append(moment_row(P[-1], table, range(deg, n_max + 1)))
        H.append(rows[-1][0].transpose())
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
    """Exact residual checks for the three-term recurrence
    x P_k = P_{k+1} + B_k P_k + C_k P_{k-1} and the second-coefficient
    recursion.  Coefficient j of the recurrence reads

        P_{k,j-1} = P_{k+1,j} + B_k P_{k,j} + C_k P_{k-1,j},

    one fused sum (MatQ.dot) per coefficient, for j up to
    max(deg P_{k+1}, deg P_k + 1, deg P_{k-1}): a P_{k+1} whose degree
    dropped fails at the top coefficient."""
    n = seq.spec.N
    i = MatQ.identity(n)
    checks = []
    for k in range(seq.n_max):
        up, mid = seq.P[k + 1].coeffs, seq.P[k].coeffs
        low = seq.P[k - 1].coeffs if k >= 1 else ()
        terms = ((i, up), (seq.B[k], mid), (seq.C[k], low))
        ok = all(MatQ.dot([(m, c[j]) for m, c in terms if j < len(c)], n) == seq.P[k].coeff(j - 1)
                 for j in range(max(len(up), len(mid) + 1, len(low))))
        checks.append(check(f"three-term n={k}", "three-term-recurrence", ok))
    for k in range(2, seq.n_max):
        ok = seq.Y[k] == seq.Y[k + 1] + seq.B[k] * seq.X[k] + seq.C[k]
        checks.append(check(f"Y-recursion n={k}", "second-coefficient-recursion", ok))
    return checks


def verify_orthogonality(seq: OPSeq) -> list[dict]:
    """<P_i, P_j> = delta_ij H_i exactly for every pair j < i, positive
    definiteness of every H_i (MatQ.is_positive_definite), and C_i for
    1 <= i <= n_max against <x P_i, P_{i-1}> = C_i H_{i-1} (the three-term
    recurrence), not against the H_i H_{i-1}^{-1} it is built from.  Both
    are pair_row sums <P_i, x^s P_j> (s = 0, and s = 1 for C-ratio) on the
    moment row <P_i, x^b I>, b <= i, of one degree at a time: O(n^3) block
    products for the triangle instead of O(n^4).  A zero block of the row
    (every b < i when P_i is orthogonal to the lower degrees) makes no
    term.  No row outlives its degree."""
    checks = []
    for i, p in enumerate(seq.P):
        row = moment_row(p, seq.table, range(i + 1))
        for j in range(i):
            ip = pair_row(row, seq.P[j], 0)
            checks.append(check(f"orthogonality n={i},m={j}", "orthogonality", ip.is_zero()))
        checks.append(check(f"H-posdef n={i}", "orthogonality",
                            seq.H[i].is_positive_definite()))
        if i >= 1:
            checks.append(check(f"C-ratio n={i}", "recurrence-coefficients",
                                seq.C[i] * seq.H[i - 1] == pair_row(row, seq.P[i - 1], 1)))
    return checks
