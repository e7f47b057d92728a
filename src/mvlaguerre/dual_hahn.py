"""The constrained diagonal-weight families and the dual Hahn closed form
for the Laguerre multipliers.

The shift matrix is fixed to subdiagonal -1 (unit mu sequence) and the
diagonal weights are built from two rationals c >= 0, d > 0:

    delta_1 = 1,  delta_{k+1} = (dk+c) delta_k / (dk(N-k)),
    delta^{(nu+1)}_k = (dk+c) delta^{(nu)}_k,

which makes both compatibility conditions hold exactly by construction and
keeps every quantity rational.

With gamma = c/d, the interior multipliers along a fixed row pair (n, i)
satisfy an exact three-term recursion whose normalized solution is a dual
Hahn evaluation.  The oracle fixes three corrections to the printed closed
form: an alternating sign (-1)^{j-1}, a closed anchor xi(n,i,1) in place of
an implicit unit seed, and evaluation at the lattice node N - i:

    xi(n,i,j) = (-1)^{j-1} (n+i) (-(N-1))_{j-1} / (n+i-j+1)_j
                * T_{j-1}(lambda(N-i); gamma, n+i-N, N-1) * xi(n,i,1),
    xi(n,i,1) = (-1)^n (i)_n (gamma+1)_n / (N+gamma+1-i)_n.

Neither reads nu, and neither reads the oracle: the closed form is formed
from the parameters alone, so every term it is checked on, j = 1 too,
compares two computations.  The printed variant's status is reported next
to every corrected check.

Each row (n, i) of a family is formed once, by `DHParams.row`: its gauge
sequence eps_0..eps_{n+i}, its dual Hahn values T_k, k < N, and its anchor,
which every check of the row, and `xi_dual_hahn`, read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .engine import OPSeq, check, quoted_check
from .laguerre_forms import XiTable
from .matrices import MatPoly, MatQ, build_K
from .operators import DiffOp, verify_symmetry_conditions
from .scalar import DomainError, dual_hahn, dual_hahn_via_recurrence, pochhammer, rat
from .weights import Frozen, ScaledMat, WeightSpec


class DHParams(Frozen):
    """A constrained family: size N, exponent nu, the rationals c and d, and
    the diagonal weights at levels nu and nu+1.

    It also owns the rows of its xi table: `row(n, i)` is made on first
    read and kept, and each of its two sequences is formed on first read
    (see `DHRow`)."""

    _fields = ("N", "nu", "c", "d", "delta_nu", "delta_nu1")

    def __init__(self, N: int, nu: Fraction, c: Fraction, d: Fraction,
                 delta_nu: tuple, delta_nu1: tuple):
        self.__dict__.update(N=N, nu=nu, c=c, d=d, delta_nu=delta_nu, delta_nu1=delta_nu1,
                             _rows={})

    def row(self, n: int, i: int) -> "DHRow":
        """The row (n, i), made once per family, as OPSeq.h_inv keeps each
        H_n^{-1}."""
        if (n, i) not in self._rows:
            self._rows[n, i] = DHRow(self, n, i)
        return self._rows[n, i]

    # built once per family
    @cached_property
    def gamma(self) -> Fraction:
        return self.c / self.d

    @cached_property
    def spec(self) -> WeightSpec:
        """The weight whose multipliers the dual Hahn forms describe: a_k = -1."""
        return WeightSpec(self.N, self.nu, (-1,) * (self.N - 1), self.delta_nu)

    @cached_property
    def spec_nu1(self) -> WeightSpec:
        """The weight at level nu+1, with the diagonal weights delta_nu1."""
        return WeightSpec(self.N, self.nu + 1, self.spec.a, self.delta_nu1)

    @cached_property
    def coupling(self) -> tuple:
        """(C, M*): M* = ((Delta_nu)^{-1} A Delta_{nu+1})^T and the coupling
        C = (dJ+c)(nu+J+1) + M*, exact."""
        a, j, i = self.spec.A, self.spec.J, MatQ.identity(self.N)
        m_star = (MatQ.diag([1 / v for v in self.delta_nu]) * a
                  * MatQ.diag(self.delta_nu1)).transpose()
        return (j * self.d + i * self.c) * (j + i * (self.nu + 1)) + m_star, m_star

    def to_dict(self) -> dict:
        from .scalar import rat_str

        return {
            "N": self.N,
            "nu": rat_str(self.nu),
            "c": rat_str(self.c),
            "d": rat_str(self.d),
            "delta_nu": [rat_str(v) for v in self.delta_nu],
            "delta_nu1": [rat_str(v) for v in self.delta_nu1],
        }


def build_delta_family(n_dim: int, nu, c, d) -> DHParams:
    """Construct the two diagonal families from (c, d) and verify both
    compatibility conditions exactly; reject parameters that break
    positivity."""
    nu, c, d = rat(nu), rat(c), rat(d)
    if d <= 0:
        raise DomainError("d must be positive")
    if any(d * k + c <= 0 for k in range(1, n_dim + 1)):
        raise DomainError("d*k + c must be positive for k = 1..N")
    delta = [Fraction(1)]
    for k in range(1, n_dim):
        delta.append((d * k + c) * delta[-1] / (d * k * (n_dim - k)))
    delta1 = tuple((d * k + c) * delta[k - 1] for k in range(1, n_dim + 1))
    params = DHParams(n_dim, nu, c, d, tuple(delta), delta1)
    errs = check_conditions(params)
    if errs:
        raise DomainError("; ".join(errs))
    return params


def family_of(spec: WeightSpec) -> DHParams | None:
    """The constructed family (c, d) = (gamma, 1) whose delta ratios are
    those of `spec`, when spec has a = -1 and one gamma >= 0 fits every
    ratio delta_{k+1}/delta_k = (k+gamma)/(k(N-k)); None otherwise."""
    if any(v != -1 for v in spec.a):
        return None
    gammas = {spec.delta[k] / spec.delta[k - 1] * k * (spec.N - k) - k
              for k in range(1, spec.N)}
    if len(gammas) != 1 or min(gammas) < 0:
        return None
    params = build_delta_family(spec.N, spec.nu, gammas.pop(), 1)
    if params.spec == spec:
        params.__dict__["spec"] = spec  # the same weight: share its cached forms
    return params


def check_conditions(params: DHParams) -> list[str]:
    """Exact verification of the two conditions for an arbitrary family
    (unit mu sequence); returns a list of violations."""
    errs = []
    for k in range(1, params.N + 1):
        if params.delta_nu1[k - 1] != (params.d * k + params.c) * params.delta_nu[k - 1]:
            errs.append(f"shifted-family condition fails at k={k}")
    for k in range(1, params.N):
        lhs = Fraction(1)  # mu_{k+1}^2 / mu_k^2 with mu = 1
        rhs = params.d * k * (params.N - k) * params.delta_nu[k] / params.delta_nu1[k - 1]
        if lhs != rhs:
            errs.append(f"mu-ratio condition fails at k={k}")
    return errs


def epsilon_seq(n: int, i: int, params: DHParams, j_max: int) -> list:
    """eps_0 = 1, eps_j = (n+i-j+1) (d(j-1)+c) eps_{j-1} for n+i-j >= 0."""
    if j_max > n + i:
        raise DomainError("epsilon sequence defined only for j <= n+i")
    eps = [Fraction(1)]
    for j in range(1, j_max + 1):
        eps.append((n + i - j + 1) * (params.d * (j - 1) + params.c) * eps[-1])
    return eps


def _t_arguments(params: DHParams, n: int, i: int) -> tuple:
    """(x, gamma, delta, M) of the dual Hahn values T_k the closed form at
    (n, i) reads: the node x = N - i, delta = n + i - N and M = N - 1."""
    return params.N - i, params.gamma, n + i - params.N, params.N - 1


class DHRow:
    """The row (n, i) of a constrained family: its gauge sequence, its dual
    Hahn values and its anchor xi(n,i,1), each formed on first read."""

    def __init__(self, params: DHParams, n: int, i: int):
        self.params, self.n, self.i = params, n, i

    @cached_property
    def eps(self) -> list:
        """eps_0..eps_{n+i}, by `epsilon_seq`."""
        return epsilon_seq(self.n, self.i, self.params, self.n + self.i)

    @cached_property
    def t(self) -> list:
        """T_k(lambda(N-i); gamma, n+i-N, N-1) for k < N, each a 3F2 sum."""
        args = _t_arguments(self.params, self.n, self.i)
        return [dual_hahn(k, *args) for k in range(self.params.N)]

    @cached_property
    def anchor(self) -> Fraction:
        """xi(n,i,1) = (-1)^n (i)_n (gamma+1)_n / (N+gamma+1-i)_n.  The
        denominator never vanishes: d + c > 0 makes gamma > -1, so every
        factor is at least N+gamma+1-i >= gamma+1 > 0."""
        n, i, g, nn = self.n, self.i, self.params.gamma, self.params.N
        return (-1) ** n * pochhammer(i, n) * pochhammer(g + 1, n) / pochhammer(nn + g + 1 - i, n)


def verify_gauge_ratio(params: DHParams, n: int, i: int) -> list[dict]:
    """The sequence of the ratio eps_j/eps_{j+1} M_j = 1, that is
    eps_{j+1} = (n+i-j)(dj+c) eps_j from eps_0 = 1, against its closed form
    eps_j = (n+i)!/(n+i-j)! prod_{m<j} (dm+c) for 0 <= j <= n+i (the product
    form stays meaningful at c = 0, where eps_1 vanishes)."""
    eps = params.row(n, i).eps
    ok = all(eps[j] == math.perm(n + i, j)
             * math.prod(params.d * m + params.c for m in range(j))
             for j in range(n + i + 1))
    return [check(f"gauge ratio n={n},i={i}", "gauge-ratio", ok)]


def _ef_coeffs(params: DHParams, n: int, i: int, j: int):
    g = params.gamma
    nn = params.N
    e_j = (n + i - j) * (j + g) + (j - 1) * (nn - j + 1) + n * (i - nn - 1 - g)
    f_j = (j - 1) * (nn - j + 1) * (n + i - j + 1) * (params.d * (j - 1) + params.c)
    return e_j, f_j


def verify_q_recursions(xi: XiTable, params: DHParams) -> list[dict]:
    """Three-term relations -E_j q_j + F_j q_{j-1} + q_{j+1}/d = 0 of the
    gauge sequences q_j = eps_j xi(n,i,j); the printed +E_j variant is
    reported.  The relation of qt_j = d^{-j} q_j is this one times d^{-j},
    so it holds exactly where this one does."""
    checks = []
    d = params.d
    for n in range(xi.n_max + 1):
        for i in range(1, params.N + 1):
            top = min(params.N, n + i)
            eps = params.row(n, i).eps
            # q_0 = 0 stands in for the j = 1 term, which carries F_1 = 0
            q = [Fraction(0)] + [eps[j] * xi.get(n, i, j) for j in range(1, top + 1)]

            def relation(j):
                e_j, f_j = _ef_coeffs(params, n, i, j)
                return (-e_j * q[j] + f_j * q[j - 1] + q[j + 1] / d == 0,
                        e_j * q[j] + f_j * q[j - 1] + q[j + 1] / d == 0)

            checks += quoted_check(f"q three-term n={n},i={i}", "gauge-three-term",
                                   [relation(j) for j in range(1, top)])
    return checks


def xi_dual_hahn(n: int, i: int, j: int, params: DHParams) -> Fraction:
    """Corrected closed form; exact for n+i-j > 0 and 1 <= j <= N.  It reads
    T_{j-1} and the anchor xi(n,i,1) off `params.row(n, i)`, so each 3F2
    sum is made once per family, whoever reads it first, and no value of
    the oracle enters.

    The gamma-Pochhammer of the printed form cancels against the epsilon
    product, which is what keeps c = 0 in the domain."""
    if n + i - j <= 0:
        raise DomainError("closed form needs n+i-j > 0")
    if not 1 <= j <= params.N:
        raise DomainError(f"closed form needs 1 <= j <= N (got j={j})")
    row = params.row(n, i)
    sign = Fraction(-1) ** (j - 1)
    return sign * (n + i) * pochhammer(-(params.N - 1), j - 1) \
        / pochhammer(n + i - j + 1, j) * row.t[j - 1] * row.anchor


def xi_dual_hahn_displayed(n: int, i: int, j: int, params: DHParams) -> Fraction:
    """The closed form exactly as printed: d^j (gamma+1)_{j-1} (-(N-1))_{j-1}
    / eps_j times the dual Hahn value at x^{(n,i)} = (gamma+1)(N+i-2) -
    n(N-i), with eps_j read off `params.row(n, i)`.  Kept for the
    discrepancy report; needs c > 0 and j <= n+i."""
    if j > n + i:
        raise DomainError("epsilon sequence defined only for j <= n+i")
    nn = params.N
    g = params.gamma
    eps_j = params.row(n, i).eps[j]
    if eps_j == 0:
        raise DomainError("printed form divides by a vanishing epsilon")
    x_disp = (g + 1) * (nn + i - 2) - n * (nn - i)
    t = dual_hahn(j - 1, x_disp, g, n + i - nn, nn - 1)
    return params.d ** j * pochhammer(g + 1, j - 1) * pochhammer(-(nn - 1), j - 1) \
        / eps_j * t


def verify_dual_hahn_closed_form(xi: XiTable, params: DHParams) -> list[dict]:
    """The corrected closed form `xi_dual_hahn` against the xi table at
    every (n, i, j) with n + i - j > 0, with the printed form reported, and
    the 3F2 sum against the recurrence at every argument set (n, i, k < N).
    Both read the T_k of `params.row(n, i)`, so each is summed once.  The
    closed form reads its anchor off the row too, so the j = 1 term tests
    the anchor against the table."""
    checks = []
    cross = True
    for n in range(xi.n_max + 1):
        for i in range(1, params.N + 1):
            args = _t_arguments(params, n, i)
            cross = cross and all(tk == dual_hahn_via_recurrence(k, *args)
                                  for k, tk in enumerate(params.row(n, i).t))
            checks += quoted_check(
                f"dual Hahn closed form n={n},i={i}", "dual-hahn-closed-form",
                [(xi_dual_hahn(n, i, j, params) == xi.get(n, i, j),
                  params.c > 0 and xi_dual_hahn_displayed(n, i, j, params) == xi.get(n, i, j))
                 for j in range(1, min(params.N, n + i - 1) + 1)])
    checks.append(check("3F2 equals recurrence at used arguments",
                        "dual-hahn-recurrence", cross))
    return checks


def verify_boundary_recursion(xi: XiTable, params: DHParams) -> list[dict]:
    """Along the antidiagonal j = n+i the oracle forces

        xi(n,i,j-1) = (1 - n(gamma+N+1-i)/((j-1)(N-j+1))) xi(n,i,j);

    the printed factor (n(N+1-i)(i-1)/((j-1)(N-j+1)) + 1) is reported."""
    g = params.gamma
    nn = params.N

    def factors(n, i):
        j = n + i
        corr = 1 - Fraction(n) * (g + nn + 1 - i) / ((j - 1) * (nn - j + 1))
        disp = Fraction(n) * (nn + 1 - i) * (i - 1) / ((j - 1) * (nn - j + 1)) + 1
        return (xi.get(n, i, j - 1) == corr * xi.get(n, i, j),
                xi.get(n, i, j - 1) == disp * xi.get(n, i, j))

    return quoted_check("boundary recursion j=n+i", "dual-hahn-boundary-recursion",
                        [factors(n, i) for n in range(xi.n_max + 1)
                         for i in range(1, nn + 1) if 1 < n + i <= nn])


def verify_derivative_coupling(seq: OPSeq, params: DHParams) -> list[dict]:
    """(R'(0,n) - R(0,n) A) C = n (d(J-N-1)-c) R(0,n) exactly for every n;
    also reports the printed sign of the transposed-conjugate entry."""
    nn = params.N
    a, j, i = seq.spec.A, seq.spec.J, MatQ.identity(nn)
    c_mat, m_star = params.coupling
    checks = []
    for n, r in enumerate(seq.R):
        r0, r0p = r.coeff(0), r.coeff(1)
        lhs = (r0p - r0 * a) * c_mat
        d_n = (j * params.d - i * (params.d * (nn + 1) + params.c)) * n
        checks.append(check(f"derivative coupling n={n}", "derivative-coupling-at-zero",
                            lhs == d_n * r0))
    checks += quoted_check("conjugated-diagonal entry sign", "conjugated-coupling-entry",
                           [(m_star[k - 1, k] == -params.d * k * (nn - k),
                             m_star[k - 1, k] == params.d * k * (nn - k)) for k in range(1, nn)])
    return checks


# ---------------------------------------------------------------------------
# Degree-(2,1) Pearson pair
# ---------------------------------------------------------------------------


def phi_psi(params: DHParams, seq: OPSeq):
    """The degree-2 and degree-1 matrix polynomials carrying the weight from
    level nu to nu+1, built through the nilpotent-exponential conjugations.

    Returns (Phi, Psi, checks): the checks confirm the defining identities
    W Phi = W^{+} and W Psi = (W^{+})' as exact identities between matrix
    polynomials, the degrees, and the conjugated closed form x(dJ+c).  Both
    levels are written in the basis of l0 = K_0^{-1} at level nu, read off
    `seq`, a family of params.spec (of any degree); a family of another
    weight raises ValueError."""
    nn = params.N
    spec = params.spec
    if seq.spec != spec:
        raise ValueError("phi_psi needs a family of the constrained weight")
    a, j, i = spec.A, spec.J, MatQ.identity(nn)
    # l0 = K_0^{-1} of this weight: unipotent lower triangular, (m,n) entry
    # (nu+n+1)_{m-n} / (m-n)!; its inverse is K_0
    l0 = seq.K_inv[0]
    l0_inv = build_K(0, params.nu, a)
    l0_star_inv = l0_inv.transpose()
    djc = j * params.d + i * params.c
    ex_pos, ex_neg = spec.exp_xA, spec.exp_neg_xA
    ex_pos_t, ex_neg_t = ex_pos.transpose(), ex_neg.transpose()
    m_const = params.coupling[1].transpose()   # Delta_nu^{-1} A Delta_{nu+1}

    inner_phi = MatPoly.monomial(1, djc)
    phi = l0_star_inv * (ex_neg_t * inner_phi * ex_pos_t) * l0.transpose()

    inner_psi = MatPoly.const(m_const + djc * (j + i * (params.nu + 1))) \
        - MatPoly.monomial(1, djc) + MatPoly.monomial(1, djc * a.transpose())
    psi = l0_star_inv * (ex_neg_t * inner_psi * ex_pos_t) * l0.transpose()

    checks = [
        check("deg Phi", "pearson-pair", phi.degree == (2 if nn >= 2 else 1)),
        check("deg Psi", "pearson-pair", psi.degree == 1),
    ]

    w_nu, w_nu1 = (ScaledMat(w.s, l0 * w.body * l0.transpose())
                   for w in (spec.weight, params.spec_nu1.weight))
    checks.append(check("W Phi = W(nu+1)", "pearson-pair",
                        (w_nu.rmul(phi) - w_nu1).is_zero()))
    checks.append(check("W Psi = d/dx W(nu+1)", "pearson-pair",
                        (w_nu.rmul(psi) - w_nu1.dx()).is_zero()))

    conj = ex_neg * (l0_inv * phi.transpose() * l0) * ex_pos
    checks.append(check("conjugated Phi* form", "pearson-conjugated-form",
                        conj == MatPoly.monomial(1, djc)))

    d2 = DiffOp([MatPoly.zero(nn), psi.transpose(), phi.transpose()])
    checks.extend(verify_symmetry_conditions(d2, w_nu, "D2 vs W(alpha,nu)"))
    return phi, psi, checks

