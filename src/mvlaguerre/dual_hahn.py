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
form: an alternating sign (-1)^{j-1}, anchoring to xi(n,i,1) instead of an
implicit unit seed, and evaluation at the lattice node N - i:

    xi(n,i,j) = (-1)^{j-1} (n+i) (-(N-1))_{j-1} / (n+i-j+1)_j
                * T_{j-1}(lambda(N-i); gamma, n+i-N, N-1) * xi(n,i,1).

The printed variant's status is reported next to every corrected check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .engine import OPSeq, check
from .laguerre_forms import XiTable
from .matrices import MatPoly, MatQ, build_K, exp_nilpotent
from .operators import DiffOp, ScaledMat, verify_symmetry_conditions
from .scalar import DomainError, dual_hahn, dual_hahn_via_recurrence, pochhammer, rat
from .weights import WeightSpec, weight_polynomial_part


@dataclass(frozen=True)
class DHParams:
    N: int
    nu: Fraction
    c: Fraction
    d: Fraction
    delta_nu: tuple
    delta_nu1: tuple

    @property
    def gamma(self) -> Fraction:
        return self.c / self.d

    # built once per family (cached_property bypasses the frozen __setattr__)
    @cached_property
    def spec(self) -> WeightSpec:
        """The weight whose multipliers the dual Hahn forms describe: a_k = -1."""
        return WeightSpec(self.N, self.nu, (-1,) * (self.N - 1), self.delta_nu)

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
    if any(v <= 0 for v in delta):
        raise DomainError("constructed delta family is not positive")
    delta1 = tuple((d * k + c) * delta[k - 1] for k in range(1, n_dim + 1))
    params = DHParams(n_dim, nu, c, d, tuple(delta), delta1)
    errs = check_conditions(params)
    if errs:
        raise DomainError("; ".join(errs))
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


def verify_gauge_ratio(params: DHParams, n: int, i: int) -> list[dict]:
    """eps_{j+1} = (n+i-j)(dj+c) eps_j for 0 <= j < n+i (stated as the ratio
    eps_j/eps_{j+1} M_j = 1; the product form stays meaningful at c = 0
    where eps_1 vanishes)."""
    eps = epsilon_seq(n, i, params, n + i)
    ok = all(eps[j + 1] == (n + i - j) * (params.d * j + params.c) * eps[j]
             for j in range(n + i))
    ratio_ok = all(
        eps[j] * (n + i - j) * (params.d * j + params.c) == eps[j + 1]
        for j in range(n + i))
    return [check(f"gauge ratio n={n},i={i}", "gauge-ratio",
                  ok and ratio_ok)]


def _ef_coeffs(params: DHParams, n: int, i: int, j: int):
    g = params.gamma
    nn = params.N
    e_j = (n + i - j) * (j + g) + (j - 1) * (nn - j + 1) + n * (i - nn - 1 - g)
    f_j = (j - 1) * (nn - j + 1) * (n + i - j + 1) * (params.d * (j - 1) + params.c)
    return e_j, f_j


def verify_q_recursions(xi: XiTable, params: DHParams) -> list[dict]:
    """Three-term relations of the gauge sequences q_j = eps_j xi(n,i,j) and
    qt_j = d^{-j} q_j.  The oracle sign is -E_j on the middle term; the
    printed +E_j variant is reported."""
    checks = []
    d = params.d
    for n in range(xi.n_max + 1):
        for i in range(1, params.N + 1):
            top = min(params.N, n + i)
            if top < 2:
                continue
            eps = epsilon_seq(n, i, params, min(top, n + i))
            q = {j: eps[j] * xi.get(n, i, j) for j in range(1, top + 1)}
            qt = {j: q[j] / d ** j for j in q}
            corr_ok, disp_ok = True, True
            for j in range(1, top):
                if n + i - j <= 0:
                    continue
                e_j, f_j = _ef_coeffs(params, n, i, j)
                prev = q.get(j - 1, Fraction(0))  # j = 1 term carries F_1 = 0
                if -e_j * q[j] + f_j * prev + q[j + 1] / d != 0:
                    corr_ok = False
                if e_j * q[j] + f_j * prev + q[j + 1] / d != 0:
                    disp_ok = False
                ft = f_j / d
                prev_t = qt.get(j - 1, Fraction(0))
                if -e_j * qt[j] + ft * prev_t + qt[j + 1] != 0:
                    corr_ok = False
            checks.append(check(f"q three-term n={n},i={i}", "gauge-three-term",
                                corr_ok, displayed_form_pass=disp_ok))
    return checks


def lattice_node(params: DHParams, i: int) -> int:
    """The dual Hahn lattice point the multipliers sit on: x = N - i."""
    return params.N - i


def xi_dual_hahn(n: int, i: int, j: int, params: DHParams, xi_ni1) -> Fraction:
    """Corrected closed form, anchored at xi(n,i,1); exact for n+i-j > 0.

    The gamma-Pochhammer of the printed form cancels against the epsilon
    product, which is what keeps c = 0 in the domain."""
    if n + i - j <= 0:
        raise DomainError("closed form needs n+i-j > 0")
    nn = params.N
    t = dual_hahn(j - 1, lattice_node(params, i), params.gamma, n + i - nn, nn - 1)
    sign = Fraction(-1) ** (j - 1)
    return sign * (n + i) * pochhammer(-(nn - 1), j - 1) \
        / pochhammer(n + i - j + 1, j) * t * rat(xi_ni1)


def xi_dual_hahn_displayed(n: int, i: int, j: int, params: DHParams) -> Fraction:
    """The closed form exactly as printed: d^j (gamma+1)_{j-1} (-(N-1))_{j-1}
    / eps_j times the dual Hahn value at x^{(n,i)} = (gamma+1)(N+i-2) -
    n(N-i).  Kept for the discrepancy report; needs c > 0."""
    nn = params.N
    g = params.gamma
    eps = epsilon_seq(n, i, params, j)
    if eps[j] == 0:
        raise DomainError("printed form divides by a vanishing epsilon")
    x_disp = (g + 1) * (nn + i - 2) - n * (nn - i)
    t = dual_hahn(j - 1, x_disp, g, n + i - nn, nn - 1)
    return params.d ** j * pochhammer(g + 1, j - 1) * pochhammer(-(nn - 1), j - 1) \
        / eps[j] * t


def verify_dual_hahn_closed_form(xi: XiTable, params: DHParams) -> list[dict]:
    checks = []
    for n in range(xi.n_max + 1):
        for i in range(1, params.N + 1):
            corr_ok, disp_ok = True, True
            tested = False
            for j in range(1, min(params.N, n + i - 1) + 1):
                if n + i - j <= 0:
                    continue
                tested = True
                val = xi_dual_hahn(n, i, j, params, xi.get(n, i, 1))
                if val != xi.get(n, i, j):
                    corr_ok = False
                if params.c > 0:
                    try:
                        disp = xi_dual_hahn_displayed(n, i, j, params)
                        if disp != xi.get(n, i, j):
                            disp_ok = False
                    except DomainError:
                        disp_ok = False
                else:
                    disp_ok = False
            if tested:
                checks.append(check(f"dual Hahn closed form n={n},i={i}",
                                    "dual-hahn-closed-form", corr_ok,
                                    displayed_form_pass=disp_ok))
    cross = all(
        dual_hahn(k, lattice_node(params, i), params.gamma, n + i - params.N,
                  params.N - 1)
        == dual_hahn_via_recurrence(k, lattice_node(params, i), params.gamma,
                                    n + i - params.N, params.N - 1)
        for n in range(xi.n_max + 1) for i in range(1, params.N + 1)
        for k in range(params.N))
    checks.append(check("3F2 equals recurrence at used arguments",
                        "dual-hahn-recurrence", cross))
    return checks


def verify_boundary_recursion(xi: XiTable, params: DHParams) -> list[dict]:
    """Along the antidiagonal j = n+i the oracle forces

        xi(n,i,j-1) = (1 - n(gamma+N+1-i)/((j-1)(N-j+1))) xi(n,i,j);

    the printed factor (n(N+1-i)(i-1)/((j-1)(N-j+1)) + 1) is reported."""
    checks = []
    g = params.gamma
    nn = params.N
    corr_ok, disp_ok, tested = True, True, False
    for n in range(xi.n_max + 1):
        for i in range(1, nn + 1):
            j = n + i
            if j <= 1 or j > nn:
                continue
            tested = True
            corr = (1 - Fraction(n) * (g + nn + 1 - i) / ((j - 1) * (nn - j + 1)))
            if xi.get(n, i, j - 1) != corr * xi.get(n, i, j):
                corr_ok = False
            disp = (Fraction(n) * (nn + 1 - i) * (i - 1) / ((j - 1) * (nn - j + 1)) + 1)
            if xi.get(n, i, j - 1) != disp * xi.get(n, i, j):
                disp_ok = False
    if tested:
        checks.append(check("boundary recursion j=n+i", "dual-hahn-boundary-recursion",
                            corr_ok, displayed_form_pass=disp_ok))
    return checks


def derivative_coupling_matrices(params: DHParams):
    """C = (dJ+c)(nu+J+1) + ((Delta_nu)^{-1} A Delta_{nu+1})^T and the
    n-scaling D_n = n (d(J-N-1) - c), all exact."""
    spec = params.spec
    a, j, i = spec.A, spec.J, MatQ.identity(params.N)
    dinv = MatQ.diag([1 / v for v in params.delta_nu])
    d1 = MatQ.diag(params.delta_nu1)
    m_star = (dinv * a * d1).transpose()
    c_mat = (j * params.d + i * params.c) * (j + i * (params.nu + 1)) + m_star
    return c_mat, m_star


def verify_derivative_coupling(seq: OPSeq, params: DHParams) -> list[dict]:
    """(R'(0,n) - R(0,n) A) C = n (d(J-N-1)-c) R(0,n) exactly for every n;
    also reports the printed sign of the transposed-conjugate entry."""
    nn = params.N
    a, j, i = seq.spec.A, seq.spec.J, MatQ.identity(nn)
    c_mat, m_star = derivative_coupling_matrices(params)
    checks = []
    for n, r in enumerate(seq.R):
        r0 = r(0)
        r0p = r.derivative()(0)
        lhs = (r0p - r0 * a) * c_mat
        d_n = (j * params.d - i * (params.d * (nn + 1) + params.c)) * n
        checks.append(check(f"derivative coupling n={n}", "derivative-coupling-at-zero",
                            lhs == d_n * r0))
    disp_entry_ok = all(
        m_star[k - 1, k] == params.d * k * (nn - k) for k in range(1, nn))
    corr_entry_ok = all(
        m_star[k - 1, k] == -params.d * k * (nn - k) for k in range(1, nn))
    checks.append(check("conjugated-diagonal entry sign", "conjugated-coupling-entry",
                        corr_entry_ok, displayed_form_pass=disp_entry_ok))
    return checks


# ---------------------------------------------------------------------------
# Degree-(2,1) Pearson pair
# ---------------------------------------------------------------------------


def phi_psi(params: DHParams):
    """The degree-2 and degree-1 matrix polynomials carrying the weight from
    level nu to nu+1, built through the nilpotent-exponential conjugations.

    Returns (Phi, Psi, checks): the checks confirm the defining identities
    W Phi = W^{+} and W Psi = (W^{+})' as exact identities between matrix
    polynomials, the degrees, and the conjugated closed form x(dJ+c).  Both
    levels are written in the basis of l0 = K_0^{-1} at level nu."""
    nn = params.N
    spec = params.spec
    a, j, i = spec.A, spec.J, MatQ.identity(nn)
    # l0 = K_0^{-1} of this weight: unipotent lower triangular, (m,n) entry
    # (nu+n+1)_{m-n} / (m-n)!; its inverse is K_0
    l0 = build_K(0, params.nu, -a)
    l0_inv = build_K(0, params.nu, a)
    l0_star_inv = l0_inv.transpose()
    djc = j * params.d + i * params.c
    ex_pos = exp_nilpotent(a, +1)   # e^{xA}
    ex_neg = exp_nilpotent(a, -1)   # e^{-xA}
    ex_pos_t, ex_neg_t = ex_pos.transpose(), ex_neg.transpose()
    _, m_star = derivative_coupling_matrices(params)
    m_const = m_star.transpose()   # Delta_nu^{-1} A Delta_{nu+1}

    inner_phi = MatPoly.monomial(1, djc)
    phi = l0_star_inv * (ex_neg_t * inner_phi * ex_pos_t) * l0.transpose()

    inner_psi = MatPoly.const(m_const + djc * (j + i * (params.nu + 1))) \
        - MatPoly.monomial(1, djc) + MatPoly.monomial(1, djc * a.transpose())
    psi = l0_star_inv * (ex_neg_t * inner_psi * ex_pos_t) * l0.transpose()

    checks = [
        check("deg Phi", "pearson-pair", phi.degree == (2 if nn >= 2 else 1)),
        check("deg Psi", "pearson-pair", psi.degree == 1),
    ]

    spec_nu1 = replace(spec, nu=spec.nu + 1, delta=params.delta_nu1)
    w_nu = ScaledMat(spec.nu, l0 * weight_polynomial_part(spec) * l0.transpose())
    w_nu1 = ScaledMat(spec_nu1.nu, l0 * weight_polynomial_part(spec_nu1) * l0.transpose())
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

