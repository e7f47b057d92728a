"""Verification suites, the documented-discrepancy resolutions, and stable
JSON-ready report assembly.

Every check is a dict {check_id, equation, pass, ...}; a report is a list
of checks in deterministic order plus the resolutions of the known printed
ambiguities.  Each resolution must come out definite (exactly one candidate
matches the oracle) or `AmbiguousResolutionError` is raised, failing the
build."""

from __future__ import annotations

from fractions import Fraction

from . import dual_hahn as dh
from . import laguerre_forms as lf
from . import lie_algebra as la
from . import operators as ops
from .engine import (OPSeq, check, compute_monic_ops, scalar_laguerre_monic,
                     verify_orthogonality, verify_three_term)
from .scalar import RPoly, parse_phi, rat_str
from .weights import (WeightSpec, h0_as_displayed, h0_index_corrected, moment,
                      moment_via_expansion)


class AmbiguousResolutionError(AssertionError):
    """An open question failed to resolve to exactly one candidate."""


def sort_checks(checks: list[dict]) -> list[dict]:
    return sorted(checks, key=lambda c: (c["equation"], c["check_id"]))


def all_pass(checks: list[dict]) -> bool:
    return all(c["pass"] for c in checks)


# ---------------------------------------------------------------------------
# Open-question resolutions
# ---------------------------------------------------------------------------


def resolve_h0_pochhammer(spec: WeightSpec) -> dict:
    """Which Pochhammer index in the zeroth-norm closed form reproduces the
    Gamma-integral: the printed (nu)_{i+j-r} or the raised (nu)_{i+j-r+1}."""
    oracle = moment_via_expansion(spec, 0)
    assert oracle == moment(spec, 0)
    displayed = h0_as_displayed(spec) == oracle
    corrected = h0_index_corrected(spec) == oracle
    if displayed == corrected:
        raise AmbiguousResolutionError("H_0 Pochhammer probe is ambiguous")
    return {
        "id": "h0-pochhammer-index",
        "question": "index of the Pochhammer factor in the H_0 closed form",
        "resolution": "(nu)_{i+j-r+1}" if corrected else "(nu)_{i+j-r}",
        "displayed_form_matches": displayed,
        "definitive": True,
    }


def resolve_xi_seed(seq: OPSeq) -> dict:
    """xi(0,1,1): the structural value 1 versus the printed 1/(nu+2)."""
    v = seq.xi.get(0, 1, 1)
    is_one = v == 1
    is_printed = v == Fraction(1) / (seq.spec.nu + 2)
    if is_one == is_printed:
        raise AmbiguousResolutionError("xi(0,1,1) probe is ambiguous")
    return {
        "id": "xi-seed-0-1-1",
        "question": "value of xi(0,1,1)",
        "resolution": rat_str(v),
        "displayed_form_matches": is_printed,
        "definitive": True,
    }


def resolve_i1_boundary(seq: OPSeq) -> dict:
    """The i = 1 antidiagonal relation: derived coefficients
    (G(n+1)_11/(n+nu+2) + 1 - a_1 I(n)_12) and -I(n)_12 G(n)_22/(n+nu+2)
    versus the printed pair."""
    rows = [c for c in lf.verify_displayed_xi_recursions(seq)
            if c["equation"] == "multiplier-boundary-relation"]
    if not rows:
        raise AmbiguousResolutionError("i=1 boundary relation was not exercised")
    derived_ok = all(c["pass"] for c in rows)
    displayed_ok = all(c["displayed_form_pass"] for c in rows)
    if derived_ok == displayed_ok:
        raise AmbiguousResolutionError("i=1 boundary probe is ambiguous")
    return {
        "id": "i1-boundary-N1N2",
        "question": "coefficients of the i=1 boundary two-term relation",
        "resolution": "derived: (G(n+1)_11/(n+nu+2) + 1 - a_1 I(n)_12) xi(n,1,n+1)"
                      " = -I(n)_12 G(n)_22/(n+nu+2) xi(n-1,2,n+1)",
        "displayed_form_matches": displayed_ok,
        "definitive": True,
    }


def resolve_open_questions(seq: OPSeq) -> list[dict]:
    """The three resolutions for the weight of `seq`, read off the xi table
    and G, I the family keeps.  The i = 1 boundary relation first appears
    at n_max = 2, so a shorter family is recomputed to degree 3."""
    if seq.n_max < 2:
        seq = compute_monic_ops(seq.spec, 3)
    return [
        resolve_h0_pochhammer(seq.spec),
        resolve_xi_seed(seq),
        resolve_i1_boundary(seq),
    ]


def display_corrections(checks: list[dict]) -> list[dict]:
    """Collect every check that also evaluated a commonly quoted variant, so
    reports carry the quoted-versus-oracle delta explicitly."""
    out = []
    for c in checks:
        if "displayed_form_pass" in c:
            out.append({
                "check_id": c["check_id"],
                "equation": c["equation"],
                "corrected_form_pass": c["pass"],
                "displayed_form_pass": c["displayed_form_pass"],
            })
    return sorted(out, key=lambda c: (c["equation"], c["check_id"]))


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_oracle(seq: OPSeq) -> list[dict]:
    checks = verify_orthogonality(seq) + verify_three_term(seq)
    if seq.spec.N == 1:
        checks += scalar_reduction_checks(seq)
    return checks


def scalar_reduction_checks(seq: OPSeq) -> list[dict]:
    """N = 1 collapse onto monic scalar Laguerre with alpha = nu + 1,
    computed by the classical recurrence (an independent code path)."""
    alpha = seq.spec.nu + 1
    p_ref, b_ref, c_ref = scalar_laguerre_monic(alpha, seq.n_max)
    ok_p = all(seq.P[n].entry(0, 0) == p_ref[n] for n in range(seq.n_max + 1))
    ok_b = all(seq.B[n][0, 0] == b_ref[n] for n in range(seq.n_max))
    ok_c = all(seq.C[n][0, 0] == c_ref[n] for n in range(1, seq.n_max + 1))
    checks = [check("scalar reduction P", "scalar-reduction", ok_p),
              check("scalar reduction B,C", "scalar-reduction", ok_b and ok_c)]
    if seq.n_max >= 1:
        checks.append(check("scalar reduction X(1)", "scalar-reduction",
                            seq.X[1][0, 0] == -(seq.spec.nu + 2)))
    return checks


def suite_operators(seq: OPSeq) -> list[dict]:
    named = ops.make_named_operators(seq)
    # the adjoint kernels reach moment index a + b + 1
    deg_bound = min(4, (seq.table.depth - 1) // 2)
    checks = []
    checks += ops.verify_adjoint_pair(named["D"], named["Ddag"], seq.table,
                                      deg_bound, "ladder pair")
    checks += ops.verify_adjoint_pair(named["C"], named["C"], seq.table,
                                      deg_bound, "Ax-J self")
    checks += ops.verify_adjoint_pair(named["D2"], named["D2"], seq.table,
                                      deg_bound, "second-order self")
    checks += ops.verify_intertwinings(seq, named)
    checks += ops.verify_general_D_theorem(seq, named)
    checks += ops.verify_star_dagger(seq, named)
    checks += ops.verify_fourier_homomorphism(seq, named)
    checks += ops.verify_bracket_identities(seq, named)
    checks += ops.verify_L_poly(RPoly((0, 0, 1)), seq, named)
    checks += ops.verify_symmetry_conditions(
        named["D2"], ops.weight_scaled(seq.spec), "second-order vs W")
    checks += ops.verify_symmetry_conditions(
        named["DQ2"], ops.diagonal_weight_scaled(seq.spec), "diagonalized vs T")
    return checks


def suite_laguerre(seq: OPSeq) -> list[dict]:
    """The Laguerre-form checks of `seq`."""
    checks = lf.verify_K_properties(seq)
    checks += lf.verify_diagonalization(seq.spec)
    checks += lf.verify_R_eigen(seq)
    xi = lf.extract_xi(seq)
    checks += lf.compute_GI(seq)
    checks += lf.verify_xi_tables(xi, lf.xi_by_recursion(seq))
    checks += lf.verify_displayed_xi_recursions(seq)
    checks += lf.verify_H_recursion(seq)
    checks += lf.verify_X1_bootstrap(seq)
    checks += lf.verify_Q_relation(seq)
    checks += lf.verify_X_recursion(seq)
    return checks


def suite_dualhahn(params: dh.DHParams, seq: OPSeq) -> list[dict]:
    """The dual Hahn checks of a constrained family, given its oracle family
    `seq` (of params.spec)."""
    xi = seq.xi
    checks = [check("delta family conditions", "pearson-compatibility",
                    not dh.check_conditions(params))]
    for n in range(min(2, seq.n_max - 1) + 1):
        for i in range(1, params.N + 1):
            checks += dh.verify_gauge_ratio(params, n, i)
    checks += dh.verify_q_recursions(xi, params)
    checks += dh.verify_dual_hahn_closed_form(xi, params)
    checks += dh.verify_boundary_recursion(xi, params)
    checks += dh.verify_derivative_coupling(seq, params)
    _, _, pchecks = dh.phi_psi(params)
    checks += pchecks
    return checks


LIE_FAMILY = ("x", "x^2", "x^3", "x^3+x^2", "x^4+x", "x^5", "x^5+x^3+1")


def suite_lie(nu=Fraction(1, 2)) -> list[dict]:
    algs = {expr: la.generate_algebra(parse_phi(expr)) for expr in LIE_FAMILY}
    checks = []
    for expr, alg in algs.items():
        checks.append(check(f"closure dim phi={expr}", "closure-dimension",
                            alg.dim == la.dim_formula(alg.phi)))
        checks.append(check(f"jacobi phi={expr}", "lie axioms",
                            alg.axioms["jacobi"] and alg.axioms["antisymmetry"]))
    deg2 = [expr for expr, alg in algs.items() if alg.phi.degree >= 2]
    psi = {expr: la.structural_psi(algs[expr]) for expr in deg2}
    for e1 in deg2:
        for e2 in deg2:
            via_support = la.iso_test(algs[e1].phi, algs[e2].phi)
            via_psi = la.conformal_similar(psi[e1], psi[e2])
            checks.append(check(f"iso agreement {e1} vs {e2}",
                                "isomorphism-classification", via_support == via_psi))
    for expr in deg2:
        rep = la.structure_report(algs[expr])
        checks.append(check(f"structure phi={expr}", "solvable-structure",
                            all_pass(rep["checks"])))
    ext = la.generate_algebra(RPoly.x(), nu=nu)
    checks += la.extended_algebra_report(ext)["checks"]
    dims = [la.generate_algebra(la.exp_series_truncated(t)).dim for t in range(4, 9)]
    checks.append(check("truncated exp-series growth", "closure-dimension",
                        all(a < b for a, b in zip(dims, dims[1:])), dims=dims))
    return checks
