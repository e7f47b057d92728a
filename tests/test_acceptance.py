"""Acceptance gate: one test per criterion, every assertion an exact
rational equality (zero residual).  Each test prints a PASS line so the
suite doubles as a human-readable report under `pytest -s`."""

from fractions import Fraction as F

from mvlaguerre import report as rp
from mvlaguerre.dual_hahn import build_delta_family, weight_spec
from mvlaguerre.engine import compute_monic_ops
from mvlaguerre.laguerre_forms import extract_xi
from mvlaguerre.scalar import factorial
from mvlaguerre.weights import WeightSpec, inner_product

NUS = (F(1, 2), F(1), F(5, 2))


def _choices(n_dim):
    yield (tuple([F(1)] * (n_dim - 1)), tuple([F(1)] * n_dim))
    yield (tuple(F(-1) ** k * F(k + 2, 2) for k in range(n_dim - 1)),
           tuple(F(2 * k + 1, 2) for k in range(n_dim)))


def _assert_all(checks):
    bad = [c for c in checks if not c["pass"]]
    assert not bad, f"{len(bad)} failed checks, first: {bad[0]}"
    return len(checks)


def test_criterion_1_oracle_soundness():
    total = 0
    for n_dim in (1, 2, 3):
        for nu in NUS:
            for a, delta in _choices(n_dim):
                spec = WeightSpec(n_dim, nu, a, delta)
                seq = compute_monic_ops(spec, 6)
                for n in range(7):
                    for m in range(7):
                        ip = inner_product(seq.P[n], seq.P[m], seq.table)
                        if n == m:
                            assert ip == seq.H[n]
                            assert all(d > 0 for d in seq.H[n].leading_minors())
                        else:
                            assert ip.is_zero()
                        total += 1
    print(f"\nACCEPTANCE criterion-1 oracle soundness: PASS "
          f"({total} exact inner products over 18 specs)")


def test_criterion_2_scalar_reduction():
    for nu in NUS:
        spec = WeightSpec(1, nu, (), (F(1),))
        seq = compute_monic_ops(spec, 6)
        assert seq.X[1][0, 0] == -(nu + 2)
        for n in range(1, 7):
            assert seq.C[n][0, 0] == n * (n + nu + 1)
        xi = extract_xi(seq)
        for n in range(7):
            assert xi.get(n, 1, 1) == F(-1) ** n * factorial(n)
        _assert_all(rp.scalar_reduction_checks(seq))
    print("\nACCEPTANCE criterion-2 scalar reduction: PASS "
          "(X(1), C_n, xi(n,1,1) match the classical recurrence for 3 nu values)")


OPERATOR_SPECS = [
    WeightSpec(1, F(1, 2), (), (F(1),)),
    WeightSpec(2, F(1, 2), (F(-1),), (F(1), F(1))),
    WeightSpec(2, F(1), (F(1),), (F(1), F(2))),
    WeightSpec(3, F(5, 2), (F(1), F(-2)), (F(1), F(1, 2), F(3))),
]


def test_criterion_3_operator_suite():
    total = 0
    for spec in OPERATOR_SPECS:
        seq = compute_monic_ops(spec, 6)
        total += _assert_all(rp.suite_operators(seq))
    print(f"\nACCEPTANCE criterion-3 operator suite: PASS "
          f"({total} exact checks: adjointness deg<=4, intertwinings n<=5, "
          f"coefficient formulas, seven bracket equations, [B,J]/[C,J], Casimir)")


def test_criterion_4_laguerre_closed_forms():
    total = 0
    for spec in OPERATOR_SPECS:
        seq = compute_monic_ops(spec, 5)
        total += _assert_all(rp.suite_laguerre(seq))
    print(f"\nACCEPTANCE criterion-4 closed forms: PASS "
          f"({total} exact checks: R-entry Laguerre proportionality, "
          f"xi extraction = recursion, G/I structure, H-recursion, "
          f"H0->X(1)->H1 bootstrap)")


def test_criterion_5_dual_hahn():
    total = 0
    for n_dim in (2, 3):
        for nu in (F(1, 2), F(1)):
            for c, d in ((F(0), F(1)), (F(1), F(1)), (F(2), F(1))):
                params = build_delta_family(n_dim, nu, c, d)
                seq = compute_monic_ops(weight_spec(params), 5)
                total += _assert_all(rp.suite_dualhahn(params, seq))
    print(f"\nACCEPTANCE criterion-5 dual Hahn: PASS "
          f"({total} exact checks over 12 constrained families: closed form = "
          f"extraction for n+i-j>0, boundary recursion, gauge identities, "
          f"x=0 matrix identity, 3F2 = recurrence)")


def test_criterion_6_lie_algebras():
    total = _assert_all(rp.suite_lie(F(1, 2)))
    print(f"\nACCEPTANCE criterion-6 Lie algebras: PASS "
          f"({total} checks: closure dims = k+2 incl. 5 and 6, iso test = "
          f"conformal similarity, central element, sl2 triple, center dim 2, "
          f"Casimir ad-invariance, truncated-series growth 7..11)")


def test_criterion_7_documented_discrepancies():
    spec = WeightSpec(2, F(1), (F(1),), (F(1), F(1)))
    resolutions = rp.resolve_open_questions(compute_monic_ops(spec, 4))
    assert len(resolutions) == 3
    for r in resolutions:
        assert r["definitive"] is True
    by_id = {r["id"]: r for r in resolutions}
    assert by_id["h0-pochhammer-index"]["resolution"] == "(nu)_{i+j-r+1}"
    assert by_id["xi-seed-0-1-1"]["resolution"] == "1"
    assert by_id["i1-boundary-N1N2"]["displayed_form_matches"] is False
    # a second weight must resolve identically
    spec_b = WeightSpec(3, F(5, 2), (F(-1), F(2)), (F(1), F(1), F(2)))
    res_b = rp.resolve_open_questions(compute_monic_ops(spec_b, 4))
    assert {r["id"]: r["resolution"] for r in res_b} == \
        {r["id"]: r["resolution"] for r in resolutions}
    print("\nACCEPTANCE criterion-7 documented discrepancies: PASS "
          "(H0 Pochhammer index -> (nu)_{i+j-r+1}; xi(0,1,1) -> 1; "
          "i=1 boundary coefficients -> derived form; all definitive)")
