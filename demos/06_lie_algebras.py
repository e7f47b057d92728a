#!/usr/bin/env python3
"""Walkthrough: the operator span closes into a finite-dimensional Lie
algebra exactly when the weight exponent is a polynomial, and its
isomorphism class is read off the exponent's monomial support.

For exponent phi the span of {1, raising, lowering, x, x phi', x^2 phi'',
...} closes under bracket with dimension k+2; the codimension-two part is
solvable with an abelian ideal, and two such algebras are isomorphic
exactly when the supports {i >= 2 : a_i != 0} agree.  For phi = x the
second-order operator joins and the span contains a copy of sl2.
"""

from fractions import Fraction as F

from mvlaguerre.lie_algebra import (conformal_similar, dim_formula,
                                    exp_series_truncated,
                                    extended_algebra_report, generate_algebra,
                                    iso_test, structural_psi,
                                    structure_report)
from mvlaguerre.scalar import parse_phi

for expr in ("x", "x^2", "x^3", "x^3+x^2", "x^4+x", "x^5+x^3+1"):
    alg = generate_algebra(parse_phi(expr))
    print(f"phi = {expr:10s} closure dim = {alg.dim}  "
          f"(formula: {dim_formula(parse_phi(expr))})  basis: {alg.labels}")

print("\nisomorphism: support {i>=2: a_i != 0} decides")
p1, p2, p3 = parse_phi("x^3"), parse_phi("x^3+x"), parse_phi("x^3+x^2")
print("  x^3 ~ x^3+x   :", iso_test(p1, p2))
print("  x^3 ~ x^3+x^2 :", iso_test(p1, p3))
psi1, psi2, psi3 = (structural_psi(generate_algebra(p)) for p in (p1, p2, p3))
print("  same verdicts from the diagonal similarity classes:",
      conformal_similar(psi1, psi2), conformal_similar(psi1, psi3))

rep = structure_report(generate_algebra(parse_phi("x^2+3x")))
print("\nphi = x^2+3x: dim", rep["dimension"], " ideal ad-spectrum",
      rep["ideal_ad_spectrum"], " three-dimensional class invariant",
      rep.get("l36_alpha"))

print("\ntruncations of the exponential series keep growing (no finite",
      "closure for a non-polynomial exponent):")
print("  dims:", [generate_algebra(exp_series_truncated(t)).dim
                  for t in range(4, 9)])

ext = extended_algebra_report(generate_algebra(parse_phi("x"), nu=F(1, 2)))
print("\nextended algebra with the second-order operator: dim",
      ext["dimension"])
for c in ext["checks"]:
    mark = "ok " if c["pass"] else "FAIL"
    extra = ""
    if "displayed_form_pass" in c:
        extra = f" (commonly quoted variant passes: {c['displayed_form_pass']})"
    print(f"  [{mark}] {c['check_id']}{extra}")
