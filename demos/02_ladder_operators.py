#!/usr/bin/env python3
"""Walkthrough: the ladder pair, the second-order operator, and the
difference operators matched to them.

The first-order operator d_x x + x(A-1) and its adjoint are mutually
adjoint for the matrix inner product; acting on the monic family they turn
into difference operators in n.  Everything here is checked as an exact
identity of rational matrices.
"""

from fractions import Fraction as F

from mvlaguerre import WeightSpec, compute_monic_ops
from mvlaguerre.operators import (make_named_operators, verify_adjoint_pair,
                                  verify_bracket_identities,
                                  verify_intertwinings)

spec = WeightSpec(N=2, nu=F(1), a=(F(1),), delta=(F(1), F(1)))
seq = compute_monic_ops(spec, n_max=6)
ops = make_named_operators(seq)

# P_n . D is a combination of P_{n+1} and P_n with matrix coefficients:
n = 2
lhs = ops["D"].act(seq.P[n])
rhs = ops["M"].act(seq.P, n)
print("P_2 . D == M . P at n=2:", lhs == rhs)

# the matched difference operator's coefficients:
print("M shift +1 coefficient:", [[str(v) for v in r] for r in ops["M"].coeff(1, n).rows])
print("M shift  0 coefficient:", [[str(v) for v in r] for r in ops["M"].coeff(0, n).rows])

# mutual adjointness, tested against the moment table for all monomial
# matrix pairs up to degree 4
adj = verify_adjoint_pair(ops["D"], ops["Ddag"], seq.table, 4, "ladder")
print(f"adjointness checks: {len(adj)}, all pass: {all(c['pass'] for c in adj)}")

# the raising operator is NOT self-adjoint; the defect is visible
bad = verify_adjoint_pair(ops["D"], ops["D"], seq.table, 2, "negative control")
print("self-pairing the raising operator fails, as it must:",
      sum(1 for c in bad if not c["pass"]), "nonzero defects")

inter = verify_intertwinings(seq, ops)
print(f"intertwining checks: {len(inter)}, all pass: {all(c['pass'] for c in inter)}")

# the bracket identities tie B_n, C_n, H_n and the eigenvalue matrices
# together; two printed variants fail by one sign and are reported next to
# the corrected forms
brk = verify_bracket_identities(seq)
print(f"bracket checks: {len(brk)}, all pass: {all(c['pass'] for c in brk)}")
flagged = [c for c in brk if c.get("displayed_form_pass") is False]
print("corrected-vs-printed sign reports:", sorted({c['equation'] for c in flagged}))
