#!/usr/bin/env python3
"""Walkthrough: for the constrained diagonal families the Laguerre
multipliers are dual Hahn polynomial evaluations on the lattice.

Two rationals (c, d) generate a diagonal family satisfying both
compatibility conditions by construction.  Along each row pair (n, i) the
multipliers obey an exact three-term recursion in the column index whose
normalized solution is a terminating 3F2 evaluated at the lattice node
N - i.  The closed form used here carries three corrections over the
commonly quoted one (alternating sign, anchor at xi(n,i,1), lattice node);
the quoted variant is evaluated too, and its mismatch is part of the
report.
"""

from fractions import Fraction as F

from mvlaguerre import compute_monic_ops
from mvlaguerre.dual_hahn import (build_delta_family, verify_derivative_coupling,
                                  xi_dual_hahn, xi_dual_hahn_displayed)
from mvlaguerre.laguerre_forms import extract_xi
from mvlaguerre.scalar import dual_hahn, lambda_lattice

params = build_delta_family(n_dim=3, nu=F(1, 2), c=F(2), d=F(1))
print("constructed family:", params.to_dict())

seq = compute_monic_ops(params.spec, 5)
xi = extract_xi(seq)

n, i = 2, 3
print(f"\nmultipliers along (n,i) = ({n},{i}):",
      [str(xi.get(n, i, j)) for j in range(1, 4)])
print("dual Hahn values at the lattice node x = N-i = 0:",
      [str(dual_hahn(k, 0, params.gamma, n + i - 3, 2)) for k in range(3)])

print("\nclosed form reproduces every interior multiplier exactly:")
ok = True
for nn in range(5):
    for ii in range(1, 4):
        for jj in range(1, min(3, nn + ii - 1) + 1):
            v = xi_dual_hahn(nn, ii, jj, params, xi.get(nn, ii, 1))
            ok &= v == xi.get(nn, ii, jj)
print("  all equal:", ok)

print("\nthe commonly quoted variant misses; one witness:")
print("  oracle xi(1,2,1) =", xi.get(1, 2, 1))
print("  quoted form     =", xi_dual_hahn_displayed(1, 2, 1, params))

checks = verify_derivative_coupling(seq, params)
print("\nthe x = 0 matrix identity behind the recursion:",
      all(c["pass"] for c in checks if c["equation"] == "derivative-coupling-at-zero"),
      "(exact for every n)")

print("\nquadratic lattice: lambda(x) = x(x + gamma + delta + 1), e.g.",
      "lambda(1) =", lambda_lattice(1, params.gamma, F(0)))
