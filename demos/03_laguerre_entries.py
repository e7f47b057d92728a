#!/usr/bin/env python3
"""Walkthrough: every entry of the conjugated family is a scalar Laguerre
polynomial times an exact rational multiplier.

R(x,n) = K_n^{-1} P(x,n) e^{xA} diagonalizes the second-order eigenvalue
problem, forcing R(x,n)[i,j] = xi(n,i,j) L_{n+i-j}^{(nu+j)}(x).  The
multipliers can be read off the oracle or rebuilt from two-term recursions
driven by two coupling matrices; both routes must agree entry by entry.
"""

from fractions import Fraction as F

from mvlaguerre import WeightSpec, compute_monic_ops
from mvlaguerre.laguerre_forms import (compute_GI, extract_xi, verify_xi_tables,
                                       xi_by_recursion)
from mvlaguerre.scalar import laguerre_poly

spec = WeightSpec(N=3, nu=F(1, 2), a=(F(1), F(-2)), delta=(F(1), F(1, 2), F(3)))
seq = compute_monic_ops(spec, n_max=5)

r2 = seq.R[2]
print("entry (3,1) of R(x,2):", r2.entry(2, 0).coeffs)
xi = extract_xi(seq)
print("equals xi(2,3,1) * L_4^(nu+1):",
      r2.entry(2, 0) == xi.get(2, 3, 1) * laguerre_poly(spec.nu + 1, 4))

print("\nzero pattern: entries with n+i-j < 0 vanish identically")
print("R(x,0) entry (1,3):", seq.R[0].entry(0, 2).coeffs)

print("\nfirst multipliers:")
for (n, i, j) in [(0, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)]:
    print(f"  xi({n},{i},{j}) = {xi.get(n, i, j)}")

checks = compute_GI(seq)
print("\ncoupling matrices: G(n) diagonal, I(n) upper bidiagonal with",
      "(I)_ii = i;", all(c["pass"] for c in checks), "structure checks pass")
print("G(1) diagonal:", [str(seq.G[1][k, k]) for k in range(3)])
print("I(1) superdiagonal:", [str(seq.I[1][k, k + 1]) for k in range(2)])

rec = xi_by_recursion(seq)
agreement = verify_xi_tables(xi, rec)
print("\nrecursion rebuilds the whole table exactly:",
      all(c["pass"] for c in agreement),
      f"({len(rec.values)} entries)")
