#!/usr/bin/env python3
"""Walkthrough: the squared norms satisfy a nonlinear three-term recursion,
and the whole family is determined by H_0 alone.

From H_0 the one-but-leading coefficient X(1) is rebuilt entry by entry
(zero pattern, superdiagonal seed, then a two-term sweep per row), H_1
follows, and the recursion carries the sequence upward.  Each reconstructed
matrix is compared against the orthogonalization oracle with zero residual.
"""

from fractions import Fraction as F

from mvlaguerre import WeightSpec, compute_monic_ops
from mvlaguerre.laguerre_forms import (h1_from_h0, h_recursion_next,
                                       x1_from_h0)

spec = WeightSpec(N=2, nu=F(1), a=(F(1),), delta=(F(1), F(1)))
seq = compute_monic_ops(spec, n_max=6)

x1 = x1_from_h0(spec, seq.H[0])
print("X(1) rebuilt from H_0:", [[str(v) for v in r] for r in x1.rows])
print("matches the oracle:", x1 == seq.X[1])

h1 = h1_from_h0(spec, seq.H[0])
print("\nH_1 rebuilt from H_0:", [[str(v) for v in r] for r in h1.rows])
print("matches the oracle:", h1 == seq.H[1])

print("\nclimbing the recursion H_{n+2} <- (H_{n-1}), H_n, H_{n+1}:")
chain = [seq.H[0], seq.H[1]]
inverses = [h.inverse() for h in chain]
for n in range(2, 7):
    nxt = h_recursion_next(spec, chain, inverses)
    print(f"  H_{n} exact match:", nxt == seq.H[n])
    chain.append(seq.H[n])
    inverses.append(seq.H[n].inverse())

# scalar sanity: for N = 1 the ratio H_{n+1}/H_n is the classical
# (n+1)(n+nu+2) of the Laguerre weight with shifted parameter
scalar = compute_monic_ops(WeightSpec(1, F(5, 2), (), (F(1),)), 5)
print("\nscalar norm ratios:",
      [str(scalar.H[n + 1][0, 0] / scalar.H[n][0, 0]) for n in range(4)])
print("classical values:   ",
      [str((n + 1) * (n + F(5, 2) + 2)) for n in range(4)])
