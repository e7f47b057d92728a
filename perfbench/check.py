"""Independent checker for what the benchmark's operations produce.

It does not import `mvlaguerre`.  A family (the `compute-polys` payload
shape: `spec`, `n_max`, `P`, `H`, rationals as strings) is checked against
moments taken straight from the closed form

    m_s[i,j] = sum_{r <= min(i,j)} delta_r c_{i,r} c_{j,r} (nu+1)_{s+i+j-r},
    c_{i,r}  = a_r a_{r+1} ... a_{i-1} / (i-r)!          (1-based),

on three counts: every P_n is monic of degree n, <P_n, x^k I> = 0 for
k < n, and <P_n, x^n I> = H_n, where <P, x^k I> = sum_a P_a m_{a+k}.  For
N = 1 every P_n must also equal the classical monic Laguerre polynomial
with alpha = nu + 1, sum_k (-1)^{n-k} C(n,k) (alpha+k+1)_{n-k} x^k.

Each check function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from math import comb, factorial


def _poch(a: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for k in range(n):
        out *= a + k
    return out


def moments(N: int, nu: Fraction, a: list, delta: list, depth: int) -> list:
    """m_0 .. m_depth as N x N lists of Fractions."""
    def c(i, r):
        out = Fraction(1, factorial(i - r))
        for k in range(r, i):
            out *= a[k - 1]
        return out

    out = []
    for s in range(depth + 1):
        m = [[Fraction(0)] * N for _ in range(N)]
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                m[i - 1][j - 1] = sum(
                    (delta[r - 1] * c(i, r) * c(j, r) * _poch(nu + 1, s + i + j - r)
                     for r in range(1, min(i, j) + 1)), Fraction(0))
        out.append(m)
    return out


def _mat(rows) -> list:
    return [[Fraction(v) for v in row] for row in rows]


def _matmul_acc(acc, x, y):
    n = len(x)
    for i in range(n):
        xi, ai = x[i], acc[i]
        for k in range(n):
            if xi[k]:
                xik, yk = xi[k], y[k]
                for j in range(n):
                    ai[j] += xik * yk[j]


def check_family(payload: dict) -> list:
    spec = payload["spec"]
    N = spec["N"]
    nu = Fraction(spec["nu"])
    a = [Fraction(v) for v in spec["a"]]
    delta = [Fraction(v) for v in spec["delta"]]
    n_max = payload["n_max"]
    P = [[_mat(c) for c in p] for p in payload["P"]]
    H = [_mat(h) for h in payload["H"]]
    if len(P) != n_max + 1 or len(H) != n_max + 1:
        return [f"family holds {len(P)} P and {len(H)} H for n_max={n_max}"]
    m = moments(N, nu, a, delta, 2 * n_max)
    eye = [[Fraction(int(i == j)) for j in range(N)] for i in range(N)]
    problems = []
    for n, p in enumerate(P):
        if len(p) != n + 1 or p[n] != eye:
            problems.append(f"P_{n} is not monic of degree {n}")
            continue
        for k in range(n + 1):
            ip = [[Fraction(0)] * N for _ in range(N)]
            for deg, coeff in enumerate(p):
                _matmul_acc(ip, coeff, m[deg + k])
            want = H[n] if k == n else [[0] * N for _ in range(N)]
            if ip != want:
                problems.append(f"<P_{n}, x^{k} I> != {'H_n' if k == n else '0'}")
    if N == 1:
        alpha = nu + 1
        for n, p in enumerate(P):
            ref = [(-1) ** (n - k) * comb(n, k) * _poch(alpha + k + 1, n - k)
                   for k in range(n + 1)]
            if [c[0][0] for c in p] != ref:
                problems.append(f"P_{n} differs from monic Laguerre, alpha = nu+1")
    return problems


def check_verdict(payload: dict) -> list:
    """A `verify` or `dualhahn` payload, or a library check list: a
    nonempty list of checks, each passing, and `all_pass` true."""
    checks = payload.get("checks") or []
    problems = [] if checks else ["no checks"]
    problems += [f"check failed: {c.get('check_id')}" for c in checks if c.get("pass") is not True]
    if payload.get("all_pass") is not True:
        problems.append("all_pass is not true")
    if payload.get("all_equal") is False:
        problems.append("dual Hahn xi differs from the extracted xi")
    problems += [f"resolution not definitive: {r.get('id')}"
                 for r in payload.get("open_question_resolutions", ())
                 if r.get("definitive") is not True]
    return problems


def check_lie(payload: dict) -> list:
    """A `lie` payload has no `all_pass`: its `checks` map must hold no
    false entry (`dim_matches_formula` is null for --extended), and every
    nested structure and extended check must pass."""
    checks = payload.get("checks") or {}
    problems = [] if checks else ["no checks"]
    problems += [f"lie check {k} is {v}" for k, v in sorted(checks.items())
                 if v is not True and not (v is None and k == "dim_matches_formula")]
    nested = (payload.get("structure_report", {}).get("checks", [])
              + payload.get("extended_report", []))
    problems += [f"check failed: {c.get('check_id')}" for c in nested if c.get("pass") is not True]
    return problems


def check_xi(payload: dict) -> list:
    records = payload.get("records") or []
    problems = [] if records else ["no xi records"]
    problems += [f"xi({r['n']},{r['i']},{r['j']}) is {r.get('provenance')}"
                 for r in records if r.get("provenance") != "both-agree"]
    return problems


CHECKERS = {"family": check_family, "verdict": check_verdict,
            "lie": check_lie, "xi": check_xi}


def _flip_p_sign(p: dict):
    """Negate one nonzero coefficient below the leading one of the
    highest P_n."""
    poly = p["P"][-1]
    for coeff in poly[:-1]:
        for row in coeff:
            for j, v in enumerate(row):
                if Fraction(v) != 0:
                    row[j] = str(-Fraction(v))
                    return


def _perturb_h(p: dict):
    h = p["H"][len(p["H"]) // 2]
    h[0][0] = str(Fraction(h[0][0]) + Fraction(1, 1000))


def _fail_one_check(p: dict):
    p["checks"][len(p["checks"]) // 2]["pass"] = False


def _fail_lie(p: dict):
    p["checks"]["jacobi"] = False


def _retag_xi(p: dict):
    p["records"][-1]["provenance"] = "extracted"


MUTATIONS = {"family": [("perturbed H_n", _perturb_h), ("flipped sign in P_n", _flip_p_sign)],
             "verdict": [("one check with pass false", _fail_one_check)],
             "lie": [("jacobi false", _fail_lie)],
             "xi": [("one record not both-agree", _retag_xi)]}


def self_test(kind: str, payload: dict) -> list:
    """Apply each mutation of `kind` to a copy of a payload that passed and
    return the names of those the checker failed to report."""
    missed = []
    for name, mutate in MUTATIONS[kind]:
        bad = copy.deepcopy(payload)
        mutate(bad)
        if not CHECKERS[kind](bad):
            missed.append(f"{kind}: {name}")
    return missed
