"""Command-line front end.

Subcommands: compute-polys, verify, xi, lie, dualhahn.  All rational values
are read and written as 'p/q' strings; output is stable JSON (or CSV for
the multiplier table) with a top-level schema marker, byte-identical across
runs for identical configuration.  Exit status: 0 all selected checks pass,
1 any check failed, 2 argument or parse error or an output path that cannot
be written.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import dual_hahn as dh
from . import laguerre_forms as lf
from . import lie_algebra as la
from . import report as rp
from .engine import compute_monic_ops
from .matrices import MatPoly, MatQ
from .scalar import DomainError, parse_phi, rat, rat_str
from .weights import WeightSpec

SCHEMA = 1


def _rat_list(text: str):
    return tuple(rat(part.strip()) for part in text.split(",") if part.strip())


def _spec_from_args(args) -> WeightSpec:
    a = _rat_list(args.a) if args.a else ()
    delta = _rat_list(args.delta) if args.delta else ()
    if not delta:
        delta = tuple([Fraction(1)] * args.N)
    if not a and args.N > 1:
        a = tuple([Fraction(-1)] * (args.N - 1))
    return WeightSpec(args.N, rat(args.nu), a, delta)


def _mat_json(m: MatQ):
    return [[rat_str(v) for v in row] for row in m.rows]


def _poly_json(p: MatPoly):
    return [_mat_json(c) for c in p.coeffs]


def _emit(payload: dict, out_path: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_compute_polys(args) -> int:
    spec = _spec_from_args(args)
    seq = compute_monic_ops(spec, args.nmax)
    payload = {
        "schema": SCHEMA,
        "spec": spec.to_dict(),
        "n_max": seq.n_max,
        "P": [_poly_json(p) for p in seq.P],
        "H": [_mat_json(h) for h in seq.H],
        "X": [_mat_json(x) for x in seq.X],
        "Y": [_mat_json(y) for y in seq.Y],
        "B": [_mat_json(b) for b in seq.B],
        "C": [None] + [_mat_json(c) for c in seq.C[1:]],
    }
    _emit(payload, args.out)
    return 0


def cmd_xi(args) -> int:
    spec = _spec_from_args(args)
    seq = compute_monic_ops(spec, args.nmax)
    xi = lf.extract_xi(seq)
    rec = lf.xi_by_recursion(seq)
    records = []
    for row in xi.records():
        key = (row["n"], row["i"], row["j"])
        agree = rec.values.get(key) == xi.values[key]
        row["provenance"] = "both-agree" if agree else "extracted"
        records.append(row)
    if args.csv:
        import csv  # here: no other command needs it, and each runs in its own process

        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "i", "j", "xi"])
            for row in records:
                writer.writerow([row["n"], row["i"], row["j"], row["xi"]])
    payload = {"schema": SCHEMA, "spec": spec.to_dict(), "records": records}
    _emit(payload, args.out)
    return 0


def _dualhahn_params(args, spec: WeightSpec):
    if args.c is not None or args.d is not None:
        c = rat(args.c) if args.c is not None else Fraction(1)
        d = rat(args.d) if args.d is not None else Fraction(1)
        return dh.build_delta_family(args.N, rat(args.nu), c, d)
    return dh.family_of(spec)


def cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    n_max = args.nmax
    checks: list[dict] = []
    notes: list[str] = []
    resolutions: list[dict] = []
    params = None
    if args.suite in ("dualhahn", "all"):
        params = _dualhahn_params(args, spec)
        if params is None:
            if args.suite == "dualhahn":
                raise DomainError(
                    "dual Hahn suite needs --c/--d or a delta family with a = -1")
            notes.append("dualhahn suite skipped: weight is not a constrained family")
    # the weight is orthogonalized once, at the highest degree a reader needs:
    # the suites n_max, the resolutions >= 2 (the i = 1 boundary relation,
    # which they form themselves) and the dual Hahn suite of this weight
    # min(n_max, 4) + 1; a proper prefix arises only beside a reader of the
    # whole family's xi table, so the closed forms and xi the prefix slices
    # off the whole are read anyway
    suites = args.suite in ("operators", "laguerre", "all")
    resolve = spec.N >= 2 and args.suite in ("laguerre", "all")
    shared_dh = params is not None and params.spec == spec
    r = n_max if n_max >= 2 else 3
    k = min(n_max, 4) + 1
    degrees = {m for m, wanted in ((n_max, suites), (r, resolve), (k, shared_dh)) if wanted}
    whole = compute_monic_ops(spec, max(degrees)) if degrees else None
    family = {m: whole.prefix(m) for m in degrees}
    if suites:
        seq = family[n_max]
        checks += rp.suite_oracle(seq)
        if args.suite in ("operators", "all"):
            checks += rp.suite_operators(seq)
        if args.suite in ("laguerre", "all"):
            checks += rp.suite_laguerre(seq)
    if resolve:
        resolutions = rp.resolve_open_questions(family[r])
    if params is not None:
        dh_seq = family[k] if shared_dh else compute_monic_ops(params.spec, k)
        checks += rp.suite_dualhahn(params, dh_seq)
    if args.suite == "all":
        checks += rp.suite_lie(spec.nu)

    ok = rp.all_pass(checks)
    payload = {
        "schema": SCHEMA,
        "suite": args.suite,
        "spec": spec.to_dict(),
        "n_max": n_max,
        "checks": rp.sort_checks(checks),
        "display_corrections": rp.display_corrections(checks),
        "open_question_resolutions": resolutions,
        "notes": notes,
        "all_pass": ok,
    }
    _emit(payload, args.out)
    return 0 if ok else 1


def cmd_lie(args) -> int:
    nu = None
    if args.extended:
        nu = rat("1/2" if args.nu is None else args.nu)
        if nu <= 0:
            raise DomainError("nu must be > 0")
    elif args.nu is not None:
        raise DomainError("--nu needs --extended")
    if args.truncate is not None:
        phi = la.exp_series_truncated(args.truncate)
    else:
        phi = parse_phi(args.phi)
    alg = la.generate_algebra(phi, nu=nu)
    structure = [[i, j, k, rat_str(Fraction(v, alg.den))]
                 for (i, j), vec in sorted(alg.structure.items())
                 for k, v in enumerate(vec) if v != 0]
    payload = {
        "schema": SCHEMA,
        "phi": args.phi if args.truncate is None else f"exp-series truncated at {args.truncate}",
        "dimension": alg.dim,
        "basis": alg.labels,
        "structure_constants": structure,
        "I_phi": sorted(la.monomial_support(phi)),
        "checks": {
            "jacobi": alg.axioms["jacobi"],
            "antisymmetry": alg.axioms["antisymmetry"],
            "dim_matches_formula": (alg.dim == la.dim_formula(phi))
            if not args.extended else None,
        },
    }
    payload["center_dimension"] = len(alg.center)
    axioms = payload["checks"]
    ok = axioms["jacobi"] and axioms["antisymmetry"] \
        and axioms["dim_matches_formula"] is not False
    if phi.degree >= 2 and not args.extended:
        rep = la.structure_report(alg)
        payload["structure_report"] = {
            "k": rep["k"],
            "I_phi": rep["I_phi"],
            "checks": rep["checks"],
            "ideal_ad_spectrum": rep["ideal_ad_spectrum"],
        }
        if "l36_alpha" in rep:
            payload["structure_report"]["l36_alpha"] = rep["l36_alpha"]
        payload["derived_series_lengths"] = rep["derived_length"]
        ok = ok and rp.all_pass(rep["checks"])
    if args.extended:
        ext = la.extended_algebra_report(alg)
        payload["extended_report"] = ext["checks"]
        ok = ok and rp.all_pass(ext["checks"])
    _emit(payload, args.out)
    return 0 if ok else 1


def cmd_dualhahn(args) -> int:
    params = dh.build_delta_family(args.N, rat(args.nu),
                                   rat(args.c), rat(args.d))
    seq = compute_monic_ops(params.spec, args.nmax + 1)
    xi = lf.extract_xi(seq)
    checks = rp.suite_dualhahn(params, seq)
    xi_records = []
    for row in xi.records():
        n, i, j = row["n"], row["i"], row["j"]
        entry = {"n": n, "i": i, "j": j, "xi_extracted": row["xi"]}
        if n + i - j > 0:
            entry["xi_dual_hahn"] = rat_str(dh.xi_dual_hahn(n, i, j, params))
        xi_records.append(entry)
    all_equal = all(
        r.get("xi_dual_hahn", r["xi_extracted"]) == r["xi_extracted"]
        for r in xi_records)
    ok = rp.all_pass(checks)
    payload = {
        "schema": SCHEMA,
        "params": params.to_dict(),
        "delta_family": [rat_str(v) for v in params.delta_nu],
        "xi": xi_records,
        "all_equal": all_equal,
        "derivative_coupling": all(c["pass"] for c in checks
                       if c["equation"] == "derivative-coupling-at-zero"),
        "checks": rp.sort_checks(checks),
        "display_corrections": rp.display_corrections(checks),
        "all_pass": ok and all_equal,
    }
    _emit(payload, args.out)
    return 0 if ok and all_equal else 1


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr, like every other error."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _degree(text: str) -> int:
    """The --nmax and --truncate type: a polynomial degree, an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


# Flags whose value may start with '-' (such as --a -1,2), which argparse
# would otherwise take for an option.
_SIGNED_FLAGS = ("--a", "--delta", "--nu", "--c", "--d", "--phi")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite '--a -1,2' as '--a=-1,2' for the flags in _SIGNED_FLAGS."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _SIGNED_FLAGS and tok.startswith("-") \
                and not tok.startswith("--"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mvlaguerre",
        description="Exact matrix-valued Laguerre polynomial families and "
                    "identity verification")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flags(p):
        p.add_argument("--N", type=int, default=2)
        p.add_argument("--nu", default="1/2")
        p.add_argument("--a", default=None,
                       help="comma list of N-1 subdiagonal entries, e.g. '-1,2'")
        p.add_argument("--delta", default=None,
                       help="comma list of N positive diagonal weights")
        p.add_argument("--nmax", type=_degree, default=5)
        p.add_argument("--out", default=None)

    p = sub.add_parser("compute-polys", help="emit the monic family as JSON")
    add_spec_flags(p)
    p.set_defaults(fn=cmd_compute_polys)

    p = sub.add_parser("verify", help="run a verification suite")
    add_spec_flags(p)
    p.add_argument("--suite", choices=["operators", "laguerre", "dualhahn", "all"],
                   default="all")
    p.add_argument("--c", default=None)
    p.add_argument("--d", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("xi", help="emit the Laguerre-multiplier table")
    add_spec_flags(p)
    p.add_argument("--csv", default=None, help="also write n,i,j,xi CSV here")
    p.set_defaults(fn=cmd_xi)

    p = sub.add_parser("lie", help="closure and structure of the operator Lie algebra")
    phi = p.add_mutually_exclusive_group()
    phi.add_argument("--phi", default="x")
    phi.add_argument("--truncate", type=_degree, default=None)
    p.add_argument("--nu", default=None, help="exponent of the extended algebra "
                   "(default 1/2); needs --extended")
    p.add_argument("--extended", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_lie)

    p = sub.add_parser("dualhahn", help="constrained family and dual Hahn forms")
    p.add_argument("--N", type=int, default=3)
    p.add_argument("--nu", default="1/2")
    p.add_argument("--c", default="1")
    p.add_argument("--d", default="1")
    p.add_argument("--nmax", type=_degree, default=4)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_dualhahn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _attach_signed_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.fn(args)
    except (DomainError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
