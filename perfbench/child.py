"""One fresh interpreter of the benchmark.  `run.py` starts it
with `PYTHONPATH` pointing at the checkout's `src` and one JSON argument.

    child.py cli '{"argv": [...], "trace": 0|1}'
        Run one CLI command in-process through `mvlaguerre.cli.main` and
        print one JSON line: exit code, captured stdout and stderr, wall and
        CPU seconds of the command, peak RSS, and the trace when asked.
    child.py setup '{"specs": [...]}'
        Import the package and build the library inputs, report, exit.
    child.py library '{"specs": [...]}'
        Long-lived library worker: build the specs, report, then answer one
        JSON command per stdin line ({"trace": 0|1} runs one round over every
        spec, {"exit": 1} reports peak RSS and ends).

Every reply carries `ready`, the CLOCK_MONOTONIC reading at which the
package and `mvlaguerre.cli` were imported and the inputs built; `run.py`
subtracts its own reading taken just before the launch.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import mvlaguerre
import mvlaguerre.cli as cli
from mvlaguerre import report
from mvlaguerre.laguerre_forms import extract_xi

from spans import Tracer


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def peak_rss_kb() -> int:
    """Peak resident set of this process image.  VmHWM is read rather than
    ru_maxrss, which on Linux can carry the parent's size across exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _reply(obj: dict):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def run_cli(argv: list, trace: bool) -> dict:
    out, err = io.StringIO(), io.StringIO()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    c0, t0 = _cpu(), time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # what the interpreter would print, exit 1
            traceback.print_exc()
            rc = 1
    wall, cpu = time.perf_counter() - t0, _cpu() - c0
    if tracer:
        tracer.uninstall()
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue(),
            "wall": wall, "cpu": cpu, "hwm_kb": peak_rss_kb(),
            "trace": tracer.snapshot() if tracer else None}


def build_specs(rows: list) -> list:
    return [(mvlaguerre.WeightSpec(r["N"], r["nu"], tuple(r["a"]), tuple(r["delta"])),
             r["nmax"]) for r in rows]


def _mat(m) -> list:
    return [[str(v) for v in row] for row in m.rows]


def _family(seq) -> dict:
    return {"spec": seq.spec.to_dict(), "n_max": seq.n_max,
            "P": [[_mat(c) for c in p.coeffs] for p in seq.P],
            "H": [_mat(h) for h in seq.H]}


def _checks(checks: list) -> dict:
    return {"checks": [{"check_id": c["check_id"], "pass": c["pass"]} for c in checks],
            "all_pass": all(c["pass"] for c in checks)}


def _xi(table) -> list:
    return [[n, i, j, str(v)] for (n, i, j), v in sorted(table.values.items())]


# (name, payload kind, call on (spec, n_max, the oracle's result), encoder)
LIBRARY_CALLS = (
    ("compute_monic_ops", "family",
     lambda spec, n_max, seq: mvlaguerre.compute_monic_ops(spec, n_max), _family),
    ("suite_oracle", "verdict", lambda spec, n_max, seq: report.suite_oracle(seq), _checks),
    ("suite_laguerre", "verdict", lambda spec, n_max, seq: report.suite_laguerre(seq), _checks),
    ("extract_xi", "library-xi", lambda spec, n_max, seq: extract_xi(seq), _xi),
)


def library_round(specs: list, trace: bool) -> dict:
    """The four library calls on every spec, each timed on its own.  A call
    that raises is a failed operation; the round goes on.  Results are
    serialized after the clock stops and the tracer is removed."""
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    ops = []
    for k, (spec, n_max) in enumerate(specs):
        seq = None
        for name, kind, call, encode in LIBRARY_CALLS:
            c0, t0 = _cpu(), time.perf_counter()
            try:
                result, rc, err = call(spec, n_max, seq), 0, ""
            except Exception:  # one failed operation, not the end of the worker
                result, rc, err = None, 1, traceback.format_exc()
            wall, cpu = time.perf_counter() - t0, _cpu() - c0
            if name == "compute_monic_ops":
                seq = result
            ops.append({"label": f"{name} #{k} N={spec.N} n={n_max}", "kind": kind,
                        "rc": rc, "err": err, "wall": wall, "cpu": cpu,
                        "out": (encode, result)})
    if tracer:
        tracer.uninstall()
    for op in ops:
        encode, result = op["out"]
        op["out"] = json.dumps(encode(result)) if op["rc"] == 0 else ""
    return {"ops": ops, "trace": tracer.snapshot() if tracer else None}


def main() -> int:
    mode, arg = sys.argv[1], json.loads(sys.argv[2])
    if mode == "cli":
        ready = time.monotonic()
        result = run_cli(arg["argv"], bool(arg["trace"]))
        _reply({"ready": ready, **result})
        return 0
    specs = build_specs(arg["specs"])
    ready = time.monotonic()
    _reply({"ready": ready})
    if mode == "setup":
        return 0
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd.get("exit"):
            _reply({"hwm_kb": peak_rss_kb()})
            return 0
        _reply(library_round(specs, bool(cmd["trace"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
