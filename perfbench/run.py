"""Benchmark of mvlaguerre: two workloads, end-to-end metrics untraced,
per-layer metrics from a traced run.  See perfbench/README.md.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 50 --trace 0

Run from the root of a checkout: the package is imported from `src`.  The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; with `--trace 1` a `trace` line before it holds
calls, inclusive and self seconds per layer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import check
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
CHILD = HERE / "child.py"
CHILD_TIMEOUT = 150
SETUP_PROBES = 16

# The two known faults.  Each signature is how the fault shows today; any
# other outcome of these operations is judged as the mended behaviour.
FAULT_NMAX0 = "verify --suite laguerre --nmax 0 raises IndexError"
FAULT_NEG_A = "argparse rejects --a -1,2"


# ---------------------------------------------------------------------------
# Workloads.  An operation is (label, argv, kind of payload, fault or None).
# ---------------------------------------------------------------------------


# Seeded rationals p/q in lowest terms with 5 <= p, q <= 9: messy, and of
# one height, so that the cost of a round depends little on the seed.
RATIONALS = [Fraction(p, q) for p in range(5, 10) for q in range(5, 10)
             if p != q and math.gcd(p, q) == 1]


def _rat(rng: random.Random, positive: bool = True) -> Fraction:
    v = rng.choice(RATIONALS)
    return v if positive or rng.random() < 0.5 else -v


def verify_grid(rng: random.Random) -> list:
    # |a_1| != 1, so the rational family stays off the constrained (dual
    # Hahn) path, which has its own operations.
    rational = [f"--nu={_rat(rng)}", f"--a={_rat(rng, positive=False)}",
                f"--delta={_rat(rng)},{_rat(rng)}"]
    ops = [
        ("verify all N=1 unit n=6", ["verify", "--suite", "all", "--N", "1", "--nmax", "6"],
         "verdict", None),
        ("verify all N=2 rational n=5",
         ["verify", "--suite", "all", "--N", "2", *rational, "--nmax", "5"], "verdict", None),
        ("verify all N=3 c=2,d=1 n=5",
         ["verify", "--suite", "all", "--N", "3", "--c", "2", "--d", "1", "--nmax", "5"],
         "verdict", None),
        ("verify all N=4 unit n=5", ["verify", "--suite", "all", "--N", "4", "--nmax", "5"],
         "verdict", None),
        ("dualhahn c=0,d=1", ["dualhahn", "--N", "3", "--c", "0", "--d", "1"], "verdict", None),
        ("dualhahn c=2,d=1", ["dualhahn", "--N", "3", "--c", "2", "--d", "1"], "verdict", None),
        ("lie phi=x^3+x^2", ["lie", "--phi", "x^3+x^2"], "lie", None),
        ("lie extended", ["lie", "--extended"], "lie", None),
        ("lie truncate 8", ["lie", "--truncate", "8"], "lie", None),
        ("xi N=4 n=6", ["xi", "--N", "4", "--nmax", "6"], "xi", None),
        ("polys N=3 --a=-1,2", ["compute-polys", "--N", "3", "--a=-1,2", "--nmax", "2"],
         "family", None),
        ("verify laguerre N=2 n=0", ["verify", "--suite", "laguerre", "--N", "2", "--nmax", "0"],
         "verdict", FAULT_NMAX0),
        ("polys N=3 --a -1,2", ["compute-polys", "--N", "3", "--a", "-1,2", "--nmax", "2"],
         "family", FAULT_NEG_A),
    ]
    rng.shuffle(ops)
    return ops


# (N, n_max) of each library spec; the seed draws the rationals.
LIBRARY_SHAPES = [(1, 10), (1, 8), (2, 10), (2, 8), (2, 6), (3, 8), (3, 7), (3, 6), (4, 6),
                  (4, 6)]


def library_specs(rng: random.Random) -> list:
    return [{"N": N, "nu": str(_rat(rng)),
             "a": [str(_rat(rng, positive=False)) for _ in range(N - 1)],
             "delta": [str(_rat(rng)) for _ in range(N)], "nmax": n}
            for N, n in LIBRARY_SHAPES]


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MVOP_THREADS", None)   # measure the default serial path
    env.pop("PYTHONDONTWRITEBYTECODE", None)   # imports load bytecode, as installed
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def launch(mode: str, arg: dict) -> tuple:
    """Run one child to its end; return (its reply, seconds from launch to
    ready)."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(CHILD), mode, json.dumps(arg)],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child failed:\n{proc.stderr}")
    reply = _last_json(proc.stdout)
    return reply, reply["ready"] - t0


class LibraryWorker:
    """The long-lived library process, one round per request."""

    def __init__(self, specs: list):
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD), "library", json.dumps({"specs": specs})],
            env=child_env(), cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        self.setup = self._read()["ready"] - t0

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("library worker ended early")
        return json.loads(line)

    def request(self, cmd: dict) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> int:
        hwm = self.request({"exit": 1})["hwm_kb"]
        self.proc.stdin.close()
        self.proc.wait(timeout=CHILD_TIMEOUT)
        return hwm

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


# ---------------------------------------------------------------------------
# Rounds.  A round runs every operation of the workload once and returns
# {"ops": [per-operation dict], "setup": [launch-to-ready seconds],
#  "hwm_kb": [peak RSS per process], "cli": bool, "traced": bool} and, for
# a traced library round, the worker's "trace".
# ---------------------------------------------------------------------------


def cli_round(ops: list, trace: bool) -> dict:
    out = {"ops": [], "setup": [], "hwm_kb": [], "cli": True, "traced": trace}
    for label, argv, kind, fault in ops:
        reply, setup = launch("cli", {"argv": argv, "trace": int(trace)})
        out["setup"].append(setup)
        out["hwm_kb"].append(reply["hwm_kb"])
        out["ops"].append({"label": label, "kind": kind, "fault": fault, **reply})
    return out


def library_round(worker: LibraryWorker, trace: bool) -> dict:
    reply = worker.request({"trace": int(trace)})
    ops = [{**op, "fault": None} for op in reply["ops"]]
    return {"ops": ops, "setup": [], "hwm_kb": [], "cli": False, "traced": trace,
            "trace": reply["trace"]}


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def fault_shows(op: dict) -> bool:
    if op["fault"] == FAULT_NMAX0:
        return op["rc"] == 1 and "IndexError" in op["err"]
    if op["fault"] == FAULT_NEG_A:
        return op["rc"] == 2 and "expected one argument" in op["err"]
    return False


def judge(op: dict, reference: dict | None, traced: bool) -> list:
    """Problems with one operation whose fault (if any) did not show.  An
    operation repeated from the first round, which is untraced and checked
    in full, must reproduce its exit code and stdout byte for byte; so
    tracing must leave the payload alone."""
    if reference is not None:
        same = op["rc"] == reference["rc"] and op["out"] == reference["out"]
        how = "with tracing on" if traced else "from round 1"
        return [] if same else [f"{op['label']}: stdout differs {how}"]
    if op["fault"] == FAULT_NMAX0 and op["rc"] == 2:
        # mended by rejecting the input: one line on stderr, nothing on stdout
        ok = not op["out"] and len(op["err"].strip().splitlines()) == 1
        return [] if ok else [f"{op['label']}: exit 2 without a one-line error"]
    if op["rc"] != 0:
        return [f"{op['label']}: exit {op['rc']}: {op.get('err', '').strip()[-300:]}"]
    if op["kind"] == "library-xi":
        return [] if json.loads(op["out"]) else [f"{op['label']}: empty xi table"]
    payload = json.loads(op["out"])
    problems = check.CHECKERS[op["kind"]](payload)
    if op["fault"] == FAULT_NEG_A and payload["spec"]["a"] != ["-1", "2"]:
        problems.append("--a -1,2 parsed to a different spec")
    return [f"{op['label']}: {p}" for p in problems]


class Ledger:
    """Counts operations and failures and collects every problem found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.first: dict = {}       # label -> op of the first round
        self.tested: set = set()    # payload kinds the checker self-tested

    def add_round(self, rnd: dict):
        for op in rnd["ops"]:
            self.attempted += 1
            if fault_shows(op):
                self.failed += 1
                continue
            if op["rc"] != 0 and not (op["fault"] == FAULT_NMAX0 and op["rc"] == 2):
                self.failed += 1
            ref = self.first.get(op["label"])
            self.problems += judge(op, ref, rnd["traced"])
            if ref is None:
                self.first[op["label"]] = op
                self._self_test(op)

    def _self_test(self, op: dict):
        kind = op["kind"]
        if op["rc"] != 0 or kind in self.tested or kind not in check.MUTATIONS:
            return
        payload = json.loads(op["out"])
        if check.CHECKERS[kind](payload):
            return
        self.tested.add(kind)
        self.problems += [f"checker self-test missed: {m}" for m in check.self_test(kind, payload)]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def round_wall(rnd: dict) -> float:
    return sum(op["wall"] for op in rnd["ops"])


def named(values: dict, group: str) -> dict:
    """The metrics BENCHMARK.json lists under `group`, with their units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in BENCHMARK[group]}


def end_to_end(rounds: list, setup: list, hwm_kb: list) -> dict:
    """Per-operation medians over the rounds, summed over the workload."""
    per_op = list(zip(*(r["ops"] for r in rounds)))
    return named({
        "setup_s": statistics.median(setup),
        "wall_s": sum(statistics.median(op["wall"] for op in ops) for ops in per_op),
        "cpu_s": sum(statistics.median(op["cpu"] for op in ops) for ops in per_op),
        "peak_rss_mb": max(hwm_kb) / 1024,
    }, "end_to_end")


def _count_checks(op: dict) -> int:
    if op["rc"] != 0 or op["kind"] not in ("verdict", "lie"):
        return 0
    p = json.loads(op["out"])
    if op["kind"] == "verdict":
        return len(p["checks"])
    return (sum(v is not None for v in p["checks"].values())
            + len(p.get("structure_report", {}).get("checks", []))
            + len(p.get("extended_report", [])))


def round_layers(rnd: dict) -> tuple:
    """(per-layer values, summed trace) of one traced round."""
    traces = [op["trace"] for op in rnd["ops"] if op.get("trace")] + \
        ([rnd["trace"]] if rnd.get("trace") else [])
    agg = {layer: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0, "distinct": 0}
           for _, _, layer, _ in spans.SPANS}
    counts = {layer: 0 for _, _, layer in spans.COUNTERS}
    for t in traces:
        for layer, s in t["spans"].items():
            for k in agg[layer]:
                agg[layer][k] += s[k]
        for layer, c in t["counts"].items():
            counts[layer] += c
    values = {f"{layer}_calls": c for layer, c in counts.items()}
    for layer, s in agg.items():
        values[f"{layer}_s"] = s["self_s"]
        values[f"{layer}_calls"] = s["calls"]
        # a layer that was never called wasted nothing
        values[f"{layer}_useful_ratio"] = s["distinct"] / s["calls"] if s["calls"] else 1.0
    values["cli.output_bytes"] = (sum(len(op["out"].encode()) for op in rnd["ops"])
                                  if rnd["cli"] else 0)
    values["report.checks"] = sum(_count_checks(op) for op in rnd["ops"])
    return values, {"spans": agg, "counts": counts}


def per_layer(untraced: list, traced: list) -> tuple:
    rows = [round_layers(r) for r in traced]
    values = {k: statistics.median(v[k] for v, _ in rows) for k in rows[0][0]}
    values["trace.overhead_s"] = (statistics.median(round_wall(r) for r in traced)
                                  - statistics.median(round_wall(r) for r in untraced))
    return named(values, "per_layer"), rows[0][1]


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["verify-grid", "library-sweep"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "mvlaguerre" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    library = args.workload == "library-sweep"
    specs = library_specs(rng) if library else []
    ops = [] if library else verify_grid(rng)

    launch("setup", {"specs": specs})   # untimed: fills the bytecode cache
    setup, hwm_kb = [], []
    worker = None
    if library:
        setup += [launch("setup", {"specs": specs})[1] for _ in range(SETUP_PROBES)]
        worker = LibraryWorker(specs)
        setup.append(worker.setup)

    def one_round(trace: bool) -> dict:
        return library_round(worker, trace) if library else cli_round(ops, trace)

    ledger = Ledger()
    untraced, traced = [], []
    try:
        # Whole rounds only; another round starts when the last one says it
        # still fits in --seconds of measured time.  Checking is not timed.
        spent = 0.0
        while True:
            t0 = time.monotonic()
            pair = [one_round(False)] + ([one_round(True)] if args.trace else [])
            took = time.monotonic() - t0
            spent += took
            for rnd in pair:
                setup.extend(rnd["setup"])
                hwm_kb.extend(rnd["hwm_kb"])
                ledger.add_round(rnd)
            untraced.append(pair[0])
            if args.trace:
                traced.append(pair[1])
            if spent + took > args.seconds:
                break
        if worker:
            hwm_kb.append(worker.close())
    finally:
        if worker:
            worker.kill()

    if args.trace:
        metrics, trace = per_layer(untraced, traced)
        print(json.dumps({"trace": trace}, sort_keys=True))
    else:
        metrics = end_to_end(untraced, setup, hwm_kb)
    for p in ledger.problems:
        print(f"PROBLEM {p}")
    print(json.dumps({"correct": not ledger.problems, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
