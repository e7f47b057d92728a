"""Per-layer spans and counters recorded from outside the package.

`Tracer.install()` replaces selected public functions of the loaded
`mvlaguerre` modules with timing wrappers, in every module namespace that
holds them (so `from .engine import compute_monic_ops` bindings are caught
too), and `uninstall()` puts the originals back.  The package source is
never edited.

A span records calls, inclusive time and self time (inclusive time minus
the time of the spans it called).  A counter records calls only; it is
used for the hot matrix methods, where a span would cost more than the
call.  Spans that name a key function also count distinct keys, from
which the useful ratio (distinct inputs / calls) is taken.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, attribute path, layer name, key of the input that makes a call
# useful, or None).  Each layer name becomes `<name>_s`, and `<name>_calls`
# where the benchmark reports calls.
SPANS = [
    ("engine", "compute_monic_ops", "engine.oracle", lambda a, k: repr(a[0])),
    ("weights", "MomentTable.__init__", "weights.moment_table", None),
    ("weights", "inner_product", "weights.inner_product", None),
    ("lie_algebra", "generate_algebra", "lie_algebra.generate",
     lambda a, k: repr((a[0].coeffs,
                        a[1] if len(a) > 1 else k.get("nu"),
                        a[2] if len(a) > 2 else k.get("extended", False)))),
    ("lie_algebra", "structure_report", "lie_algebra.structure_report", None),
    ("operators", "make_named_operators", "operators.named_ops", None),
    ("operators", "verify_adjoint_pair", "operators.adjoint_pair", None),
    ("operators", "verify_bracket_identities", "operators.bracket_identities", None),
    ("laguerre_forms", "extract_xi", "laguerre_forms.extract_xi", None),
    ("laguerre_forms", "compute_GI", "laguerre_forms.compute_GI", None),
    ("laguerre_forms", "xi_by_recursion", "laguerre_forms.xi_recursion", None),
    ("laguerre_forms", "verify_K_properties", "laguerre_forms.K_properties", None),
    ("dual_hahn", "verify_dual_hahn_closed_form", "dual_hahn.closed_form", None),
    ("dual_hahn", "phi_psi", "dual_hahn.phi_psi", None),
    ("report", "suite_oracle", "report.suite_oracle", None),
    ("report", "suite_operators", "report.suite_operators", None),
    ("report", "suite_laguerre", "report.suite_laguerre", None),
    ("report", "suite_dualhahn", "report.suite_dualhahn", None),
    ("report", "suite_lie", "report.suite_lie", None),
    ("report", "resolve_open_questions", "report.resolve", None),
    ("cli", "_emit", "cli.emit", None),
]

COUNTERS = [
    ("matrices", "MatQ.__mul__", "matrices.matq_mul"),
    ("matrices", "MatQ.inverse", "matrices.matq_inverse"),
]


def _resolve(module: str, path: str):
    """Return (owner, attribute name, original) for `module.path`."""
    owner = importlib.import_module(f"mvlaguerre.{module}")
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # layer -> [calls, inclusive, self]
        self.keys: dict[str, set] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []       # [layer, time spent in child spans]
        self._restore: list[tuple] = []

    def _span(self, layer, fn, key):
        stats = self.stats.setdefault(layer, [0, 0.0, 0.0])
        keys = self.keys.setdefault(layer, set())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if key is not None:
                keys.add(key(args, kwargs))
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
        return wrapper

    def _counter(self, layer, fn):
        counts = self.counts
        counts.setdefault(layer, 0)

        def wrapper(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, name, original, wrapper):
        if isinstance(owner, type):
            self._restore.append((owner, name, original))
            setattr(owner, name, wrapper)
            return
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("mvlaguerre") \
                    and getattr(mod, name, None) is original:
                self._restore.append((mod, name, original))
                setattr(mod, name, wrapper)

    def install(self):
        for module, path, layer, key in SPANS:
            owner, name, original = _resolve(module, path)
            self._patch(owner, name, original, self._span(layer, original, key))
        for module, path, layer in COUNTERS:
            owner, name, original = _resolve(module, path)
            self._patch(owner, name, original, self._counter(layer, original))

    def uninstall(self):
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def snapshot(self) -> dict:
        """Plain-JSON totals: per span layer calls, inclusive and self
        seconds and the number of distinct keys; per counter its calls."""
        spans = {layer: {"calls": c, "inclusive_s": inc, "self_s": slf,
                         "distinct": len(self.keys.get(layer, ()))}
                 for layer, (c, inc, slf) in self.stats.items()}
        return {"spans": spans, "counts": dict(self.counts)}
