"""Span tracing of rstn's layers from outside the package.

`install(tracer)` replaces public functions and methods of the rstn
modules with wrappers that record a span (name, start, end, parent)
while the tracer is enabled.  A function imported by name into another
module (`log_sum_tree` in `rstn.ising`, `analyze_holography` in
`rstn.cli`, ...) is replaced there as well.  Nothing under `src/` is
edited.

Per-configuration calls are not spanned.  `IsingEngine.sigma_I` is
called once per configuration and variant, so it is timed and counted
without keeping its spans; `hamiltonian` and `delta_ok` are not
wrapped at all, their counts follow from partition_pair calls x 2^V.
Two private helpers are wrapped as counters only, to compute bytes of
bulk-state blocks reduced: `IsingEngine._reduced` and
`rstn.ising._reduce_square`.  Reduction misses are read from the size
of the engine's `_sigma_cache`.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stack: list[list] = []  # [span id, start, child seconds]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: Counter = Counter()
        self._next_id = 0

    def reset(self) -> None:
        self.stack.clear()
        self.spans.clear()
        self.stats.clear()
        self.counts.clear()

    def span(self, name: str, fn, keep: bool = True, hook=None):
        """Wrap `fn` so each call while enabled is a span named `name`.

        `hook(args, kwargs, result)` runs after the call, outside the
        span, to add counts.  `keep=False` aggregates without storing
        the span itself.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self.stack[-1][0] if self.stack else None
            frame = [span_id, time.perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                duration = end - frame[1]
                st = self.stats.setdefault(name, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += duration
                st[2] += duration - frame[2]
                if self.stack:
                    self.stack[-1][2] += duration
                if keep:
                    self.spans.append((span_id, name, frame[1], end, parent))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def counter(self, fn, hook):
        """Wrap `fn` to run `hook(args, kwargs, result)` while enabled."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.enabled:
                hook(args, kwargs, result)
            return result

        return wrapper

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]


def _rebind(original, replacement) -> None:
    """Replace `original` wherever an rstn module holds it by name."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "rstn" or mod_name.startswith("rstn.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every rstn module."""
    import numpy as np

    import rstn.cli  # noqa: F401  (loads every module that re-exports)
    from rstn import holography, ising, logdomain, observables, oracle, state

    def patch_function(module, attr, name, keep=True, hook=None):
        original = getattr(module, attr)
        _rebind(original, tracer.span(name, original, keep, hook))

    def patch_method(cls, attr, name, keep=True, hook=None):
        setattr(cls, attr, tracer.span(name, getattr(cls, attr), keep, hook))

    counts = tracer.counts

    def count_configs(args, kwargs, result):
        counts["configs"] += 1 << args[0].n_vert

    def count_reduced(args, kwargs, result):
        engine, row, col = args[0], args[1], args[2]
        counts["reduction_bytes"] += 16 * int(
            np.prod(engine._vdims[row]) * np.prod(engine._vdims[col]))

    def count_square(args, kwargs, result):
        counts["reduction_bytes"] += 16 * args[0].size

    def count_terms(args, kwargs, result):
        counts["log_sum_terms"] += len(args[0])

    def count_exact_terms(args, kwargs, result):
        sc = args[0]
        counts["exact_terms"] += 2 * len(sc.sectors) ** 2 * (1 << sc.graph.n_vertices)

    def count_samples(args, kwargs, result):
        counts["mc_samples"] += result.n_samples

    patch_function(state, "load_scenario", "state.load")
    patch_method(state.Scenario, "validate", "state.validate")

    eng = ising.IsingEngine
    patch_method(eng, "__init__", "ising.engine_init")
    patch_method(eng, "all_pairs", "ising.all_pairs")
    patch_method(eng, "partition_pair", "ising.partition_pair", hook=count_configs)
    sigma_I = eng.sigma_I

    def sigma_I_counting_misses(engine, m, n, down):
        before = len(engine._sigma_cache)
        value = sigma_I(engine, m, n, down)
        if tracer.enabled and len(engine._sigma_cache) != before:
            counts["sigma_misses"] += 1
        return value

    eng.sigma_I = tracer.span("ising.sigma_I", sigma_I_counting_misses, keep=False)
    patch_method(eng, "log_purity", "ising.log_purity")
    patch_method(eng, "distribution", "ising.distribution")
    patch_method(eng, "error_bound", "ising.error_bound")
    eng._reduced = tracer.counter(eng._reduced, count_reduced)
    ising._reduce_square = tracer.counter(ising._reduce_square, count_square)
    patch_function(ising, "purity_gradient", "ising.purity_gradient")
    patch_function(logdomain, "log_sum_tree", "logdomain.log_sum_tree",
                   hook=count_terms)

    patch_function(holography, "analyze_holography", "holography.analyze")
    patch_function(holography, "q_matrix", "holography.q_matrix")
    patch_function(holography, "solve_weights", "holography.solve_weights")
    patch_function(holography, "fixed_spin_criteria", "holography.fixed_spin")

    patch_function(observables, "area_variance", "observables.area_variance")
    patch_function(oracle, "exact_purity", "oracle.exact_purity",
                   hook=count_exact_terms)
    patch_function(oracle, "mc_purity", "oracle.mc_purity", hook=count_samples)


UNITS = {
    "cli.import_s": "s",
    "cli.baseline_import_s": "s",
    "cli.command_s": "s",
    "state.load_s": "s",
    "state.validate_s": "s",
    "state.bulk_dim": "count",
    "ising.engines_built": "count",
    "ising.all_pairs_calls": "count",
    "ising.partition_pair_calls": "count",
    "ising.configs_visited": "count",
    "ising.partition_pair_self_s": "s",
    "ising.sigma_I_calls": "count",
    "ising.sigma_I_misses": "count",
    "ising.sigma_I_s": "s",
    "ising.reduction_bytes": "B",
    "ising.purity_gradient_s": "s",
    "holography.fixed_spin_s": "s",
    "logdomain.log_sum_tree_s": "s",
    "logdomain.log_sum_terms": "count",
    "holography.analyze_s": "s",
    "holography.solve_weights_s": "s",
    "observables.area_variance_s": "s",
    "oracle.exact_purity_s": "s",
    "oracle.exact_terms": "count",
    "oracle.mc_purity_s": "s",
    "oracle.mc_samples_per_s": "1/s",
    "trace.overhead_pct": "%",
}


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-operation layer figures from the traced cycles."""
    c = tracer.counts
    mc_s = tracer.total_s("oracle.mc_purity")
    per = {
        "ising.engines_built": tracer.calls("ising.engine_init"),
        "ising.all_pairs_calls": tracer.calls("ising.all_pairs"),
        "ising.partition_pair_calls": tracer.calls("ising.partition_pair"),
        "ising.configs_visited": c["configs"],
        "ising.partition_pair_self_s": tracer.self_s("ising.partition_pair"),
        "ising.sigma_I_calls": tracer.calls("ising.sigma_I"),
        "ising.sigma_I_misses": c["sigma_misses"],
        "ising.sigma_I_s": tracer.self_s("ising.sigma_I"),
        "ising.reduction_bytes": c["reduction_bytes"],
        "ising.purity_gradient_s": tracer.self_s("ising.purity_gradient"),
        "holography.fixed_spin_s": tracer.self_s("holography.fixed_spin"),
        "logdomain.log_sum_tree_s": tracer.self_s("logdomain.log_sum_tree"),
        "logdomain.log_sum_terms": c["log_sum_terms"],
        "holography.analyze_s": tracer.self_s("holography.analyze"),
        "holography.solve_weights_s": tracer.self_s("holography.solve_weights"),
        "observables.area_variance_s": tracer.self_s("observables.area_variance"),
        "oracle.exact_purity_s": tracer.self_s("oracle.exact_purity"),
        "oracle.exact_terms": c["exact_terms"],
        "oracle.mc_purity_s": tracer.self_s("oracle.mc_purity"),
    }
    out = {name: value / ops for name, value in per.items()}
    out["oracle.mc_samples_per_s"] = c["mc_samples"] / mc_s if mc_s > 0 else 0.0
    return out
