"""One workload run in a fresh interpreter; started by run.py.

    worker.py --workload W --work DIR --seconds S --trace 0|1
    worker.py --probe-setup FILE...

The first form imports rstn, loads the workload's scenario files, runs
one untimed warm-up cycle and then a fixed number of whole cycles that
take about S seconds on the reference machine, checking every result
outside the timed region.  It prints one JSON line with the operation
times and counts.  With --trace 1 it runs half as many untraced cycles,
then as many traced ones, and reports per-layer figures and the
tracing overhead.

The second form times `import rstn` plus loading (and so validating)
the given scenario files, and prints the seconds.

Only the standard library is imported before the set-up is timed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time


def probe_setup(files: list[str]) -> None:
    t0 = time.perf_counter()
    from rstn import state

    for path in files:
        state.load_scenario(path)
    print(json.dumps(time.perf_counter() - t0))


def import_probe(code: str) -> float:
    """Seconds a fresh interpreter spends on `code` (an import)."""
    timed = (f"import time; t0 = time.perf_counter(); {code}; "
             f"print(time.perf_counter() - t0)")
    out = subprocess.run([sys.executable, "-c", timed], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


class Tally:
    def __init__(self):
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def record(self, op, seconds: float, error) -> None:
        self.times.append(seconds)
        self.attempted += 1
        if error is None:
            return
        self.failed += 1
        if not (op.known_fault and str(error).startswith(op.known_fault)):
            self.unexpected.append(f"{op.name}: {type(error).__name__}: {error}")


def run_cycle(ops, fingerprints: dict, tally: Tally, tracer=None) -> float:
    """One pass over the operation list; returns the seconds spent in calls."""
    import workloads

    ctx: dict = {}
    busy = 0.0
    for op in ops:
        gc.collect()
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            result, error = op.fn(ctx), None
        except Exception as exc:  # a raising call is a failed operation
            result, error = None, exc
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        busy += elapsed
        if error is None:
            try:
                fingerprint = op.check(result, ctx)
                first = fingerprints.setdefault(op.name, fingerprint)
                workloads.expect(fingerprint == first,
                                 "result differs from the warm-up cycle")
            except Exception as exc:  # a check that cannot run is a failed one
                error = exc
        tally.record(op, elapsed, error)
        del result
    return busy


def timed_cycles(ops, fingerprints, tally, cycles, tracer=None):
    busy = 0.0
    for _ in range(cycles):
        busy += run_cycle(ops, fingerprints, tally, tracer)
    return busy


def cli_replays(tracer) -> list[float]:
    """In-process runs of each CLI command, import excluded."""
    import workloads

    times = []
    for _, args in workloads.cli_commands():
        gc.collect()
        tracer.enabled = True
        t0 = time.perf_counter()
        try:
            workloads.cli_replay(args)
        except (Exception, SystemExit):  # its subprocess run is the one checked
            pass
        times.append(time.perf_counter() - t0)
        tracer.enabled = False
    return times


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe-setup", nargs="+")
    parser.add_argument("--workload")
    parser.add_argument("--work")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    if args.probe_setup:
        probe_setup(args.probe_setup)
        return 0

    import rstn

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(rstn.__file__).startswith(src + os.sep):
        print(f"error: rstn imported from {rstn.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import spans
    import workloads
    from rstn import state

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.enabled = True
    scenarios = [state.load_scenario(f)
                 for f in workloads.scenario_files(args.workload, args.work)]
    layers = {}
    if tracer is not None:
        tracer.enabled = False
        layers["state.load_s"] = tracer.self_s("state.load")
        layers["state.validate_s"] = tracer.self_s("state.validate")
        layers["state.bulk_dim"] = sum(sc.block_dim(m) for sc in scenarios
                                       for m in range(len(sc.sectors)))
        tracer.reset()

    with open(os.path.join(args.work, "refs.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    if args.workload == "cli":
        ops = workloads.cli_ops(os.getcwd(), refs)
    else:
        build = {
            "dense-bulk": workloads.dense_bulk_ops,
            "many-sectors": workloads.many_sectors_ops,
            "oracle": workloads.oracle_ops,
        }[args.workload]
        ops = build(scenarios, refs, args.work)

    fingerprints: dict = {}
    warmup = Tally()
    run_cycle(ops, fingerprints, warmup)
    tally = Tally()
    tally.unexpected = warmup.unexpected
    if tracer is None:
        cycles = workloads.cycles_for(args.workload, args.seconds)
        busy = timed_cycles(ops, fingerprints, tally, cycles)
    else:
        cycles = workloads.cycles_for(args.workload, args.seconds / 2)
        plain_busy = timed_cycles(ops, fingerprints, tally, cycles)
        traced_ops = tally.attempted
        busy = timed_cycles(ops, fingerprints, tally, cycles, tracer)
        traced_ops = tally.attempted - traced_ops
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    if tracer is not None:
        overhead = busy / plain_busy - 1.0
        command_times = []
        if args.workload == "cli":
            for _ in range(cycles):
                command_times += cli_replays(tracer)
            traced_ops = len(command_times)
        layers.update(spans.layer_metrics(tracer, traced_ops))
        layers["cli.command_s"] = (statistics.fmean(command_times)
                                   if command_times else 0.0)
        layers["cli.import_s"] = statistics.median(
            import_probe("import rstn.cli") for _ in range(3))
        layers["cli.baseline_import_s"] = statistics.median(
            import_probe("import numpy, click") for _ in range(3))
        layers["trace.overhead_pct"] = 100.0 * overhead
        with open(os.path.join(args.work, "spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"stats": tracer.stats, "spans": tracer.spans}, fh)

    print(json.dumps({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "unexpected": tally.unexpected,
        "op_times": tally.times,
        "busy_s": busy,
        "cycles": cycles,
        "ops_per_cycle": len(ops),
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
