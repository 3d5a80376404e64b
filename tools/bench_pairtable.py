"""Stage timings of the pair table, and cost at the enumeration cap.

    python3 tools/bench_pairtable.py --root parent=PATH --root change=PATH \
        [--out BENCH_pairtable.json]

Every `--root NAME=PATH` is a checkout of rstn whose `src/` is imported
in fresh interpreters (one BLAS/OpenMP thread); the report keys its
figures by NAME.  Each root's `src/` is compiled to bytecode first,
into one temporary PYTHONPYCACHEPREFIX that every interpreter reads and
that is removed at the end, so that no interpreter pays for compiling
and no checkout is left with `__pycache__` directories.  Each of ROUNDS
rounds measures every root once, the order alternating from round to
round, so that drifts of a shared host hit both sides alike.

Stages, on perfbench's seed-1 many-sectors inputs (ms6 in exact mode,
ms5 in high-spin mode), each on a fresh engine per repetition:
  init   `IsingEngine(sc)`;
  sigma  sigma_I of every unordered pair m <= n: one `_sigma_fill` of
         them all (one `_sigma_array(m, n)` per pair in a checkout
         from before the stacked fill);
  table  `all_pairs()` once those arrays are cached.
A round reports each stage's median over REPS repetitions, summed
over the two inputs.  At the enumeration cap, CAP_ROUNDS times, one
interpreter per case times `IsingEngine(sc).purity()` and reads its peak RSS:
`tests/rings.py:ring_dict(24, 1)` exact and high-spin, and
`ring_dict(20, 4)` exact.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
CAP_CASES = {"ring24_exact": (24, 1, "exact"),
             "ring24_high_spin": (24, 1, "high_spin"),
             "ring20x4_exact": (20, 4, "exact")}
STAGES = ("init", "sigma", "table")
ROUNDS, REPS, CAP_ROUNDS = 7, 200, 3


def stages() -> dict:
    """Median seconds per stage, summed over ms6 and ms5."""
    import time

    import numpy as np

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
    import inputs
    from rstn.ising import IsingEngine
    from rstn.state import scenario_from_dict

    # the generator perfbench seeds for many-sectors at --seed 1
    ms6, ms5, _ = inputs.many_sectors(np.random.default_rng([1, 2]))
    out = dict.fromkeys(STAGES, 0.0)
    for sc in map(scenario_from_dict, (ms6, ms5)):
        upper = [(m, n) for m in range(len(sc.sectors))
                 for n in range(m, len(sc.sectors))]
        times = {stage: [] for stage in STAGES}
        for _ in range(REPS):
            t0 = time.perf_counter()
            engine = IsingEngine(sc)
            t1 = time.perf_counter()
            if hasattr(engine, "_sigma_fill"):
                engine._sigma_fill(upper)
            else:
                for m, n in upper:
                    engine._sigma_array(m, n)
            t2 = time.perf_counter()
            engine.all_pairs()
            t3 = time.perf_counter()
            for stage, dt in zip(STAGES, (t1 - t0, t2 - t1, t3 - t2)):
                times[stage].append(dt)
        for stage in STAGES:
            out[stage] += statistics.median(times[stage])
    return out


def cap_case(name: str) -> dict:
    """Wall seconds of one fresh-engine purity, and the peak RSS of the
    interpreter that ran it."""
    import dataclasses
    import resource
    import time

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "tests"))
    from rings import ring_dict
    from rstn.ising import IsingEngine
    from rstn.state import scenario_from_dict

    n, sectors, mode = CAP_CASES[name]
    sc = dataclasses.replace(scenario_from_dict(ring_dict(n, sectors)), mode=mode)
    t0 = time.perf_counter()
    purity = IsingEngine(sc).purity()
    wall = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"wall_s": wall, "peak_rss_mb": peak_kb / 1024, "purity": purity}


def src(root: str) -> str:
    return os.path.join(root.split("=", 1)[-1], "src")


def child(root: str, task: list[str], cache: str) -> dict:
    env = dict(os.environ, **THREADS, PYTHONPATH=src(root), PYTHONPYCACHEPREFIX=cache)
    res = subprocess.run([sys.executable, __file__, "--child", *task], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(res.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else values * 3
    return {"q1": q1, "median": med, "q3": q3, "runs": len(values)}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", action="append", default=[])
    ap.add_argument("--out")
    ap.add_argument("--child", nargs="+")
    args = ap.parse_args()
    if args.child:
        kind, *case = args.child
        print(json.dumps(stages() if kind == "stages" else cap_case(*case)))
        return
    roots = args.root or [f"checkout={os.getcwd()}"]
    runs = {root: {"stages": [], **{c: [] for c in CAP_CASES}} for root in roots}
    cache = tempfile.mkdtemp(prefix="bench_pairtable_")
    try:
        for root in roots:
            subprocess.run([sys.executable, "-m", "compileall", "-q", src(root)],
                           env=dict(os.environ, PYTHONPYCACHEPREFIX=cache), check=True)
        for k in range(ROUNDS):
            for root in roots if k % 2 == 0 else roots[::-1]:
                runs[root]["stages"].append(child(root, ["stages"], cache))
        for k in range(CAP_ROUNDS):
            for root in roots if k % 2 == 0 else roots[::-1]:
                for case in CAP_CASES:
                    runs[root][case].append(child(root, ["cap", case], cache))
    finally:
        shutil.rmtree(cache)
    from importlib.metadata import version

    report = {"machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python "
                         f"{platform.python_version()}, numpy {version('numpy')}",
              "rounds": ROUNDS, "reps": REPS, "cap_rounds": CAP_ROUNDS}
    for root in roots:
        r = runs[root]
        report[root.split("=", 1)[0]] = {
            **{f"{s}_s": quartiles([x[s] for x in r["stages"]]) for s in STAGES},
            **{case: {key: quartiles([x[key] for x in r[case]])
                      for key in ("wall_s", "peak_rss_mb")}
               for case in CAP_CASES},
            "purity": {case: r[case][0]["purity"] for case in CAP_CASES},
        }
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
