"""Stage timings of the pair table, and cost at the enumeration cap;
or, with `--stage mc`, of the Monte Carlo oracle; or, with `--stage
quotients`, of the quotients read off a built pair table; or, with
`--interleave`, an in-process A/B of two checkouts.

    python3 tools/bench_pairtable.py --root parent=PATH --root change=PATH \
        [--stage pairtable|mc|quotients] [--out BENCH_pairtable.json]
    python3 tools/bench_pairtable.py --interleave --root A=PATH --root B=PATH \
        [--out FILE]

`--interleave` imports both checkouts' `rstn` into one interpreter (one
BLAS/OpenMP thread), each with the `rstn*` entries of `sys.modules` of
the other set aside, and keeps both sets.  It then alternates, INTERLEAVE
times, the calls of each INTERLEAVE_STAGES stage between the two sides,
the side going first alternating too: per side and alternation, the
median of that stage's call count, each call after `gc.collect()`.
Stages, on perfbench's seed-1 inputs (each side builds its own scenarios
from the same dicts): `purity`, a fresh `IsingEngine(sc).purity()` on ms6
and then ms5; `fixed_spin`, `fixed_spin_criteria(dense_ring8, 0)` on the
scenario's shared engine, whose sigma_I arrays are built by an untimed
first call, as in every perfbench dense-bulk cycle after the first;
`fixed_spin_first`, the same call on a fresh scenario built from
dense_ring8's dict, its validation and sigma_I fill untimed before each
call: the first call on an engine, which perfbench never times; `load`,
`load_scenario` of `dense_ring8.json` (3.3 MB, validation included).  It
reports per side and stage the median and quartiles of the alternation
medians and the alternations won.  Decision rule: a side
is faster on a stage when it wins at least 70 of 100 alternations; an A/A
run (one checkout on both sides) should read inside 30-70.  Limits: the
stages call the library only, and each side's modules are put back into
`sys.modules` before its calls, so that an import inside a function (as
in `rstn.cli`) resolves to that side; module-level memos are per side by
construction, and all are warm after the untimed first calls: the engine
plans (`rstn.ising._plans`) and the block layouts and vertex maps
(`_layout`, `_vertex_maps`).  numpy, click and the standard library are
shared.  A second harness, not a gate: perfbench stays the gate for
end-to-end metrics.

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
  sigma  sigma_I of every unordered pair m <= n: `_sigma_array(0, 0)`,
         whose first call fills them all;
  table  `all_pairs()` once those arrays are cached.
Each repetition runs the three stages twice: cold, with the engine
plans of `rstn.ising._plans` cleared first (what the first engine of a
scenario structure pays, as in every CLI process; a checkout without
that memo has nothing to clear), then warm.  It then times one fresh
`IsingEngine(sc).purity()` per input, cold and warm alike
(`purity_<input>_<cold|warm>_s`).  A round reports each figure's median
over REPS repetitions, the stages summed over the two inputs
(`<stage>_<cold|warm>_s`).  At the enumeration cap, CAP_ROUNDS times, one
interpreter per case times `IsingEngine(sc).purity()` and reads its peak RSS:
`tests/rings.py:ring_dict(24, 1)` exact and high-spin, and
`ring_dict(20, 4)` exact.

The mc stage, ROUNDS rounds, reports per round the median over MC_REPS
calls of `mc_purity(tiny_generic(), 400, 7)` and of
`mc_purity(appendix_c(2), 100, 7)` (perfbench's oracle inputs), of
`mc_purity(appendix_c(1), 100, 7)`, and of `exact_purity` on
`once_fine_grained(1)`, `appendix_c(2)` and `tiny_generic()` (the exact
oracle's perfbench inputs), each after one untimed call;
`first_<case>_s`, per exact case, the median over FIRST_RUNS fresh
interpreters of the first `exact_purity` call (imports and the scenario
built before the clock starts, the oracle's memos cold); and the wall
seconds of one fresh interpreter running `rstn oracle FILE --method mc`
(2000 samples) on each of MC_FILES, after one untimed run per root has
written the bytecode of everything the command imports into the cache.

The quotients stage, ROUNDS rounds, reports per round the median over
REPS calls of each quotient on the shared engine `IsingEngine.of(sc)`
of ms6 and ms5 once its pair table is built, after one untimed call,
summed over the two inputs: `purity()`, `distribution()`,
`analyze_holography`, `area_variance`, and `solve_weights` on ms5 alone
(ms6 has no weights; its failing search takes seconds).  `derive` is the
first `purity()` of a fresh engine whose pair table is built: the cost
of everything a checkout derives on first use.
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
TEMPS = ("cold", "warm")
ROUNDS, REPS, CAP_ROUNDS = 7, 200, 3
INTERLEAVE = 100  # alternations of `--interleave`
INTERLEAVE_STAGES = {"purity": 15, "fixed_spin": 15, "fixed_spin_first": 15,
                     "load": 3}  # calls a side, each time
MC_CASES = {"tiny_generic_400": ("tiny_generic", (), 400),
            "appendix_c2_100": ("appendix_c", (2,), 100),
            "appendix_c1_100": ("appendix_c", (1,), 100),
            "exact_once_fine_grained1": ("once_fine_grained", (1,), None),
            "exact_appendix_c2": ("appendix_c", (2,), None),
            "exact_tiny_generic": ("tiny_generic", (), None)}
EXACT_CASES = [c for c, (*_, samples) in MC_CASES.items() if samples is None]
MC_FILES = ("tiny_oracle.json", "once_fine_grained.json")
MC_REPS = 15
FIRST_RUNS = 10  # fresh interpreters per round for each first call
QUOTIENT_CALLS = ("derive", "purity", "distribution", "analyze_holography",
                  "solve_weights", "area_variance")


def stages() -> dict:
    """Median seconds per stage and temperature, summed over ms6 and ms5,
    and of a fresh purity per input."""
    import time

    import numpy as np

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
    import inputs
    from rstn import ising
    from rstn.ising import IsingEngine
    from rstn.state import scenario_from_dict

    plans = getattr(ising, "_plans", {})
    # the generator perfbench seeds for many-sectors at --seed 1
    ms6, ms5, _ = inputs.many_sectors(np.random.default_rng([1, 2]))
    out = {f"{stage}_{temp}": 0.0 for stage in STAGES for temp in TEMPS}
    for name, sc in zip(("ms6", "ms5"), map(scenario_from_dict, (ms6, ms5))):
        times = {f"{key}_{temp}": [] for key in (*STAGES, f"purity_{name}") for temp in TEMPS}
        for _ in range(REPS):
            for temp in TEMPS:
                if temp == "cold":
                    plans.clear()
                t0 = time.perf_counter()
                engine = IsingEngine(sc)
                t1 = time.perf_counter()
                engine._sigma_array(0, 0)
                t2 = time.perf_counter()
                engine.all_pairs()
                t3 = time.perf_counter()
                for stage, dt in zip(STAGES, (t1 - t0, t2 - t1, t3 - t2)):
                    times[f"{stage}_{temp}"].append(dt)
            for temp in TEMPS:
                if temp == "cold":
                    plans.clear()
                t0 = time.perf_counter()
                IsingEngine(sc).purity()
                times[f"purity_{name}_{temp}"].append(time.perf_counter() - t0)
        for key, values in times.items():
            out[key] = out.get(key, 0.0) + statistics.median(values)
    return out


def quotient_stage() -> dict:
    """Median seconds of each QUOTIENT_CALLS call, summed over ms6 and ms5."""
    import time

    import numpy as np

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
    import inputs
    from rstn.holography import analyze_holography, solve_weights
    from rstn.ising import IsingEngine
    from rstn.observables import area_variance
    from rstn.state import scenario_from_dict

    def median_s(call, setup=lambda: None) -> float:
        times = []
        for _ in range(REPS):
            arg = setup()
            t0 = time.perf_counter()
            call(arg)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def built(engine):
        engine.all_pairs()
        return engine

    out = dict.fromkeys(QUOTIENT_CALLS, 0.0)
    ms6, ms5, _ = inputs.many_sectors(np.random.default_rng([1, 2]))
    for name, sc in zip(("ms6", "ms5"), map(scenario_from_dict, (ms6, ms5))):
        engine = built(IsingEngine.of(sc))
        calls = {"purity": lambda _: engine.purity(),
                 "distribution": lambda _: engine.distribution(),
                 "analyze_holography": lambda _: analyze_holography(sc),
                 "area_variance": lambda _: area_variance(sc)}
        if name == "ms5":
            calls["solve_weights"] = lambda _: solve_weights(sc)
        for key, call in calls.items():
            call(None)
            out[key] += median_s(call)
        out["derive"] += median_s(lambda fresh: fresh.purity(),
                                  lambda: built(IsingEngine(sc)))
    return out


def mc_stage() -> dict:
    """Median seconds of each MC_CASES call over MC_REPS calls, after
    one untimed call: `mc_purity` at the given samples, `exact_purity`
    where there are none."""
    import time

    from rstn import families
    from rstn.oracle import exact_purity, mc_purity

    out = {}
    for name, (family, args, samples) in MC_CASES.items():
        sc = getattr(families, family)(*args)
        call = ((lambda: exact_purity(sc)[0]) if samples is None
                else (lambda: mc_purity(sc, samples, 7).purity))
        call()
        times = []
        for _ in range(MC_REPS):
            t0 = time.perf_counter()
            purity = call()
            times.append(time.perf_counter() - t0)
        out[name] = statistics.median(times)
        out[name + "_purity"] = purity
    return out


def first_call(name: str) -> dict:
    """Seconds of the first `exact_purity` call on MC_CASES[name] in this
    interpreter: the oracle's memos hold nothing yet."""
    import time

    from rstn import families
    from rstn.oracle import exact_purity

    family, args, _ = MC_CASES[name]
    sc = getattr(families, family)(*args)
    t0 = time.perf_counter()
    exact_purity(sc)
    return {"s": time.perf_counter() - t0}


def mc_cli(root: str, name: str, cache: str, write: bool = False) -> float:
    """Wall seconds of `rstn oracle FILE --method mc` in a fresh
    interpreter; with `write`, one that also writes the bytecode of all
    it imports (numpy, click, ...) into the cache, which the timed runs
    read."""
    import time

    path = os.path.join(src(root), "rstn", "scenarios", name)
    env = dict(os.environ, **THREADS, PYTHONPATH=src(root), PYTHONPYCACHEPREFIX=cache)
    if write:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "rstn.cli", "oracle", path, "--method", "mc"],
                   env=env, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


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


def interleave(roots: list[str]) -> dict:
    """The in-process A/B of `--interleave`, run in this interpreter."""
    import gc
    import importlib
    import time

    import numpy as np

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
    import inputs

    dense, _, _ = inputs.dense_bulk(np.random.default_rng([1, 1]))
    ms = inputs.many_sectors(np.random.default_rng([1, 2]))[:2]
    tmp = tempfile.mkdtemp(prefix="bench_interleave_")
    path = os.path.join(tmp, "dense_ring8.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dense, fh)
    sides = []
    for root in roots:
        for name in [n for n in sys.modules if n == "rstn" or n.startswith("rstn.")]:
            del sys.modules[name]
        sys.path.insert(0, src(root))
        state, ising, holography = (importlib.import_module(f"rstn.{m}")
                                    for m in ("state", "ising", "holography"))
        sys.path.pop(0)
        assert state.__file__.startswith(src(root)), state.__file__
        scs = [state.scenario_from_dict(d) for d in ms]
        sc = state.load_scenario(path)
        holography.fixed_spin_criteria(sc, 0)  # builds the shared engine's sigma_I

        def fresh(state=state, ising=ising):  # validated, sigma_I filled
            x = state.scenario_from_dict(dense)
            ising.IsingEngine.of(x)._sigma_array(0, 0)
            return x

        flips = lambda x, h=holography: h.fixed_spin_criteria(x, 0)
        # stage: (untimed setup, timed call of its result)
        stages = {"purity": (lambda scs=scs: scs, lambda scs, ising=ising: [
                      ising.IsingEngine(x).purity() for x in scs]),
                  "fixed_spin": (lambda sc=sc: sc, flips),
                  "fixed_spin_first": (fresh, flips),
                  "load": (lambda: path, state.load_scenario)}
        for setup, call in stages.values():
            call(setup())
        sides.append(({n: m for n, m in sys.modules.items()
                       if n == "rstn" or n.startswith("rstn.")}, stages))
    medians = {root: {stage: [] for stage in INTERLEAVE_STAGES} for root in roots}
    try:
        for k in range(INTERLEAVE):
            for stage, calls in INTERLEAVE_STAGES.items():
                for i in ((0, 1) if k % 2 == 0 else (1, 0)):
                    modules, stages = sides[i]
                    sys.modules.update(modules)
                    setup, call = stages[stage]
                    times = []
                    for _ in range(calls):
                        arg = setup()
                        gc.collect()
                        t0 = time.perf_counter()
                        call(arg)
                        times.append(time.perf_counter() - t0)
                    medians[roots[i]][stage].append(statistics.median(times))
    finally:
        shutil.rmtree(tmp)
    report = {}
    for i, root in enumerate(roots):
        other = medians[roots[1 - i]]
        report[root.split("=", 1)[0]] = {
            f"{stage}_s": {**quartiles(values),
                           "won": sum(a < b for a, b in zip(values, other[stage]))}
            for stage, values in medians[root].items()}
    return report


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
    ap.add_argument("--stage", choices=("pairtable", "mc", "quotients"),
                    default="pairtable")
    ap.add_argument("--out")
    ap.add_argument("--child", nargs="+")
    ap.add_argument("--interleave", action="store_true")
    args = ap.parse_args()
    if args.interleave:
        if len(args.root) != 2:
            ap.error("--interleave takes exactly two --root NAME=PATH")
        if any(os.environ.get(k) != v for k, v in THREADS.items()):
            os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, **THREADS))
        from importlib.metadata import version

        report = {"machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python "
                             f"{platform.python_version()}, numpy {version('numpy')}",
                  "alternations": INTERLEAVE, "calls": INTERLEAVE_STAGES,
                  **interleave(args.root)}
        text = json.dumps(report, indent=1)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        print(text)
        return
    if args.child:
        kind, *case = args.child
        run = {"stages": stages, "mc": mc_stage, "cap": cap_case,
               "quotients": quotient_stage, "first": first_call}[kind]
        print(json.dumps(run(*case)))
        return
    roots = args.root or [f"checkout={os.getcwd()}"]
    runs = {root: {"stages": [], "mc": [], "quotients": [], **{c: [] for c in CAP_CASES},
                   **{f: [] for f in MC_FILES}, **{f"first_{c}": [] for c in EXACT_CASES}}
            for root in roots}
    cache = tempfile.mkdtemp(prefix="bench_pairtable_")
    try:
        for root in roots:
            subprocess.run([sys.executable, "-m", "compileall", "-q", src(root)],
                           env=dict(os.environ, PYTHONPYCACHEPREFIX=cache), check=True)
            if args.stage == "mc":
                mc_cli(root, MC_FILES[0], cache, write=True)
        for k in range(ROUNDS):
            for root in roots if k % 2 == 0 else roots[::-1]:
                if args.stage == "mc":
                    runs[root]["mc"].append(child(root, ["mc"], cache))
                    for name in MC_FILES:
                        runs[root][name].append(mc_cli(root, name, cache))
                    for case in EXACT_CASES:
                        runs[root][f"first_{case}"].append(statistics.median(
                            child(root, ["first", case], cache)["s"]
                            for _ in range(FIRST_RUNS)))
                elif args.stage == "quotients":
                    runs[root]["quotients"].append(child(root, ["quotients"], cache))
                else:
                    runs[root]["stages"].append(child(root, ["stages"], cache))
        for k in range(CAP_ROUNDS if args.stage == "pairtable" else 0):
            for root in roots if k % 2 == 0 else roots[::-1]:
                for case in CAP_CASES:
                    runs[root][case].append(child(root, ["cap", case], cache))
    finally:
        shutil.rmtree(cache)
    from importlib.metadata import version

    report = {"machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python "
                         f"{platform.python_version()}, numpy {version('numpy')}",
              "rounds": ROUNDS, "reps": REPS, "cap_rounds": CAP_ROUNDS}
    if args.stage != "pairtable":
        report.update(reps=MC_REPS if args.stage == "mc" else REPS, cap_rounds=0)
    for root in roots:
        r = runs[root]
        if args.stage == "quotients":
            report[root.split("=", 1)[0]] = {
                f"{c}_s": quartiles([x[c] for x in r["quotients"]])
                for c in QUOTIENT_CALLS}
            continue
        if args.stage == "mc":
            report[root.split("=", 1)[0]] = {
                **{f"{c}_s": quartiles([x[c] for x in r["mc"]]) for c in MC_CASES},
                **{f"first_{c}_s": quartiles(r[f"first_{c}"]) for c in EXACT_CASES},
                **{f"cli_{f}_s": quartiles(r[f]) for f in MC_FILES},
                "purity": {c: r["mc"][0][c + "_purity"] for c in MC_CASES},
            }
            continue
        report[root.split("=", 1)[0]] = {
            **{f"{key}_s": quartiles([x[key] for x in r["stages"]])
               for key in r["stages"][0]},
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
