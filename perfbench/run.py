"""Benchmark of rstn: one command, four closed-loop workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload many-sectors --seed N --refs-only

Run from the root of a checkout.  The run generates the workload's
inputs from the seed under .perfbench_work/, computes their reference
values, times the program's set-up in fresh interpreters, and starts
worker.py to run the operations (one client, one operation in flight).
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer ones with --trace 1.  --refs-only regenerates
the inputs and recomputes every reference, including the cached oracle
value of many-sectors, then prints the path of refs.json.

Every program process runs with one BLAS/OpenMP thread and without
RSTN_THREADS.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy is imported here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli", "dense-bulk", "many-sectors", "oracle")
SETUP_PROBES = 5
# a worker takes under a minute; a whole run must end within 180 s
WORKER_TIMEOUT_S = 170


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env.pop("RSTN_THREADS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def prepare(workload: str, seed: int, root: str, work: str,
            fresh_refs: bool) -> None:
    """Write the workload's input files and refs.json into `work`."""
    import numpy as np

    import inputs

    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    sys.path.insert(0, os.path.join(root, "src"))
    if workload == "dense-bulk":
        scenario, ref, direction = inputs.dense_bulk(rng)
        write_json(os.path.join(work, "dense_ring8.json"), scenario)
        write_json(os.path.join(work, "direction.json"),
                   [inputs.matrix_json(f) for f in direction])
        refs = {"dense_ring8": ref}
    elif workload == "many-sectors":
        ms6, ms5, refs = inputs.many_sectors(rng)
        ms6_path = os.path.join(work, "ms6.json")
        write_json(ms6_path, ms6)
        write_json(os.path.join(work, "ms5.json"), ms5)
        refs["ms6"]["oracle_purity"] = cached_oracle_purity(ms6_path, fresh_refs)
    elif workload == "oracle":
        refs = oracle_refs(work)
    else:
        refs = cli_refs(root)
    write_json(os.path.join(work, "refs.json"), refs)


def cached_oracle_purity(path: str, fresh: bool) -> float:
    """rstn.oracle.exact_purity of a scenario file, kept beside it.

    The brute-force contraction takes about 10 s for ms6, so it is
    computed once per generated input and reused while the file's
    hash is unchanged.
    """
    cache = path + ".oracle.json"
    digest = sha256(path)
    if not fresh and os.path.exists(cache):
        with open(cache, encoding="utf-8") as fh:
            kept = json.load(fh)
        if kept["sha256"] == digest:
            return kept["oracle_purity"]
    from rstn import oracle, state

    value = oracle.exact_purity(state.load_scenario(path))[0]
    write_json(cache, {"sha256": digest, "oracle_purity": value})
    return value


def oracle_refs(work: str) -> dict:
    """The three fixed oracle scenarios, and the engine values they must match."""
    import inputs
    from rstn import families, ising, state

    scenarios = {
        "tiny_generic": families.tiny_generic(),
        "appendix_c2": families.appendix_c(2),
        "once_fine_grained1": families.once_fine_grained(1),
    }
    refs = {}
    for name, sc in scenarios.items():
        write_json(os.path.join(work, f"{name}.json"), state.scenario_to_dict(sc))
        refs[name] = {"engine_purity": ising.IsingEngine(sc).purity()}
    refs["appendix_c2"]["closed_form"] = inputs.appendix_c_purity(2, 0.25, 0.25, 0.5)
    return refs


def cli_refs(root: str) -> dict:
    import numpy as np

    import inputs
    import workloads
    from rstn import oracle, state

    files = {}
    for name in workloads.BUNDLED:
        path = os.path.join(root, workloads.SCENARIO_DIR, name)
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        entry = {"sha256": sha256(path), "vertices": data["graph"]["vertices"],
                 "sectors": len(data["sectors"])}
        boundary = [f"b{k}" for k in range(len(data["graph"]["boundary_links"]))]
        entry["k_tilde"] = [float(np.prod([s["spins"][b] + 1 for b in boundary]))
                            for s in data["sectors"]]
        if name == "appendix_c.json":
            # too large for the brute-force contraction; closed form instead
            twice_s = data["sectors"][0]["spins"]["b3"]
            blocks = data["intertwiner"]["blocks"]

            def entry_of(key, i, j):
                v = blocks[key][i][j]
                return complex(*v) if isinstance(v, list) else complex(v)

            a, b, d = (entry_of("0,0", 0, 0).real, entry_of("0,0", 0, 1),
                       entry_of("0,0", 1, 1).real)
            u, v, w = entry_of("0,1", 0, 0), entry_of("0,1", 1, 0), entry_of("1,1", 0, 0).real
            entry["reference_purity"] = inputs.appendix_c_purity(
                twice_s, a, d, w, b, u, v)
        elif name == "two_sector_nu.json":
            # high-spin mode, sectors differing on every link: Q is diagonal
            # with Q_mm = dim H_C / dim C_m, so the holographic weights are
            # p_m = dim C_m / dim H_C
            d_c = [float(np.prod([s["spins"][c] + 1 for c in data["region_C"]]))
                   for s in data["sectors"]]
            entry["holographic_p"] = [d / sum(d_c) for d in d_c]
        else:
            entry["reference_purity"] = oracle.exact_purity(
                state.load_scenario(path))[0]
        files[name] = entry
    grid = np.linspace(0.0, 1.0, workloads.SWEEP_POINTS)
    sweep = [(float(w), inputs.appendix_c_purity(twice_s, (1 - w) / 2, (1 - w) / 2, w))
             for w in grid]
    n_outer, n_a, q, jmin, jmax = workloads.GLOBAL_ARGS
    return {
        "files": files,
        "sweep": sweep,
        "sweep_dim": 6 * twice_s,
        "global_purity": inputs.global_purity(int(n_outer), int(n_a), float(q),
                                              int(jmin), int(jmax)),
    }


def setup_seconds(workload: str, root: str, work: str, env: dict) -> float:
    """Median set-up time over fresh interpreters, after one untimed run."""
    import workloads

    files = workloads.scenario_files(workload, work)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--probe-setup", *files]
    times = []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        if i:  # the first run also writes bytecode caches
            times.append(float(out.stdout))
    return statistics.median(times)


def op_p50(times: list[float], per_cycle: int) -> float:
    """Median over the cycle's operations of each one's median wall time.

    Every operation of the list is timed once per cycle; taking each
    one's median first keeps the result inside one operation's spread
    of times instead of on the edge between two operations of
    different cost, where it would jump with small shifts in speed.
    """
    return statistics.median(statistics.median(times[j::per_cycle])
                             for j in range(per_cycle))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refs-only", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rstn", "__init__.py")):
        print("error: run from the root of an rstn checkout (src/rstn missing)",
              file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}")
    os.makedirs(work, exist_ok=True)
    prepare(args.workload, args.seed, root, work, args.refs_only)
    if args.refs_only:
        print(os.path.join(work, "refs.json"))
        return 0

    env = child_env(root)
    setup_s = setup_seconds(args.workload, root, work, env)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--work", work,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    for line in res["unexpected"][:10]:
        print(f"failed: {line}", file=sys.stderr)

    completed = res["attempted"] - res["failed"]
    if args.trace:
        import spans

        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in spans.UNITS.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": completed / res["busy_s"], "unit": "1/s"},
            "op_p50_s": {"value": op_p50(res["op_times"], res["ops_per_cycle"]),
                         "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": not res["unexpected"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
