"""Compare rstn's outputs between two checkouts, byte for byte.

    python3 tools/compare_outputs.py --root parent=PATH --root change=PATH

Each `--root NAME=PATH` is a checkout of rstn whose `src/` is imported
in fresh interpreters (one BLAS/OpenMP thread), all reading one
temporary PYTHONPYCACHEPREFIX into which each root's `src/` is compiled
first and which is removed at the end, so that no checkout is left with
`__pycache__` directories.  For each root it collects:

  analyze  the stdout, stderr and exit code of `rstn analyze FILE`,
           plain and with `--terms`, with `--mode exact` and
           `--mode high_spin`, each also with `--out` (the file it writes
           read back after stdout), for every bundled scenario file;
  cli      the same for the other commands: `rstn sweep` of every
           parameter on both family files (`appendix_c.json`,
           `two_sector_nu.json`), and `validate`, `solve-weights` and
           `oracle --method exact` on every bundled file, and `global`;
  pairs    `repr(IsingEngine(sc).all_pairs())` on every corpus scenario;
  sigma    the bytes of `_sigma_array(m, n)` for every pair m <= n, read
           once the pair table is built;
  lower    the same for every pair m > n;
  quotients  on each corpus scenario's shared engine `IsingEngine.of(sc)`,
           each quotient called twice, so that the value first computed
           and the one read back are both compared: `purity` and the
           bytes of `distribution()`, every field of `analyze_holography`,
           `solve_weights` (c, p, residual, method, ratio), `area_average`,
           `area_average_partition` and `area_variance`, and
           `fixed_spin_criteria(sc, s)` for every sector s, each as a repr
           or the exception raised;
  load     `load_scenario` of every bundled file and of every corpus
           scenario written by `scenario_to_dict`, and of each LOAD_VARIANTS
           edit of `tiny_oracle.json` and of the corpus's `dense_ring8` (whose
           3 MB text the loader reads row by row), each as `json.dumps`
           writes it: each block's shape and the SHA-256 of its bytes, or the
           error's class and message;
  oracle   the repr of each field of `exact_purity` (purity, z1, z0) and
           of `mc_purity` (purity, stderr, mean_num, mean_den), seed 7:
           `tiny_generic()`, `appendix_c(2)` and `once_fine_grained(1)`
           exactly and by Monte Carlo at perfbench's sample counts (400,
           100, and 48 for `once_fine_grained(1)`), and the bundled
           `tiny_oracle.json` and `once_fine_grained.json` exactly and at
           2000 samples.

The corpus: the families (`appendix_c` at twice-spins 2 and 4, plain
and with coherent blocks, `two_sector`, `tiny_generic` in both modes,
`once_fine_grained(1)`, and `appendix_c(1)` with C on the shared spin-1/2
link in high-spin mode, whose flat Q = 1 sends `solve_weights` past the
null vector); perfbench's seed-1 inputs (`dense_ring8`,
`ms6`, `ms5`; the oracle workload's are families); and N_DRAWS
`random_scenario` draws from one fixed generator, every fifth with its
cross-sector blocks dropped.

It prints each root's line and AST statement counts of `src/` (joining
or splitting lines moves only the first), one line per item that
differs (for analyze, cli and load, where only numbers differ, how many
do and the largest relative difference, with both values and its line,
else the first line that differs, as each root has it; for sigma and
lower, with the largest difference relative to max(1, |sigma|) and
whether the inf/NaN patterns agree; for pairs, how many log Z differ
only in the sign of zero, the largest relative difference of the others
and whether the other fields agree; for oracle, each differing field
with its relative difference; for quotients, per call, each
`fixed_spin_criteria` region whose lhs or list membership differs with
both entries, or else the first field that differs), then a count per
kind.  The exit status is 1 when an analyze, cli, pairs, sigma,
quotients, oracle or load item differs; lower only reports:
σ_I^{(n,m)} reads the array of (m, n), so a lower item repeats a sigma
item.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import glob
import hashlib
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
N_DRAWS = 40
BLOCK_PARAMS = dict(a=0.3, d=0.25, w=0.45, b=0.1 + 0.05j, u=0.12 - 0.03j,
                    v=0.07 + 0.02j)
KINDS = ("analyze", "cli", "pairs", "sigma", "lower", "quotients", "oracle", "load")
# `rstn sweep` grids, each run on both family files
SWEEP_GRIDS = {"s-scale": "2,5,20", "a": "0.1,0.3", "d": "0.1,0.3", "w": "0:1:21",
               "b": "0,0.1", "u": "0,0.1", "v": "0,0.1", "nu": "0.25,0.5,0.75",
               "c_n": "0:1:5"}
GLOBAL_ARGS = (("8", "3", "0.5", "0", "3"), ("12", "5", "1.0", "1", "4"))
# Monte Carlo samples: perfbench's oracle workload, a few for the five-vertex
# family, and the CLI default for the bundled files
MC_SAMPLES = {"tiny_generic": 400, "appendix_c(2)": 100, "once_fine_grained(1)": 48,
              "tiny_oracle.json": 2000, "once_fine_grained.json": 2000}


FIRST_CELL = r'("0,0": \[\[)(\[[^\]]*\]|[^,\]]*)'  # the first cell of block 0,0
# malformed texts: name -> edit of a valid scenario's text
LOAD_VARIANTS = {
    **{f"cut at {k}/8": (lambda t, k=k: t[:len(t) * k // 8]) for k in range(1, 8)},
    "byte order mark": lambda t: "\ufeff" + t,
    "extra data": lambda t: t + " x",
    "trailing comma": lambda t: t.replace('"blocks": {', '"blocks": {"9,9": [[1]],}', 1),
    "missing colon": lambda t: t.replace('"blocks": {"0,0":', '"blocks": {"0,0"', 1),
    "repeated top-level key": lambda t: t[:t.rindex("}")] + ', "region_C": []}',
    "repeated block key": lambda t: t.replace('"blocks": {', '"blocks": {"0,0": [[1]], ', 1),
    "repeated key in a cell": lambda t: re.sub(FIRST_CELL, r'\1{"a": 1, "a": 2}', t, 1),
    "boolean cell": lambda t: re.sub(FIRST_CELL, r"\1true", t, 1),
    "NaN cell": lambda t: re.sub(FIRST_CELL, r"\1NaN", t, 1),
    "string cell": lambda t: re.sub(FIRST_CELL, r'\1"x"', t, 1),
    "ragged row": lambda t: re.sub(FIRST_CELL + ", ", r"\1", t, 1),
    "bad cell and bad key": lambda t: re.sub(FIRST_CELL, r"\1true", t, 1).replace(
        '"graph"', '"grph"', 1),
    "block not a matrix": lambda t: re.sub(r'"0,0": \[', '"0,0": [5, ', t, 1),
}


def corpus(root: str) -> dict:
    """Name -> Scenario; the families, perfbench's seed-1 inputs and the draws."""
    import numpy as np

    sys.path.insert(0, os.path.join(root, "perfbench"))
    import inputs
    from rstn import families
    from rstn.state import scenario_from_dict

    out = {
        "appendix_c(2)": families.appendix_c(2),
        "appendix_c(4, blocks)": families.appendix_c(4, **BLOCK_PARAMS),
        "appendix_c(2, blocks, high_spin)": families.appendix_c(
            2, **BLOCK_PARAMS, mode="high_spin"),
        "two_sector(4, 6)": families.two_sector(4, 6, 0.3),
        "tiny_generic": families.tiny_generic(),
        "tiny_generic(high_spin)": families.tiny_generic("high_spin"),
        "once_fine_grained(1)": families.once_fine_grained(1),
        # Q = 1: the one corpus scenario whose weights need the simplex search
        "appendix_c(1, s_link, high_spin)": families.appendix_c(
            1, region="s_link", mode="high_spin"),
    }
    # perfbench/run.py seeds each workload with [seed, its index]
    dense, _, _ = inputs.dense_bulk(np.random.default_rng([1, 1]))
    ms6, ms5, _ = inputs.many_sectors(np.random.default_rng([1, 2]))
    for name, data in (("dense_ring8", dense), ("ms6", ms6), ("ms5", ms5)):
        out[f"perfbench:{name}"] = scenario_from_dict(data)
    rng = np.random.default_rng(2024)
    for k in range(N_DRAWS):
        template = ("one", "two", "chain")[k % 3]
        n_sec, mode = 1 + k % 4, ("exact", "high_spin")[k // 3 % 2]
        sc = families.random_scenario(rng, template, n_sectors=n_sec,
                                      max_twice=5, mode=mode)
        if k % 5 == 4:  # block-diagonal: the cross-sector blocks dropped
            sc = dataclasses.replace(sc, blocks={
                (m, n): blk for (m, n), blk in sc.blocks.items() if m == n})
        out[f"random_scenario#{k}"] = sc
    return out


def engine_outputs(root: str) -> dict:
    """pairs, sigma, lower and quotients items of one root, hex for the
    arrays."""
    from rstn.ising import IsingEngine

    items = {}
    scenarios = corpus(root)
    for name, sc in scenarios.items():
        engine = IsingEngine(sc)
        items[f"pairs {name}"] = repr(engine.all_pairs())
        for m in range(engine.n_sec):
            for n in range(engine.n_sec):
                kind = "sigma" if m <= n else "lower"
                sigma = engine._sigma_array(m, n)
                items[f"{kind} {name} ({m},{n})"] = sigma.tobytes().hex()
    return {**items, **quotient_outputs(scenarios)}


def quotient_outputs(scenarios: dict) -> dict:
    """quotients items: each quotient of the shared engine, twice."""
    from dataclasses import astuple

    from rstn.holography import analyze_holography, fixed_spin_criteria, solve_weights
    from rstn.ising import IsingEngine
    from rstn.observables import (area_average, area_average_partition,
                                  area_variance)

    def render(value) -> str:
        if hasattr(value, "tobytes"):
            return value.tobytes().hex()
        if isinstance(value, tuple):
            return "(" + ", ".join(map(render, value)) + ")"
        return repr(value)

    def twice(call) -> list[str]:
        out = []
        for _ in range(2):
            try:
                out.append(render(call()))
            except Exception as exc:  # the failure is the output compared
                out.append(f"{type(exc).__name__}: {exc}")
        return out

    items = {}
    for name, sc in scenarios.items():
        engine = IsingEngine.of(sc)
        for quotient, call in (
                ("purity", engine.purity),
                ("distribution", engine.distribution),
                ("analyze_holography", lambda: astuple(analyze_holography(sc))),
                ("solve_weights", lambda: astuple(solve_weights(sc))),
                ("area_average", lambda: area_average(sc)),
                ("area_average_partition", lambda: area_average_partition(sc)),
                ("area_variance", lambda: area_variance(sc))):
            items[f"quotients {name} {quotient}"] = twice(call)
        for s in range(len(sc.sectors)):
            items[f"quotients {name} fixed_spin_criteria({s})"] = twice(
                lambda: fixed_spin_criteria(sc, s))
    return items


def oracle_outputs(root: str) -> dict:
    """oracle items of one root: the repr of every result field."""
    from rstn import families
    from rstn.oracle import exact_purity, mc_purity
    from rstn.state import load_scenario

    bundled = os.path.join(src(root), "rstn", "scenarios")
    scenarios = {"tiny_generic": families.tiny_generic(),
                 "appendix_c(2)": families.appendix_c(2),
                 "once_fine_grained(1)": families.once_fine_grained(1),
                 **{name: load_scenario(os.path.join(bundled, name))
                    for name in ("tiny_oracle.json", "once_fine_grained.json")}}
    fields = ("purity", "stderr", "mean_num", "mean_den")
    items = {}
    for name, sc in scenarios.items():
        items[f"oracle {name} exact"] = [repr(float(v)) for v in exact_purity(sc)]
        res = mc_purity(sc, MC_SAMPLES[name], 7)
        items[f"oracle {name} mc {MC_SAMPLES[name]}"] = [
            repr(float(getattr(res, f))) for f in fields]
    return items


def load_outputs(root: str) -> dict:
    """load items of one root, each file written to a temporary directory."""
    from rstn.state import load_scenario, scenario_to_dict

    def loaded(path: str) -> str:
        try:
            sc = load_scenario(path)
        except Exception as exc:  # the failure is the output compared
            return f"{type(exc).__name__}: {exc}".replace(os.path.dirname(path), "<dir>")
        return "\n".join(f"{m},{n} {blk.shape} {hashlib.sha256(blk.tobytes()).hexdigest()}"
                         for (m, n), blk in sc.blocks.items())

    bundled = os.path.join(src(root), "rstn", "scenarios")
    texts = {f"bundled:{os.path.basename(path)}": pathlib.Path(path).read_text(encoding="utf-8")
             for path in sorted(glob.glob(os.path.join(bundled, "*.json")))}
    texts.update({f"corpus:{name}": json.dumps(scenario_to_dict(sc))
                  for name, sc in corpus(root).items()})
    for base in ("bundled:tiny_oracle.json", "corpus:perfbench:dense_ring8"):
        compact = json.dumps(json.loads(texts[base]))  # the spacing the edits match
        texts.update({f"{base} {name}": edit(compact) for name, edit in LOAD_VARIANTS.items()})
    items = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        for name, text in texts.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            items[f"load {name}"] = loaded(path)
    return items


def command_args(bundled: str) -> dict:
    """Item key -> rstn arguments, for the bundled files in `bundled`."""
    items = {}
    for path in sorted(glob.glob(os.path.join(bundled, "*.json"))):
        name = os.path.basename(path)
        for mode in ("exact", "high_spin"):
            for extra in ([], ["--terms"], ["--out"], ["--terms", "--out"]):
                items[" ".join(["analyze", name, "--mode", mode, *extra])] = [
                    "analyze", path, "--mode", mode, *extra]
        for cmd, *extra in (["validate"], ["solve-weights"],
                            ["oracle", "--method", "exact"]):
            items[" ".join(["cli", cmd, name, *extra])] = [cmd, path, *extra]
    for name in ("appendix_c.json", "two_sector_nu.json"):
        for param, grid in SWEEP_GRIDS.items():
            extra = ["--param", param, "--grid", grid]
            items[" ".join(["cli sweep", name, *extra])] = [
                "sweep", os.path.join(bundled, name), *extra]
    for n_outer, n_a, q, jmin, jmax in GLOBAL_ARGS:
        args = ["global", "--n-outer", n_outer, "--n-a", n_a, "--core-purity", q,
                "--jmin", jmin, "--jmax", jmax]
        items[" ".join(["cli", *args])] = args
    return items


def command_outputs(root: str, cache: str) -> dict:
    """analyze and cli items of one root, one fresh interpreter per command;
    a command ending in --out writes a temporary file, read back and removed."""
    env = dict(os.environ, **THREADS, PYTHONPATH=src(root), PYTHONPYCACHEPREFIX=cache)
    items = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        for key, args in command_args(os.path.join(src(root), "rstn", "scenarios")).items():
            if args[-1] == "--out":
                args = [*args, out]
            res = subprocess.run([sys.executable, "-m", "rstn.cli", *args],
                                 env=env, capture_output=True)
            written = ""
            if os.path.exists(out):
                with open(out, encoding="utf-8") as fh:
                    written = fh.read()
                os.remove(out)
            items[key] = (f"exit {res.returncode}\n" + res.stdout.decode() + written
                          + res.stderr.decode().replace(src(root), "<src>"))
    return items


def src(root: str) -> str:
    return os.path.join(root.split("=", 1)[-1], "src")


def src_size(root: str) -> tuple[int, int]:
    """Lines and AST statements (`ast.stmt` nodes) over every `src/**/*.py`:
    joining or splitting lines changes the first count only."""
    lines = statements = 0
    for path in glob.glob(os.path.join(src(root), "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            text = fh.readlines()
        lines += len(text)
        statements += sum(isinstance(node, ast.stmt)
                          for node in ast.walk(ast.parse("".join(text))))
    return lines, statements


def collect(root: str, cache: str) -> dict:
    env = dict(os.environ, **THREADS, PYTHONPATH=src(root), PYTHONPYCACHEPREFIX=cache)
    with tempfile.NamedTemporaryFile(suffix=".json") as fh:
        subprocess.run([sys.executable, __file__, "--child", root.split("=", 1)[-1],
                        fh.name], env=env, check=True)
        items = json.load(fh)
    return {**command_outputs(root, cache), **items}


def line_difference(a: str, b: str) -> str:
    """The first line where two outputs differ, numbered from 1, as each
    has it ("(end)" past the last line of the shorter)."""
    x, y = a.splitlines(), b.splitlines()
    k = next((k for k, (u, v) in enumerate(zip(x, y)) if u != v), min(len(x), len(y)))
    return "line {}: {} vs {}".format(
        k + 1, *(repr(lines[k]) if k < len(lines) else "(end)" for lines in (x, y)))


NUMBER = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"


def numeric_difference(a: str, b: str) -> str | None:
    """Where two outputs differ in their numeric tokens alone: how many
    numbers differ, and the largest relative difference (to the larger
    magnitude) with both values and its line; None where anything else
    differs, the exit code of a command's first line included."""
    x, y = (re.split(f"({NUMBER})", text) for text in (a, b))
    exits = [text.partition("\n")[0] for text in (a, b) if text.startswith("exit ")]
    if len(x) != len(y) or x[::2] != y[::2] or len(set(exits)) > 1:
        return None

    def rel(k: int) -> float:
        u, v = float(x[k]), float(y[k])
        return abs(u - v) / (max(abs(u), abs(v)) or 1.0)

    moved = [k for k in range(1, len(x), 2) if x[k] != y[k]]
    k = max(moved, key=rel)
    return (f"{len(moved)} of {len(x) // 2} numbers differ, by at most {rel(k):.3g} "
            f"relative: {x[k]} vs {y[k]} on line {''.join(x[:k]).count(chr(10)) + 1}")


def sigma_difference(a: str, b: str) -> str:
    import numpy as np

    x, y = (np.frombuffer(bytes.fromhex(h)) for h in (a, b))
    if x.shape != y.shape:
        return f"lengths {x.size} and {y.size}"
    same = (np.array_equal(np.isinf(x), np.isinf(y))
            and np.array_equal(np.isnan(x), np.isnan(y)))
    fin = np.isfinite(x) & np.isfinite(y)
    rel = np.abs(x[fin] - y[fin]) / np.maximum(1.0, np.abs(x[fin]))
    return (f"max relative {rel.max(initial=0.0):.3g} on {int((rel > 0).sum())} of "
            f"{x.size} sets; inf/NaN patterns {'equal' if same else 'DIFFER'}")


def pairs_difference(a: str, b: str) -> str:
    """The log Z values of two pair-table reprs, by position: how many
    differ only in the sign of zero, and the largest relative difference
    of the others (to the larger magnitude)."""
    pattern = r"LogWeight\(log=([^)]*)\)"
    x, y = (re.findall(pattern, s) for s in (a, b))
    moved = [(float(u), float(v)) for u, v in zip(x, y) if u != v]
    signed = sum(u == v == 0.0 for u, v in moved)
    rel = max((abs(u - v) / max(abs(u), abs(v)) if math.isfinite(u - v) else math.inf
               for u, v in moved if u != v), default=0.0)
    same = len(x) == len(y) and re.sub(pattern, "", a) == re.sub(pattern, "", b)
    return (f"{signed} of {len(x)} log Z differ in the sign of zero only, "
            f"{len(moved) - signed} more by at most {rel:.3g} relative; "
            f"other fields {'equal' if same else 'DIFFER'}")


def oracle_difference(a: list[str], b: list[str]) -> str:
    """Relative difference of each field that differs, by position (to the
    larger magnitude; absolute where both are zero, as 0.0 and -0.0)."""
    def rel(x: float, y: float) -> float:
        return abs(x - y) / (max(abs(x), abs(y)) or 1.0)

    return "; ".join(f"field {k}: {x} vs {y}, relative {rel(float(x), float(y)):.3g}"
                     for k, (x, y) in enumerate(zip(a, b)) if x != y)


def _fields(text: str) -> list[str]:
    """The top-level fields of a rendered tuple "(a, b, ...)", else [text]."""
    if not (text.startswith("(") and text.endswith(")")):
        return [text]
    fields, depth, start = [], 0, 1
    for k, ch in enumerate(text[1:-1], 1):
        depth += (ch in "([{") - (ch in ")]}")
        if depth == 0 and text.startswith(", ", k):
            fields.append(text[start:k])
            start = k + 2
    return fields + [text[start:-1]]


def _regions(text: str) -> dict | None:
    """Region -> {list: entry} of a FixedSpinReport repr: (lhs, rhs) in
    failing and degenerate, True in necessary_failing; None for an error."""
    if not text.startswith("FixedSpinReport("):
        return None
    rep = eval(text, {"__builtins__": {}},  # the repr of our own dataclass
               {"FixedSpinReport": dict, "inf": math.inf, "nan": math.nan})
    out: dict = {}
    for name in ("failing", "degenerate"):
        for xs, lhs, rhs in rep[name]:
            out.setdefault(xs, {})[name] = (lhs, rhs)
    for xs in rep["necessary_failing"]:
        out.setdefault(xs, {})["necessary_failing"] = True
    return out


def quotient_difference(key: str, a: list[str], b: list[str]) -> str:
    """What moved in a quotients item, call by call: for
    `fixed_spin_criteria`, each region whose lhs or list membership
    differs, with both sides' entries (absent: not in that list); for the
    others the first field that differs, an array field (hex bytes) at its
    first differing entry."""
    notes = []
    for call, (x, y) in enumerate(zip(a, b)):
        if x == y:
            continue
        rx, ry = (_regions(t) for t in (x, y)) if "fixed_spin_criteria" in key else (None,) * 2
        if rx is not None and ry is not None:
            for xs in sorted(rx.keys() | ry.keys(), key=lambda r: (len(r), r)):
                u, v = rx.get(xs, {}), ry.get(xs, {})
                notes += [f"call {call} region {xs} {name}: {u.get(name, 'absent')} vs "
                          f"{v.get(name, 'absent')}" for name in sorted(u.keys() | v.keys())
                          if u.get(name) != v.get(name)]
            continue
        fx, fy = _fields(x), _fields(y)
        k = next((k for k, (u, v) in enumerate(zip(fx, fy)) if u != v), min(len(fx), len(fy)))
        if k >= min(len(fx), len(fy)):
            notes.append(f"call {call}: {len(fx)} vs {len(fy)} fields")
            continue
        u, v = fx[k], fy[k]
        if len(u) == len(v) and len(u) % 16 == 0 and re.fullmatch("[0-9a-f]+", u + v):
            import numpy as np

            p, q = (np.frombuffer(bytes.fromhex(h)) for h in (u, v))
            i = int(np.flatnonzero(p.view(np.int64) != q.view(np.int64))[0])
            u, v, k = repr(float(p[i])), repr(float(q[i])), f"{k} entry {i}"
        notes.append(f"call {call} field {k}: {u} vs {v}")
    return "\n    ".join([""] + notes)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", action="append", default=[])
    ap.add_argument("--child", nargs=2)
    args = ap.parse_args()
    if args.child:
        with open(args.child[1], "w", encoding="utf-8") as fh:
            json.dump({**engine_outputs(args.child[0]),
                       **oracle_outputs(args.child[0]),
                       **load_outputs(args.child[0])}, fh)
        return
    if len(args.root) != 2:
        ap.error("give exactly two --root NAME=PATH")
    for root in args.root:
        print("{}: src/ has {} lines and {} statements".format(
            root.split("=", 1)[0], *src_size(root)))
    cache = tempfile.mkdtemp(prefix="compare_outputs_")
    try:
        for root in args.root:
            subprocess.run([sys.executable, "-m", "compileall", "-q", src(root)],
                           env=dict(os.environ, PYTHONPYCACHEPREFIX=cache), check=True)
        first, second = (collect(root, cache) for root in args.root)
    finally:
        shutil.rmtree(cache)
    if first.keys() != second.keys():
        print(f"item sets differ: {sorted(first.keys() ^ second.keys())}")
        sys.exit(1)
    counts, differ = dict.fromkeys(KINDS, 0), dict.fromkeys(KINDS, 0)
    for key in first:
        kind = key.split(" ", 1)[0]
        counts[kind] += 1
        if first[key] != second[key]:
            differ[kind] += 1
            note = (quotient_difference(key, first[key], second[key]) if kind == "quotients"
                    else numeric_difference(first[key], second[key])
                    or line_difference(first[key], second[key])
                    if kind in ("analyze", "cli", "load")
                    else pairs_difference(first[key], second[key]) if kind == "pairs"
                    else oracle_difference(first[key], second[key]) if kind == "oracle"
                    else sigma_difference(first[key], second[key]))
            print(f"DIFFERS {key} {note}".rstrip())
    for kind in KINDS:
        print(f"{kind}: {counts[kind] - differ[kind]} of {counts[kind]} identical")
    sys.exit(1 if any(differ[kind] for kind in KINDS if kind != "lower") else 0)


if __name__ == "__main__":
    main()
