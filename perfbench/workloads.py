"""The four workloads: their scenario files, operations and checks.

A workload is a fixed list of operations (one call into rstn each, or
one `rstn` CLI invocation for `cli`).  `check(result, ctx)` raises
`CheckError` when the result disagrees with a reference made apart
from the engine, or with a property the method must have, and returns
a fingerprint: an exact rendering of the result used to demand
bit-identical output for the same input in every cycle.

`ctx` is a dict shared by the operations of one cycle, so a later
operation can reuse an engine built by an earlier one (as `rstn
analyze` does) and a check can compare across operations.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs

SCENARIO_DIR = os.path.join("src", "rstn", "scenarios")
BUNDLED = ["appendix_c.json", "once_fine_grained.json", "tiny_oracle.json",
           "two_sector_nu.json"]
# `rstn analyze two_sector_nu.json` prints "log_z1": -Infinity for its
# cross-sector pairs, which is not JSON; that operation is left out
ANALYZED = ["appendix_c.json", "once_fine_grained.json", "tiny_oracle.json"]
GLOBAL_ARGS = ("8", "3", "0.5", "0", "3")  # n_outer, n_a, core purity, 2j, 2J
SWEEP_POINTS = 21
MC_SEED = 7
# Monte Carlo runs on two of the three oracle scenarios: one sample of
# once_fine_grained(1) takes 7-10 s, and its run-to-run spread alone would
# exceed the bound of ops_per_s (README)
MC_SAMPLES = {"tiny_generic": 400, "appendix_c2": 100}
# z-score bound for the MC estimates
MC_SIGMAS = 5.0


# seconds one cycle takes on the reference machine (README); a run does
# round(seconds / this) whole cycles, at least one
NOMINAL_CYCLE_S = {"cli": 10.5, "dense-bulk": 0.6, "many-sectors": 4.6,
                   "oracle": 0.42}


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


class CheckError(Exception):
    pass


@dataclass
class Op:
    name: str
    fn: Callable[[dict], object]
    check: Callable[[object, dict], object]
    # prefix of the CheckError message of a program fault that makes this
    # operation fail on every run; such a failure leaves `correct` true
    known_fault: str = ""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


def fp(*values) -> str:
    """Exact rendering of floats and arrays for bit-identity checks."""
    parts = []
    for v in values:
        if isinstance(v, np.ndarray):
            parts.append(v.tobytes().hex())
        else:
            parts.append(repr(v))
    return "|".join(parts)


def strict_json(text: str):
    def reject(token):
        raise CheckError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def scenario_files(workload: str, work: str) -> list[str]:
    if workload == "cli":
        return [os.path.join(SCENARIO_DIR, name) for name in BUNDLED]
    names = {
        "dense-bulk": ["dense_ring8.json"],
        "many-sectors": ["ms6.json", "ms5.json"],
        "oracle": ["tiny_generic.json", "appendix_c2.json",
                   "once_fine_grained1.json"],
    }[workload]
    return [os.path.join(work, name) for name in names]


# -- shared checks ---------------------------------------------------------------


def check_distribution(p: np.ndarray) -> None:
    expect(abs(p.sum() - 1.0) <= 1e-12, f"sum P = {p.sum()!r}")
    expect(np.all(p >= 0.0), "negative entry in P")
    expect(np.allclose(p, p.T, rtol=0, atol=1e-12), "P is not symmetric")


def check_pq_identity(purity: float, dim: int, p: np.ndarray, q: np.ndarray):
    total = float((p * q).sum())
    expect(close(purity * dim, total, 1e-9),
           f"purity * dim_H_C = {purity * dim!r} but sum P Q = {total!r}")


# -- dense-bulk ------------------------------------------------------------------


def dense_bulk_ops(scenarios, refs, work) -> list[Op]:
    from rstn import holography, ising

    sc = scenarios[0]
    ref = refs["dense_ring8"]
    n = ref["n"]
    with open(os.path.join(work, "direction.json"), encoding="utf-8") as fh:
        factors = [inputs.matrix_from_json(m) for m in json.load(fh)]
    direction = np.ones((1, 1), dtype=complex)
    for f in factors:
        direction = np.kron(direction, f)

    def purity(ctx):
        ctx["engine"] = ising.IsingEngine(sc)
        return ctx["engine"].purity()

    def check_purity(value, ctx):
        expect(close(value, ref["purity"], 1e-9),
               f"purity {value!r} != closed form {ref['purity']!r}")
        ctx["purity"] = value
        return fp(value)

    def check_holo(rep, ctx):
        expect(close(rep.purity, ref["purity"], 1e-9), "holography purity")
        expect(rep.dim_H_C == ref["dim_H_C"], f"dim_H_C {rep.dim_H_C}")
        expect(close(rep.ratio, ref["purity"] * ref["dim_H_C"], 1e-9), "ratio")
        expect(rep.q_matrix.shape == (1, 1)
               and close(rep.q_matrix[0, 0], rep.ratio, 1e-9), "Q")
        expect(rep.holographic == (abs(rep.ratio - 1.0) <= rep.tolerance),
               "holographic flag")
        expect(not rep.singular and close(rep.inverse_sum, 1.0 / rep.ratio, 1e-9),
               "inverse sum")
        ctx["q"] = rep.q_matrix
        return fp(rep.purity, rep.ratio, rep.q_matrix, rep.inverse_sum)

    def check_pairs(pairs, ctx):
        expect(len(pairs) == 1, f"{len(pairs)} sector pairs")
        got = [pairs[0].z0.log, pairs[0].z1.log]
        expect(all(abs(g - r) <= 1e-9 for g, r in zip(got, ref["log_z"])),
               f"log Z {got} != closed form {ref['log_z']}")
        return fp(*got, pairs[0].ground_config, pairs[0].degeneracy)

    def check_dist(p, ctx):
        expect(p.shape == (1, 1) and p[0, 0] == 1.0, f"P = {p!r}")
        check_pq_identity(ctx["purity"], ref["dim_H_C"], p, ctx["q"])
        return fp(p)

    def check_bound(value, ctx):
        expect(close(value, ref["error_bound"], 1e-9),
               f"error bound {value!r} != {ref['error_bound']!r}")
        return fp(value)

    fixed_ref = {
        tuple(x for x in range(n) if mask >> x & 1): (lhs, nec, s2)
        for mask, lhs, nec, s2 in ref["fixed_spin"]
    }

    def check_fixed(rep, ctx):
        failing = {xs: (lhs, rhs) for xs, lhs, rhs in rep.failing}
        nec = set(rep.necessary_failing)
        expect(not rep.degenerate, "unexpected degenerate regions")
        for xs, (lhs_units, nec_units, s2) in fixed_ref.items():
            lhs = lhs_units * inputs.LOG2
            if xs in failing:
                got_lhs, got_rhs = failing[xs]
                expect(abs(got_lhs - lhs) <= 1e-9 and close(got_rhs, s2, 1e-9),
                       f"region {xs}: ({got_lhs}, {got_rhs}) != ({lhs}, {s2})")
            if abs(lhs - s2) > 1e-9:
                expect((xs in failing) == (lhs < s2), f"region {xs} flip test")
            # equal counts of log 2 compare by floating-point rounding
            if lhs_units != nec_units:
                expect((xs in nec) == (lhs_units < nec_units),
                       f"region {xs} necessary condition")
        expect(rep.passed == (not rep.failing), "passed flag")
        return fp(rep.passed, rep.failing, rep.degenerate, rep.necessary_failing)

    def check_gradient(value, ctx):
        expect(abs(value - ref["gradient"]) <= 1e-9 * ref["gradient_scale"],
               f"gradient {value!r} != closed form {ref['gradient']!r}")
        return fp(value)

    return [
        Op("purity", purity, check_purity),
        Op("analyze_holography", lambda ctx: holography.analyze_holography(sc),
           check_holo),
        Op("all_pairs", lambda ctx: ctx["engine"].all_pairs(), check_pairs),
        Op("distribution", lambda ctx: ctx["engine"].distribution(), check_dist),
        Op("error_bound", lambda ctx: ctx["engine"].error_bound(), check_bound),
        Op("fixed_spin_criteria",
           lambda ctx: holography.fixed_spin_criteria(sc, 0), check_fixed),
        Op("purity_gradient", lambda ctx: ising.purity_gradient(sc, direction),
           check_gradient),
    ]


# -- many-sectors ----------------------------------------------------------------


def many_sectors_ops(scenarios, refs, work) -> list[Op]:
    from rstn import holography, ising, observables

    ms6, ms5 = scenarios
    r6, r5 = refs["ms6"], refs["ms5"]

    def analyze_ops(key, sc, dim, check_purity_ref, check_holo_ref,
                    check_pairs_ref, check_p_ref):
        def purity(ctx):
            ctx[key, "engine"] = ising.IsingEngine(sc)
            return ctx[key, "engine"].purity()

        def check_purity(value, ctx):
            check_purity_ref(value)
            ctx[key, "purity"] = value
            return fp(value)

        def check_holo(rep, ctx):
            expect(close(rep.purity, ctx[key, "purity"], 1e-12),
                   "holography purity differs from the engine's")
            expect(rep.dim_H_C == dim, f"dim_H_C {rep.dim_H_C} != {dim}")
            expect(close(rep.ratio, rep.purity * dim, 1e-12), "ratio")
            check_holo_ref(rep)
            ctx[key, "q"] = rep.q_matrix
            return fp(rep.purity, rep.ratio, rep.q_matrix, rep.holographic)

        def check_pairs(pairs, ctx):
            n_sec = len(sc.sectors)
            expect([(r.m, r.n) for r in pairs]
                   == [(m, q) for m in range(n_sec) for q in range(n_sec)],
                   "pair order")
            z0 = np.array([[math.exp(r.z0.log) for r in pairs[m * n_sec:(m + 1) * n_sec]]
                           for m in range(n_sec)])
            z1 = np.array([[math.exp(r.z1.log) for r in pairs[m * n_sec:(m + 1) * n_sec]]
                           for m in range(n_sec)])
            check_pairs_ref(z0, z1)
            q = np.where(z0 > 0, dim * z1 / np.where(z0 > 0, z0, 1.0), 0.0)
            expect(np.allclose(q, ctx[key, "q"], rtol=1e-12, atol=0),
                   "Z1 / Z0 * dim H_C differs from the holography Q")
            return fp(z0, z1)

        def check_dist(p, ctx):
            check_distribution(p)
            check_pq_identity(ctx[key, "purity"], dim, p, ctx[key, "q"])
            check_p_ref(p)
            return fp(p)

        def check_bound(value, ctx):
            expect(math.isfinite(value) and value >= 0.0,
                   f"error bound {value!r}")
            return fp(value)

        return [
            Op(f"{key}.purity", purity, check_purity),
            Op(f"{key}.analyze_holography",
               lambda ctx: holography.analyze_holography(sc), check_holo),
            Op(f"{key}.all_pairs", lambda ctx: ctx[key, "engine"].all_pairs(),
               check_pairs),
            Op(f"{key}.distribution",
               lambda ctx: ctx[key, "engine"].distribution(), check_dist),
            Op(f"{key}.error_bound",
               lambda ctx: ctx[key, "engine"].error_bound(), check_bound),
        ]

    def ms6_purity(value):
        expect(close(value, r6["oracle_purity"], 1e-10),
               f"purity {value!r} != oracle {r6['oracle_purity']!r}")

    def ms6_holo(rep):
        expect(not rep.holographic, "ms6 should not be holographic")

    def ms5_purity(value):
        expect(close(value, r5["purity"], 1e-9),
               f"purity {value!r} != high-spin closed form {r5['purity']!r}")

    q5 = np.array(r5["Q"])
    p5 = np.array(r5["P"])

    def ms5_holo(rep):
        expect(np.allclose(rep.q_matrix, q5, rtol=1e-12, atol=0), "Q matrix")
        expect(rep.holographic == r5["holographic"], "holographic flag")

    def ms6_pairs(z0, z1):
        expect(np.all(z0 > 0.0), "a sector pair with vanishing Z0")

    def ms5_pairs(z0, z1):
        expect(np.allclose(z0, r5["z0"], rtol=1e-12, atol=0)
               and np.allclose(z1, r5["z1"], rtol=1e-12, atol=0),
               "Z0, Z1 differ from the high-spin ground states")

    def ms5_p(p):
        expect(np.allclose(p, p5, rtol=1e-9, atol=1e-15), "P matrix")

    k_tilde = np.array(r5["k_tilde"])

    def check_weights(sol, ctx):
        p = sol.p
        expect(np.all(p >= 0.0) and abs(p.sum() - 1.0) <= 1e-12, "p off simplex")
        residual = float(p @ (q5 - 1.0) @ p)
        expect(abs(residual) <= 1e-9, f"p (Q - 1) p = {residual!r}")
        expect(sol.residual <= 1e-9, f"reported residual {sol.residual!r}")
        c = p / k_tilde
        expect(np.allclose(sol.c, c / c.sum(), rtol=1e-9, atol=0),
               "weights c are not p / Ktilde")
        return fp(sol.c, sol.p, sol.residual, sol.method)

    def check_area(value, ctx):
        expect(close(value, r5["area_variance"], 1e-9, 1e-15),
               f"area variance {value!r} != {r5['area_variance']!r}")
        return fp(value)

    return (
        analyze_ops("ms6", ms6, r6["dim_H_C"], ms6_purity, ms6_holo, ms6_pairs,
                    lambda p: None)
        + analyze_ops("ms5", ms5, r5["dim_H_C"], ms5_purity, ms5_holo, ms5_pairs,
                      ms5_p)
        + [
            Op("ms5.solve_weights", lambda ctx: holography.solve_weights(ms5),
               check_weights),
            Op("ms5.area_variance", lambda ctx: observables.area_variance(ms5),
               check_area),
        ]
    )


# -- oracle ----------------------------------------------------------------------


def oracle_ops(scenarios, refs, work) -> list[Op]:
    from rstn import oracle

    exact, mc = [], []
    names = ["tiny_generic", "appendix_c2", "once_fine_grained1"]
    for name, sc in zip(names, scenarios):
        ref = refs[name]

        def check_exact(result, ctx, ref=ref):
            value, z1, z0 = result
            expect(abs(value - ref["engine_purity"]) <= 1e-10,
                   f"exact {value!r} != engine {ref['engine_purity']!r}")
            if "closed_form" in ref:
                expect(close(value, ref["closed_form"], 1e-10),
                       f"exact {value!r} != closed form {ref['closed_form']!r}")
            expect(z0 > 0.0 and z1 > 0.0, "non-positive raw sums")
            return fp(value, z1, z0)

        exact.append(Op(f"exact_purity.{name}",
                        lambda ctx, sc=sc: oracle.exact_purity(sc), check_exact))

    for name, sc in zip(names, scenarios):
        if name not in MC_SAMPLES:
            continue
        ref = refs[name]
        samples = MC_SAMPLES[name]

        def check_mc(res, ctx, ref=ref, samples=samples):
            expect(res.n_samples == samples, "sample count")
            expect(0.0 < res.purity <= 1.0 and math.isfinite(res.stderr)
                   and res.stderr > 0.0, f"estimate {res.purity!r} +- {res.stderr!r}")
            z = abs(res.purity - ref["engine_purity"]) / res.stderr
            expect(z <= MC_SIGMAS, f"MC estimate {z:.2f} standard errors off")
            return fp(res.purity, res.stderr, res.mean_num, res.mean_den)

        mc.append(Op(f"mc_purity.{name}",
                     lambda ctx, sc=sc, samples=samples:
                     oracle.mc_purity(sc, samples, MC_SEED),
                     check_mc))
    return exact + mc


# -- cli -------------------------------------------------------------------------


def cli_commands() -> list[tuple[str, list[str]]]:
    path = {name: os.path.join(SCENARIO_DIR, name) for name in BUNDLED}
    n_outer, n_a, q, jmin, jmax = GLOBAL_ARGS
    cmds = [(f"validate.{name}", ["validate", path[name]]) for name in BUNDLED]
    cmds += [(f"analyze.{name}", ["analyze", path[name]]) for name in ANALYZED]
    cmds += [
        ("solve-weights", ["solve-weights", path["two_sector_nu.json"]]),
        ("oracle", ["oracle", path["tiny_oracle.json"], "--method", "exact"]),
        ("sweep", ["sweep", path["appendix_c.json"], "--param", "w",
                   "--grid", f"0:1:{SWEEP_POINTS}"]),
        ("global", ["global", "--n-outer", n_outer, "--n-a", n_a,
                    "--core-purity", q, "--jmin", jmin, "--jmax", jmax]),
    ]
    return cmds


def cli_ops(root: str, refs: dict) -> list[Op]:
    ops = []
    for name, args in cli_commands():
        def run(ctx, args=args):
            return subprocess.run(
                [sys.executable, "-m", "rstn.cli", *args], cwd=root,
                capture_output=True, text=True, timeout=120)

        ops.append(Op(name, run, _cli_checker(args, refs),
                      SWEEP_FAULT if args[0] == "sweep" else ""))
    return ops


def _cli_checker(args: list[str], refs: dict):
    command = args[0]
    first_output: list[str] = []

    def check(proc, ctx):
        expect(proc.returncode == 0,
               f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
        out = proc.stdout
        if command == "sweep":
            first_output[:] = first_output or [out]
            expect(out == first_output[0], "sweep output differs between cycles")
            _check_sweep(out, refs)
            return out
        rep = strict_json(out)
        if command in ("validate", "analyze", "solve-weights", "oracle"):
            file_ref = refs["files"][os.path.basename(args[1])]
            expect(rep["input_hash"] == file_ref["sha256"], "input hash")
        if command == "validate":
            expect(rep["ok"] is True, "validate not ok")
            expect(rep["vertices"] == file_ref["vertices"]
                   and rep["sectors"] == file_ref["sectors"], "validate counts")
        elif command == "analyze":
            p, q = np.array(rep["P"]), np.array(rep["Q"])
            check_distribution(p)
            check_pq_identity(rep["purity"], rep["dim_H_C"], p, q)
            expect(close(rep["purity"], file_ref["reference_purity"], 1e-10),
                   f"purity {rep['purity']!r} != reference "
                   f"{file_ref['reference_purity']!r}")
        elif command == "solve-weights":
            p = np.array(rep["p"])
            expect(np.allclose(p, file_ref["holographic_p"], rtol=1e-9, atol=0),
                   f"p = {rep['p']} != {file_ref['holographic_p']}")
            expect(rep["residual"] <= 1e-9 and close(rep["ratio"], 1.0, 1e-9),
                   f"residual {rep['residual']!r}, ratio {rep['ratio']!r}")
            c = p / np.array(file_ref["k_tilde"])
            expect(np.allclose(rep["c"], c / c.sum(), rtol=1e-9, atol=0),
                   "weights c are not p / Ktilde")
        elif command == "oracle":
            expect(rep["discrepancy"] < 1e-10,
                   f"oracle discrepancy {rep['discrepancy']!r}")
        elif command == "global":
            expected = refs["global_purity"]
            expect(close(rep["purity"], expected, 1e-12),
                   f"global purity {rep['purity']!r} != {expected!r}")
        return out

    return check


# `rstn sweep` writes each grid value as repr() of a numpy scalar,
# "np.float64(0.05)", which is not a number in CSV.
SWEEP_FAULT = "sweep grid value is not a number"


def _check_sweep(out: str, refs: dict) -> None:
    rows = list(csv.reader(io.StringIO(out)))
    expect(rows[0] == ["w", "purity", "ratio"], f"sweep header {rows[0]}")
    expect(len(rows) == SWEEP_POINTS + 1, f"{len(rows) - 1} sweep rows")
    for row, (w, purity) in zip(rows[1:], refs["sweep"]):
        got_p, got_ratio = float(row[1]), float(row[2])
        expect(close(got_p, purity, 1e-9),
               f"sweep purity at w={w}: {got_p!r} != closed form {purity!r}")
        expect(close(got_ratio, got_p * refs["sweep_dim"], 1e-12), "sweep ratio")
    for row, (w, _) in zip(rows[1:], refs["sweep"]):
        try:
            got_w = float(row[0])
        except ValueError:
            raise CheckError(f"{SWEEP_FAULT}: {row[0]!r}") from None
        expect(got_w == w, f"sweep grid value {got_w!r} != {w!r}")


def cli_replay(args: list[str]) -> str:
    """Run one CLI command in this process; returns its standard output."""
    import contextlib

    import rstn.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rstn.cli.main.main(args=list(args), standalone_mode=False)
    return buf.getvalue()
