"""Batch command-line interface.

    rstn validate <file>
    rstn analyze <file> [--mode ...] [--terms] [--out report.json]
    rstn solve-weights <file> [--out ...]
    rstn sweep <file> --param <name> --grid <values> [--out sweep.csv]
    rstn oracle <file> [--method exact|mc] [--samples N] [--seed 0..2^63-1]
    rstn global --n-outer N --n-a K [--core-purity q] [--jmin 2j] [--jmax 2J]

Exit codes: 2 parse error, 3 validation error, 4 size cap exceeded
(also `analyze --terms` beyond MAX_TERM_ROWS rows), 5 no holographic
weights exist, 6 numerical failure (a bulk-state trace that Delta
admits is not real, or the normalization sum vanishes).  Reports are
JSON (CSV for sweeps), deterministic for fixed input, flags and seed,
and embed a SHA-256 hash of the input file.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import sys
from dataclasses import replace

import click
import numpy as np

from rstn.graph import GraphError
from rstn.global_average import GlobalAvgInput, global_entropy, global_purity
from rstn.holography import InfeasibleError, analyze_holography, solve_weights
from rstn.ising import IsingEngine, NumericalError, SizeCapError
from rstn.oracle import SEED_MAX, exact_purity, mc_purity
from rstn.state import (
    ParseError,
    Scenario,
    ValidationError,
    content_hash,
    load_scenario,
)

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SIZE = 4
EXIT_INFEASIBLE = 5
EXIT_NUMERICAL = 6
MAX_TERM_ROWS = 2**19  # `analyze --terms`: about 2.3 KB of memory per row


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ParseError as exc:
            _fail(EXIT_PARSE, str(exc))
        except NumericalError as exc:  # a ValueError, but not the input's fault
            _fail(EXIT_NUMERICAL, str(exc))
        except (ValidationError, GraphError, ValueError) as exc:
            _fail(EXIT_VALIDATION, str(exc))
        except SizeCapError as exc:
            _fail(EXIT_SIZE, str(exc))
        except InfeasibleError as exc:
            _fail(EXIT_INFEASIBLE, str(exc))

    return wrapper


def _emit(report: dict, out: str | None):
    text = json.dumps(report, indent=1, sort_keys=True, allow_nan=False) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _finite(x: float) -> float | None:
    """JSON has no infinities or NaN: write such values as null."""
    return x if math.isfinite(x) else None


def _matrix(arr: np.ndarray) -> list:
    return [[float(v) for v in row] for row in np.atleast_2d(arr)]


@click.group()
def main():
    """Averaged purities of random spin networks."""


@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@_guarded
def validate(path):
    """Parse and validate a scenario file."""
    sc = load_scenario(path)
    _emit({"ok": True, "input_hash": content_hash(path),
           "vertices": sc.graph.n_vertices, "sectors": len(sc.sectors),
           "mode": sc.mode}, None)


@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(["exact", "high_spin"]),
              default=None, help="override the scenario's mode")
@click.option("--terms", is_flag=True,
              help="dump every (pair, configuration, variant) term")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guarded
def analyze(path, mode, terms, out):
    """Purity, sector distribution and holography diagnostics."""
    sc = load_scenario(path)
    if mode is not None and mode != sc.mode:
        sc = replace(sc, mode=mode)
    rows = len(sc.sectors) ** 2 << sc.graph.n_vertices + 1
    if terms and rows > MAX_TERM_ROWS:
        raise SizeCapError(f"--terms lists up to {rows} rows (sector pairs x "
                           f"configurations x 2), over the limit of "
                           f"{MAX_TERM_ROWS}")
    holo = analyze_holography(sc)
    engine = IsingEngine.of(sc)
    report = {
        "input_hash": content_hash(path),
        "mode": sc.mode,
        "purity": holo.purity,
        "dim_H_C": holo.dim_H_C,
        "ratio": holo.ratio,
        "holographic": holo.holographic,
        "tolerance": holo.tolerance,
        "P": _matrix(engine.distribution()),
        "Q": _matrix(holo.q_matrix),
        "error_bound": engine.error_bound(),
        "pairs": [
            {
                "m": r.m,
                "n": r.n,
                "log_z0": _finite(r.z0.log),
                "log_z1": _finite(r.z1.log),
                "ground_config": list(r.ground_config),
                "degeneracy": list(r.degeneracy),
            }
            for r in engine.all_pairs()
        ],
    }
    if terms:
        report["terms"] = [
            {"m": m, "n": n, "variant": v, "energy": float(energy[v, i]),
             "config": [x for x in range(engine.n_vert) if int(configs[i]) >> x & 1]}
            for m in range(engine.n_sec) for n in range(engine.n_sec)
            for configs, energy, keep in engine.terms(m, n)
            for i, v in np.argwhere(keep.T).tolist()  # config-major
        ]
    _emit(report, out)


@main.command("solve-weights")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guarded
def solve_weights_cmd(path, out):
    """Bulk sector weights that make the scenario holographic."""
    sc = load_scenario(path)
    sol = solve_weights(sc)
    _emit(
        {
            "input_hash": content_hash(path),
            "mode": sc.mode,
            "c": [float(v) for v in sol.c],
            "p": [float(v) for v in sol.p],
            "residual": sol.residual,
            "ratio": sol.ratio,
            "method": sol.method,
        },
        out,
    )


def _parse_grid(text: str) -> list[float]:
    if ":" in text:
        try:
            lo, hi, num = text.split(":")
            lo, hi, num = float(lo), float(hi), int(num)
        except ValueError as exc:
            raise ParseError(f"grid {text!r}: expected lo:hi:count") from exc
        if num < 1:
            raise ParseError(f"grid {text!r}: count must be at least 1")
        with np.errstate(all="ignore"):  # non-finite values fail below
            values = list(np.linspace(lo, hi, num))
    else:
        try:
            values = [float(tok) for tok in text.split(",")]
        except ValueError as exc:
            raise ParseError(f"grid {text!r}: expected comma list") from exc
    if not all(math.isfinite(v) for v in values):
        raise ParseError(f"grid {text!r}: values must be finite")
    return values


def _pinwheel_params(sc: Scenario) -> dict:
    """Recover the benchmark family parameters from a scenario.

    Sweeps rebuild the two-vertex benchmark families, so the input
    must be one of them: two sectors on the pinwheel graph.
    """
    g = sc.graph
    if g.n_vertices != 2 or len(g.internal) != 1 or len(sc.sectors) != 2:
        raise ValidationError(
            "sweeps need a two-sector scenario on the two-vertex "
            "benchmark graph"
        )
    blk = sc.block(0, 0)
    cross = sc.block(0, 1)
    return {
        "twice_s": sc.spin(0, "b3"),
        "a": float(blk[0, 0].real) if blk.shape == (2, 2) else None,
        "d": float(blk[1, 1].real) if blk.shape == (2, 2) else None,
        "b": complex(blk[0, 1]) if blk.shape == (2, 2) else 0.0,
        "u": complex(cross[0, 0]) if cross.size >= 1 else 0.0,
        "v": complex(cross[1, 0]) if cross.size >= 2 else 0.0,
        "w": float(sc.block(1, 1)[0, 0].real),
        "region": "s_link" if sc.region_C == ("b3",) else "x",
        "c0": sc.c_norm(0),
    }


SWEEP_PARAMS = ("s-scale", "a", "d", "w", "b", "u", "v", "nu", "c_n")


def _sweep_scenario(sc: Scenario, param: str, value: float) -> Scenario:
    from rstn.families import appendix_c, two_sector

    p = _pinwheel_params(sc)
    if param in ("nu", "c_n"):
        s = p["twice_s"]
        if param == "nu":
            t = round(value * (s + 1)) - 1
            if not 1 <= t <= s:
                raise ValidationError(f"nu={value} leaves no valid sector")
            return two_sector(s, t, p["c0"], mode=sc.mode)
        return two_sector(s, sc.spin(1, "b3"), value, mode=sc.mode)
    kw = {
        "a": p["a"], "d": p["d"], "w": p["w"],
        "b": p["b"], "u": p["u"], "v": p["v"],
    }
    if param == "s-scale":
        s = int(round(value))
    else:
        s = p["twice_s"]
        if param == "w":
            # diagonal sweeps keep the state block-diagonal
            kw.update(w=value, a=(1 - value) / 2, d=(1 - value) / 2,
                      b=0.0, u=0.0, v=0.0)
        elif param in ("a", "d"):
            kw[param] = value
            kw.update(w=1.0 - (kw["a"] + kw["d"]), b=0.0, u=0.0, v=0.0)
        else:
            kw[param] = value
    return appendix_c(s, region=p["region"], mode=sc.mode, **kw)


@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--param", type=click.Choice(SWEEP_PARAMS), required=True)
@click.option("--grid", required=True,
              help="comma list of values, or lo:hi:count")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guarded
def sweep(path, param, grid, out):
    """Purity along a one-parameter family around a benchmark scenario."""
    sc = load_scenario(path)
    rows = []
    for value in _parse_grid(grid):
        swept = _sweep_scenario(sc, param, value)
        holo = analyze_holography(swept)
        rows.append((value, holo.purity, holo.ratio))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([param, "purity", "ratio"])
    for row in rows:
        writer.writerow([repr(float(v)) for v in row])
    text = buf.getvalue()
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(["exact", "mc"]),
              default="exact")
@click.option("--samples", type=int, default=2000)
@click.option("--seed", type=click.IntRange(0, SEED_MAX), default=0)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guarded
def oracle(path, method, samples, seed, out):
    """Brute-force reference purity next to the engine value."""
    sc = load_scenario(path)
    engine_value = IsingEngine.of(sc).purity()
    report = {
        "input_hash": content_hash(path),
        "mode": sc.mode,
        "method": method,
        "engine_purity": engine_value,
    }
    if method == "exact":
        value, _, _ = exact_purity(sc)
        report["oracle_purity"] = value
        report["discrepancy"] = abs(value - engine_value)
    else:
        res = mc_purity(sc, samples, seed)
        report["oracle_purity"] = res.purity
        report["stderr"] = _finite(res.stderr)
        report["samples"] = samples
        report["seed"] = seed
        report["discrepancy"] = abs(res.purity - engine_value)
        report["z_score"] = (
            report["discrepancy"] / res.stderr if report["stderr"] else None
        )
    _emit(report, out)


@main.command("global")
@click.option("--n-outer", type=int, required=True)
@click.option("--n-a", type=int, required=True)
@click.option("--core-purity", type=float, default=1.0)
@click.option("--jmin", type=int, default=0, help="lower cutoff, twice the spin")
@click.option("--jmax", type=int, default=1, help="upper cutoff, twice the spin")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guarded
def global_cmd(n_outer, n_a, core_purity, jmin, jmax, out):
    """Joint vertex average: purity and entropy from boundary counts."""
    inp = GlobalAvgInput(
        n_outer=n_outer, n_a=n_a, core_purity=core_purity,
        twice_lower=jmin, twice_upper=jmax,
    )
    ent = global_entropy(inp)
    _emit(
        {
            "h": inp.h,
            "purity": global_purity(inp),
            "entropy_exact": ent.exact,
            "entropy_min_formula": ent.approx,
            "gap": ent.gap,
        },
        out,
    )


if __name__ == "__main__":
    main()
