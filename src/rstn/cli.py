"""Batch command-line interface.

    rstn validate <file>
    rstn analyze <file> [--mode ...] [--terms] [--out report.json]
    rstn solve-weights <file> [--out ...]
    rstn sweep <file> --param <name> --grid <values> [--out sweep.csv]
    rstn oracle <file> [--method exact|mc] [--samples N] [--seed 0..2^63-1]
    rstn global --n-outer N --n-a K [--core-purity q] [--jmin 2j] [--jmax 2J]

Exit codes: 2 parse error, 3 validation error (also a sweep input that
is not its parameter's family's output), 4 size cap exceeded (also
`analyze --terms` beyond MAX_TERM_ROWS rows, a sweep grid beyond
MAX_GRID_VALUES values), 5 no holographic weights exist, 6 numerical
failure (a bulk-state trace that Delta admits or an exact-oracle term
is not real, or the normalization sum vanishes).  Reports are JSON
(CSV for sweeps), deterministic for fixed input, flags and seed, and
embed a SHA-256 hash of the input file.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import sys
from dataclasses import replace

import click
import numpy as np

from rstn.global_average import GlobalAvgInput, global_entropy, global_purity
from rstn.holography import InfeasibleError, analyze_holography, solve_weights
from rstn.ising import IsingEngine, NumericalError, SizeCapError
from rstn.state import ParseError, ValidationError, content_hash, load_scenario

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SIZE = 4
EXIT_INFEASIBLE = 5
EXIT_NUMERICAL = 6
MAX_TERM_ROWS = 2**19  # `analyze --terms` rows stream: this bounds output size and time
MAX_GRID_VALUES = 10_000  # `sweep --grid`: one full analysis per value
TERM_SLICE = 1 << 8  # `analyze --terms` rows formatted and written at a time


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
        except ValueError as exc:  # ValidationError, GraphError
            _fail(EXIT_VALIDATION, str(exc))
        except SizeCapError as exc:
            _fail(EXIT_SIZE, str(exc))
        except InfeasibleError as exc:
            _fail(EXIT_INFEASIBLE, str(exc))

    return wrapper


def _write(chunks, out: str | None):
    """Text chunks to the file `out`, or to stdout, each as it comes."""
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    else:
        stream = click.get_text_stream("stdout")
        stream.writelines(chunks)
        stream.flush()


def _dumps(report: dict) -> str:
    return json.dumps(report, indent=1, sort_keys=True, allow_nan=False) + "\n"


def _emit(report: dict, out: str | None):
    _write([_dumps(report)], out)


def _term_rows(engine: IsingEngine):
    """The "terms" list of `analyze --terms` as `_dumps` lays it out in the
    report, made as `IsingEngine.terms` yields the rows and written in
    slices of at most TERM_SLICE rows, each one json.dumps of its rows."""
    lead = "["
    for m in range(engine.n_sec):
        for n in range(engine.n_sec):
            for configs, energy, keep in engine.terms(m, n):
                cells = np.argwhere(keep.T)  # config-major
                for lo in range(0, len(cells), TERM_SLICE):
                    rows = json.dumps([
                        {"m": m, "n": n, "variant": v, "energy": float(energy[v, i]),
                         "config": [x for x in range(engine.n_vert)
                                    if int(configs[i]) >> x & 1]}
                        for i, v in cells[lo:lo + TERM_SLICE].tolist()],
                        indent=1, sort_keys=True, allow_nan=False)
                    # the list's rows, moved one level deeper
                    yield lead + rows[1:-2].replace("\n", "\n ")
                    lead = ","
    yield "]" if lead == "[" else "\n ]"


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
    if not terms:
        return _emit(report, out)
    # every check has run: the rows are written as they are made
    head, tail = _dumps({**report, "terms": None}).split('"terms": null')
    _write(itertools.chain([head + '"terms": '], _term_rows(engine), [tail]), out)


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
    ranged = ":" in text
    try:
        if ranged:
            lo, hi, num = text.split(":")
            lo, hi, num = float(lo), float(hi), int(num)
        else:
            values = [float(tok) for tok in text.split(",")]
            num = len(values)
    except ValueError as exc:
        form = "lo:hi:count" if ranged else "comma list"
        raise ParseError(f"grid {text!r}: expected {form}") from exc
    if num < 1:
        raise ParseError(f"grid {text!r}: count must be at least 1")
    if num > MAX_GRID_VALUES:
        raise SizeCapError(f"the grid has {num} values, over the limit of "
                           f"{MAX_GRID_VALUES}")
    if ranged:
        with np.errstate(all="ignore"):  # non-finite values fail below
            values = list(np.linspace(lo, hi, num))
    if not all(math.isfinite(v) for v in values):
        raise ParseError(f"grid {text!r}: values must be finite")
    return values


def _nu_keywords(kw: dict, nu: float) -> dict:
    t = round(nu * (kw["twice_s"] + 1)) - 1
    if not 1 <= t <= kw["twice_s"]:
        raise ValidationError(f"nu={nu} leaves no valid sector")
    return {"twice_t": t}


_DIAGONAL = {"b": 0.0, "u": 0.0, "v": 0.0}  # no off-diagonal bulk entries
# sweep parameter -> its family, and the keywords that a grid value x sets
# in the input's own call `kw` of that family (`rstn.families.family_call`);
# the sweeps of w, a and d keep the state block-diagonal
SWEEPS = {
    "s-scale": ("appendix_c", lambda kw, x: {"twice_s": int(round(x))}),
    "a": ("appendix_c", lambda kw, x: {"a": x, "w": 1.0 - (x + kw["d"]), **_DIAGONAL}),
    "d": ("appendix_c", lambda kw, x: {"d": x, "w": 1.0 - (kw["a"] + x), **_DIAGONAL}),
    "w": ("appendix_c",
          lambda kw, x: {"w": x, "a": (1 - x) / 2, "d": (1 - x) / 2, **_DIAGONAL}),
    "b": ("appendix_c", lambda kw, x: {"b": x}),
    "u": ("appendix_c", lambda kw, x: {"u": x}),
    "v": ("appendix_c", lambda kw, x: {"v": x}),
    "nu": ("two_sector", _nu_keywords),
    "c_n": ("two_sector", lambda kw, x: {"c0": x}),
}


@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--param", type=click.Choice(list(SWEEPS)), required=True)
@click.option("--grid", required=True,
              help="comma list of values, or lo:hi:count")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guarded
def sweep(path, param, grid, out):
    """Purity along a one-parameter family around a benchmark scenario.

    The input must be the output of the family that PARAM belongs to.
    """
    from rstn.families import family_call  # only sweeps rebuild families

    family, keywords = SWEEPS[param]
    values = _parse_grid(grid)
    sc = load_scenario(path)
    try:
        builder, kw = family_call(sc)
        if builder.__name__ != family:
            raise ValidationError(f"it is {builder.__name__}'s output")
    except ValidationError as exc:
        raise ValidationError(f"--param {param} needs a scenario that "
                              f"{family} builds; {exc}") from None
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([param, "purity", "ratio"])
    for value in values:
        holo = analyze_holography(builder(**{**kw, **keywords(kw, value)}))
        writer.writerow([repr(float(v)) for v in (value, holo.purity, holo.ratio)])
    _write([buf.getvalue()], out)


def _seed(ctx, param, value: int) -> int:
    """`--seed`, the first word of the Philox keys: 0..SEED_MAX."""
    from rstn.oracle import SEED_MAX

    return click.IntRange(0, SEED_MAX).convert(value, param, ctx)


@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(["exact", "mc"]),
              default="exact")
@click.option("--samples", type=int, default=2000)
@click.option("--seed", type=int, default=0, callback=_seed, help="0 to 2^63-1")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guarded
def oracle(path, method, samples, seed, out):
    """Brute-force reference purity next to the engine value."""
    from rstn.oracle import exact_purity, mc_purity  # only this command needs it

    sc = load_scenario(path)
    engine_value = IsingEngine.of(sc).purity()
    report = {
        "input_hash": content_hash(path),
        "mode": sc.mode,
        "method": method,
        "engine_purity": engine_value,
    }
    if method == "exact":
        report["oracle_purity"] = exact_purity(sc)[0]
    else:
        res = mc_purity(sc, samples, seed)
        report.update(oracle_purity=res.purity, stderr=_finite(res.stderr),
                      samples=samples, seed=seed)
    report["discrepancy"] = abs(report["oracle_purity"] - engine_value)
    if method == "mc":
        report["z_score"] = (report["discrepancy"] / res.stderr
                             if report["stderr"] else None)
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
