import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from importlib import resources

import pytest
from click.testing import CliRunner

import rstn
from rings import ring_dict
from rstn import cli, ising, oracle
from rstn.cli import main
from rstn.families import appendix_c, two_sector
from rstn.holography import analyze_holography
from rstn.state import scenario_to_dict

SCENARIOS = resources.files("rstn") / "scenarios"


@pytest.fixture
def runner():
    return CliRunner()


def scenario_path(name: str) -> str:
    return str(SCENARIOS / name)


def test_validate_ok(runner):
    res = runner.invoke(main, ["validate", scenario_path("tiny_oracle.json")])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["ok"] and len(out["input_hash"]) == 64


def test_parse_error_exit_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    res = runner.invoke(main, ["validate", str(bad)])
    assert res.exit_code == 2


def _set(path, value):
    def mutate(data):
        *keys, last = path
        for key in keys:
            data = data[key]
        data[last] = value(data[last]) if callable(value) else value
    return mutate


def _rename(path, old, new):
    """The entry `old` of the object at `path` moved to the key `new`."""
    def mutate(data):
        for key in path:
            data = data[key]
        data[new] = data.pop(old)
    return mutate


def _repeat(path, key, value):
    """`key` written a second time, with `value`, in the object at `path`;
    returns the JSON text, since a dict holds each key once."""
    def mutate(data):
        _set([*path, "\0"], value)(data)
        return json.dumps(data).replace(json.dumps("\0"), json.dumps(key))
    return mutate


def _in_file(name, then):
    """The bundled file `name` in place of `tiny_oracle.json`, then `then`."""
    def mutate(data):
        data.clear()
        data.update(json.loads((SCENARIOS / name).read_text()))
        then(data)
    return mutate


_EYE = [[0.25 if i == j else 0.0 for j in range(4)] for i in range(4)]


@pytest.mark.parametrize("mutate, named", [
    (_set(["cutoffs"], {"lower": "x"}), "cutoffs.lower"),
    (_set(["sectors", 0, "spins"], [1, 1]), "sectors[0].spins"),
    (_set(["intertwiner", "blocks"], [[1.0]]), "intertwiner.blocks"),
    (_set(["intertwiner", "blocks", "0,0", 1], lambda row: row[:-1]),
     "block 0,0"),
    (_set(["amplitudes", "i0"], {"x": 1.0}), "amplitudes[i0]"),
    (_set(["graph", "vertices"], "two"), "graph.vertices"),
    # graph integers are JSON integers: no float, bool or string
    (_set(["graph", "vertices"], 2.7), "graph.vertices: expected an integer"),
    (_set(["graph", "internal_links", 0, "from"], 0.9),
     "graph.internal_links[0].from: expected an integer, got 0.9"),
    (_set(["graph", "internal_links", 0, "color"], 1.5),
     "graph.internal_links[0].color: expected an integer, got 1.5"),
    (_set(["graph", "internal_links", 0, "color"], True),
     "graph.internal_links[0].color: expected an integer, got True"),
    (_set(["graph", "boundary_links", 0, "vertex"], "1"),
     "graph.boundary_links[0].vertex"),
    # keys rstn does not read
    (_set(["intertwiner", "vertex_product"], True), "intertwiner.vertex_product"),
    (_set(["core"], {"purity": 0.5}), "core"),
    (_set(["region_C"], 5), "region_C"),
    (_set(["region_C"], "b0"), "region_C"),
    # integers beyond the float range
    (_set(["intertwiner", "blocks", "0,0", 0], lambda row: [10**400] + row[1:]),
     "block 0,0[0][0]"),
    (_set(["intertwiner", "blocks", "0,0", 1], lambda row: [[0, 10**400]] + row[1:]),
     "block 0,0[1][0]"),
    (_set(["amplitudes", "i0", "1"], 10**400), "amplitudes[i0][1]"),
    # one spelling per key: plain ASCII decimals, no key repeated
    *((_rename(["intertwiner", "blocks"], "0,0", key),
       f"intertwiner block key {key!r}") for key in (" 0,+0", "0_0,0", "00,0", "٠,٠")),
    *((_rename(["amplitudes", "i0"], "1", key), f"amplitudes[i0] key {key!r}")
      for key in ("+1", " 1", "١")),
    (_set(["amplitudes", "i0", "01"], [9.0, 0.0]), "amplitudes[i0] key '01'"),
    (_set(["intertwiner", "blocks", "00,0"], _EYE), "block key '00,0': expected m,n"),
    pytest.param(_repeat(["amplitudes", "i0"], "1", [9.0, 0.0]),
                 "amplitudes.i0: key '1' is repeated", id="mutate-key '1' is repeated"),
    pytest.param(_repeat(["intertwiner", "blocks"], "0,0", _EYE),
                 "intertwiner.blocks: key '0,0' is repeated",
                 id="mutate-key '0,0' is repeated"),
    # no JSON boolean where a number goes
    (_set(["amplitudes", "i0", "1"], True), "amplitudes[i0][1]: expected number"),
    (_in_file("appendix_c.json", _set(["intertwiner", "blocks", "1,1"], [[True]])),
     "block 1,1[0][0]"),
    (_set(["intertwiner", "blocks", "0,0"], [[*_EYE[0][:3], True], *_EYE[1:]]),
     "block 0,0[0][3]"),
    (_set(["intertwiner", "blocks", "0,0"],
          [[[v, False if (i, j) == (2, 1) else 0.0] for j, v in enumerate(row)]
           for i, row in enumerate(_EYE)]), "block 0,0[2][1]"),
    # sector names are strings
    (_set(["sectors", 0, "name"], [1, 2]), "sectors[0].name: expected a string, got [1, 2]"),
    (_set(["sectors", 0, "name"], 5), "sectors[0].name: expected a string, got 5"),
    # link entries hold their own keys only; mode and side are strings
    (_set(["graph", "boundary_links", 0, "sid"], "inner"),
     "graph.boundary_links[0].sid: unknown key"),
    (_set(["graph", "internal_links", 0, "colour"], 1),
     "graph.internal_links[0].colour: unknown key"),
    (_set(["graph", "internal_links", 0, "side"], "outer"),
     "graph.internal_links[0].side: unknown key"),
    (_set(["graph", "boundary_links", 0, "side"], 5),
     "graph.boundary_links[0].side: expected a string, got 5"),
    (_set(["mode"], 5), "mode: expected a string, got 5"),
    (_set(["mode"], True), "mode: expected a string, got True"),
    (_set(["mode"], ["exact"]), "mode: expected a string, got ['exact']"),
])
def test_malformed_scenario_is_parse_error(runner, tmp_path, mutate, named):
    data = json.loads((SCENARIOS / "tiny_oracle.json").read_text())
    text = mutate(data)  # the JSON text, where a dict cannot hold it
    bad = tmp_path / "bad.json"
    bad.write_text(text or json.dumps(data))
    res = runner.invoke(main, ["validate", str(bad)])
    assert res.exit_code == 2, res.output
    assert named in res.output


def _non_finite_at(where: str, value: float):
    eye = [row[:] for row in _EYE]
    if where == "cell":  # an all-number block: numpy's fast path first
        eye[0][1] = value
        return _set(["intertwiner", "blocks", "0,0"], eye)
    if where in ("re", "im"):  # an all-pair block
        pairs = [[[v, 0.0] for v in row] for row in eye]
        pairs[1][0] = [value, 0.0] if where == "re" else [0.0, value]
        return _set(["intertwiner", "blocks", "0,0"], pairs)
    if where == "upper":
        return _set(["cutoffs"], {"upper": value})
    return _set(["amplitudes", "i0", "1"], value)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("where, named", [
    ("cell", "block 0,0[0][1]"), ("re", "block 0,0[1][0]"),
    ("im", "block 0,0[1][0]"), ("amplitude", "amplitudes[i0][1]"),
    ("upper", "cutoffs.upper"),
])
def test_non_finite_number_is_parse_error(runner, tmp_path, literal, where, named):
    data = json.loads((SCENARIOS / "tiny_oracle.json").read_text())
    _non_finite_at(where, float(literal))(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert literal in bad.read_text()
    res = runner.invoke(main, ["validate", str(bad)])
    assert res.exit_code == 2, res.output
    assert f"{named}: expected a finite number" in res.output


def test_validation_error_exit_3(runner, tmp_path):
    data = json.loads((SCENARIOS / "tiny_oracle.json").read_text())
    data["intertwiner"]["blocks"]["0,0"][0][0] = 5.0  # breaks the trace
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    res = runner.invoke(main, ["validate", str(bad)])
    assert res.exit_code == 3


def test_malformed_block_beside_its_adjoint_exit_3(runner, tmp_path):
    # a (1,0) of the wrong shape beside a valid (0,1) is named as itself
    data = scenario_to_dict(appendix_c(2, 0.3, 0.25, 0.45, u=0.1, v=0.05))
    data["intertwiner"]["blocks"]["1,0"] = [[0.0, 0.0, 0.0]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    res = runner.invoke(main, ["validate", str(bad)])
    assert res.exit_code == 3
    assert "block (1,0) has shape (1, 3), expected (1, 2)" in res.stderr


@pytest.mark.parametrize("lid", ["i9", "b0"])
def test_amplitude_for_unknown_link_exit_3(runner, tmp_path, lid):
    data = json.loads((SCENARIOS / "tiny_oracle.json").read_text())
    data["amplitudes"][lid] = {"1": 0.5}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    res = runner.invoke(main, ["validate", str(bad)])
    assert res.exit_code == 3, res.output
    assert f"amplitudes[{lid}]" in res.stderr


def test_amplitude_for_spin_no_sector_carries_exit_3(runner, tmp_path):
    data = json.loads((SCENARIOS / "tiny_oracle.json").read_text())
    data["amplitudes"]["i0"]["7"] = 0.01  # its one sector carries 1 on i0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for command in ("validate", "analyze"):
        res = runner.invoke(main, [command, str(bad)])
        assert res.exit_code == 3, res.output
        assert "amplitudes[i0]" in res.stderr and "twice-spin 7" in res.stderr


def test_nonreal_bulk_trace_exit_6(runner, monkeypatch):
    # a tolerance below zero calls every bulk-state trace not real, those
    # Delta admits among them: a numerical failure, not a bad input
    monkeypatch.setattr(ising, "SIGMA_IMAG_TOL", -1.0)
    res = runner.invoke(main, ["analyze", scenario_path("tiny_oracle.json")])
    assert res.exit_code == 6, res.output
    assert "bulk-state trace for pair (0,0)" in res.stderr
    assert "is not real" in res.stderr


def test_vanishing_normalization_exit_6(runner, monkeypatch):
    monkeypatch.setattr(ising.IsingEngine, "log_K", lambda self, m: -math.inf)
    res = runner.invoke(main, ["analyze", scenario_path("tiny_oracle.json")])
    assert res.exit_code == 6, res.output
    assert "error: normalization sum vanishes" in res.stderr


def test_nonreal_oracle_term_exit_6(runner, monkeypatch):
    monkeypatch.setattr(oracle._RawTerms, "intertwiner",
                        lambda self, m, n, down: 1.0 + 0.5j)
    res = runner.invoke(main, ["oracle", scenario_path("tiny_oracle.json")])
    assert res.exit_code == 6, res.output
    assert "configuration term is not real" in res.stderr


def test_size_cap_exit_4(runner, tmp_path):
    big = tmp_path / "ring.json"  # 4^2 pairs x 2^22 configurations
    big.write_text(json.dumps(ring_dict(22, 4)))
    for command in ("analyze", "solve-weights"):
        start = time.perf_counter()
        res = runner.invoke(main, [command, str(big)])
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 4, res.output
        assert "67108864" in res.output and "16777216" in res.output


def test_bulk_dimension_cap_exit_4(runner, tmp_path):
    # a sector with no block costs no bytes in the file: nine-dimensional
    # vertices give a bulk state of dimension 32 + 9^5, a 52 GiB matrix
    data = json.loads((SCENARIOS / "once_fine_grained.json").read_text())
    spins = data["sectors"][0]["spins"]
    data["sectors"].append({"name": "big", "spins": dict.fromkeys(spins, 8)})
    big = tmp_path / "big.json"
    big.write_text(json.dumps(data))
    tracemalloc.start()
    try:
        res = runner.invoke(main, ["validate", str(big)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 4, res.output
    assert "59081" in res.output and "4096" in res.output
    assert peak < 1 << 20


def test_huge_spins_reach_the_bulk_dimension_cap_at_once(runner, tmp_path):
    # twice-spins of 10^9: a vertex dimension is counted, not listed
    data = json.loads((SCENARIOS / "tiny_oracle.json").read_text())
    spins = data["sectors"][0]["spins"]
    data["sectors"].append({"name": "huge", "spins": dict.fromkeys(spins, 10**9)})
    big = tmp_path / "huge.json"
    big.write_text(json.dumps(data))
    start = time.perf_counter()
    tracemalloc.start()
    try:
        res = runner.invoke(main, ["validate", str(big)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 4, res.output
    assert str(4 + (10**9 + 1) ** 2) in res.output and "4096" in res.output  # 2 x 2 beside
    assert peak < 1 << 20


def test_terms_size_cap_exit_4(runner, tmp_path):
    big = tmp_path / "ring20.json"  # 1^2 pairs x 2^20 configurations x 2
    big.write_text(json.dumps(ring_dict(20, 1)))
    start = time.perf_counter()
    res = runner.invoke(main, ["analyze", str(big), "--terms"])
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 4, res.output
    assert "2097152" in res.output and "524288" in res.output
    small = tmp_path / "ring12.json"
    small.write_text(json.dumps(ring_dict(12, 1)))
    res = runner.invoke(main, ["analyze", str(small), "--terms"])
    assert res.exit_code == 0, res.output
    assert len(json.loads(res.output)["terms"]) == 2 * 2**12


def test_analyze_terms_streams_the_bytes_of_one_dump(runner, tmp_path):
    # rows are written as they are made: they add less than a tenth of the
    # output to the traced peak of plain `analyze`, where holding them all
    # at once would add several times the output; the bytes are json.dumps
    # of the whole report, to stdout and to --out alike
    path = tmp_path / "ring.json"  # 4^2 pairs x 2^10 configurations x 2
    path.write_text(json.dumps(ring_dict(10, 4)))
    out = tmp_path / "report.json"
    peaks = []
    for extra in ([], ["--terms"]):
        runner.invoke(main, ["analyze", str(path), *extra])  # caches warm
        tracemalloc.start()
        try:
            res = runner.invoke(main, ["analyze", str(path), *extra, "--out", str(out)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert res.exit_code == 0, res.output
    text = out.read_text(encoding="utf-8")
    report = json.loads(text)
    assert len(report["terms"]) > 2**12
    assert text == json.dumps(report, indent=1, sort_keys=True) + "\n"
    assert peaks[1] < peaks[0] + len(text) / 10
    assert runner.invoke(main, ["analyze", str(path), "--terms"]).stdout == text


def test_analyze_terms_failure_writes_nothing(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(ising, "SIGMA_IMAG_TOL", -1.0)  # every trace not real
    out = tmp_path / "terms.json"
    for extra in ([], ["--out", str(out)]):
        res = runner.invoke(main, ["analyze", scenario_path("tiny_oracle.json"),
                                   "--terms", *extra])
        assert res.exit_code == 6, res.output
        assert res.stdout == "" and "is not real" in res.stderr
    assert not out.exists()


def test_infeasible_exit_5(runner):
    res = runner.invoke(
        main, ["solve-weights", scenario_path("tiny_oracle.json")]
    )
    assert res.exit_code == 5
    # one sector: the form's minimum and maximum over the simplex agree
    assert "ranges over [5.424e-01, 5.424e-01]" in res.output


def test_analyze_report(runner):
    res = runner.invoke(main, ["analyze", scenario_path("tiny_oracle.json")])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    for key in ("purity", "dim_H_C", "ratio", "P", "Q", "pairs", "mode"):
        assert key in rep
    assert rep["mode"] == "exact"
    assert 0.0 < rep["purity"] <= 1.0


def test_analyze_deterministic(runner):
    args = ["analyze", scenario_path("appendix_c.json"), "--terms"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.exit_code == 0
    assert a.output == b.output


@pytest.mark.parametrize("mode", ["exact", "high_spin"])
@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.iterdir()
                                        if p.name.endswith(".json")))
def test_analyze_prints_no_negative_zero(runner, name, mode):
    # a row's one kept term passes through the tree as 0.0, never -0.0
    res = runner.invoke(main, ["analyze", scenario_path(name), "--mode", mode])
    assert res.exit_code == 0
    assert not re.search(r"-0\.0(?!\d)", res.output)


def test_analyze_mode_override(runner):
    exact = json.loads(
        runner.invoke(
            main, ["analyze", scenario_path("appendix_c.json")]
        ).output
    )
    hs = json.loads(
        runner.invoke(
            main,
            ["analyze", scenario_path("appendix_c.json"),
             "--mode", "high_spin"],
        ).output
    )
    assert hs["mode"] == "high_spin"
    assert hs["purity"] == pytest.approx(exact["purity"], rel=0.3)


def test_solve_weights_two_sector(runner):
    res = runner.invoke(
        main, ["solve-weights", scenario_path("two_sector_nu.json")]
    )
    assert res.exit_code == 0
    rep = json.loads(res.output)
    nu = 0.5
    assert rep["c"][0] == pytest.approx(1 / (1 + nu**-5), abs=1e-3)
    assert rep["ratio"] == pytest.approx(1.0, abs=1e-6)


def test_sweep_w(runner):
    res = runner.invoke(
        main,
        ["sweep", scenario_path("appendix_c.json"),
         "--param", "w", "--grid", "0.3,0.5,0.7"],
    )
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "w,purity,ratio"
    assert len(lines) == 4
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    assert [row[0] for row in rows] == [0.3, 0.5, 0.7]
    purities = [row[1] for row in rows]
    assert purities[1] == min(purities)  # w = 1/2 is the valid minimum


def test_sweep_range_grid_is_numeric_csv(runner):
    res = runner.invoke(
        main,
        ["sweep", scenario_path("appendix_c.json"),
         "--param", "w", "--grid", "0:1:21"],
    )
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert len(lines) == 22
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    assert rows[1][0] == 0.05


def test_sweep_out_writes_what_stdout_shows(runner, tmp_path):
    args = ["sweep", scenario_path("appendix_c.json"), "--param", "w",
            "--grid", "0.3,0.5"]
    shown = runner.invoke(main, args)
    out = tmp_path / "sweep.csv"
    written = runner.invoke(main, args + ["--out", str(out)])
    assert shown.exit_code == written.exit_code == 0
    assert written.stdout_bytes == b""
    assert out.read_bytes() == shown.stdout_bytes
    assert shown.stdout_bytes.startswith(b"w,purity,ratio\r\n")


def test_sweep_unknown_param_rejected(runner):
    res = runner.invoke(
        main,
        ["sweep", scenario_path("appendix_c.json"),
         "--param", "zz", "--grid", "1"],
    )
    assert res.exit_code != 0


@pytest.mark.parametrize("grid", ["nan,inf", "0.5,inf", "0:inf:3",
                                  "0:1:0", "0:1:-2"])
def test_sweep_bad_grid_is_parse_error(runner, grid):
    res = runner.invoke(
        main,
        ["sweep", scenario_path("appendix_c.json"),
         "--param", "w", "--grid", grid],
    )
    assert res.exit_code == 2
    assert repr(grid) in res.stderr
    assert res.stdout == ""


# each sweep parameter on its family's bundled file: the grid, and the
# family call that each grid value x should analyze
APPENDIX_C_FILE = dict(twice_s=20, a=0.3, d=0.25, w=0.45, b=0.1 + 0.05j,
                       u=0.12 - 0.03j, v=0.07 + 0.02j)
DIAGONAL = dict(b=0.0, u=0.0, v=0.0)
SWEEP_CASES = {
    "s-scale": ("appendix_c.json", "2,4",
                lambda x: appendix_c(**{**APPENDIX_C_FILE, "twice_s": int(x)})),
    "a": ("appendix_c.json", "0.2,0.35", lambda x: appendix_c(
        20, a=x, d=0.25, w=0.75 - x, **DIAGONAL)),
    "d": ("appendix_c.json", "0.1,0.4", lambda x: appendix_c(
        20, a=0.3, d=x, w=0.7 - x, **DIAGONAL)),
    "w": ("appendix_c.json", "0.3,0.6", lambda x: appendix_c(
        20, a=(1 - x) / 2, d=(1 - x) / 2, w=x, **DIAGONAL)),
    "b": ("appendix_c.json", "0.05,-0.1",
          lambda x: appendix_c(**{**APPENDIX_C_FILE, "b": x})),
    "u": ("appendix_c.json", "0.05,0.2",
          lambda x: appendix_c(**{**APPENDIX_C_FILE, "u": x})),
    "v": ("appendix_c.json", "0.0,0.1",
          lambda x: appendix_c(**{**APPENDIX_C_FILE, "v": x})),
    "nu": ("two_sector_nu.json", "0.25,0.5",
           lambda x: two_sector(399, round(400 * x) - 1, 0.5)),
    "c_n": ("two_sector_nu.json", "0.3,0.7", lambda x: two_sector(399, 199, x)),
}
FAMILY_OF = {"appendix_c.json": "appendix_c", "two_sector_nu.json": "two_sector"}


@pytest.mark.parametrize("param", sorted(SWEEP_CASES))
def test_sweep_analyzes_the_input_family_call(runner, param):
    name, grid, call = SWEEP_CASES[param]
    res = runner.invoke(
        main, ["sweep", scenario_path(name), "--param", param, "--grid", grid])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().splitlines()
    assert lines[0] == f"{param},purity,ratio"
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    assert [row[0] for row in rows] == [float(x) for x in grid.split(",")]
    for x, purity, ratio in rows:
        holo = analyze_holography(call(x))
        assert purity == pytest.approx(holo.purity, rel=1e-12)
        assert ratio == pytest.approx(holo.ratio, rel=1e-12)


@pytest.mark.parametrize("nu", ["0.001", "1.5"])
def test_sweep_nu_without_a_valid_sector_exit_3(runner, nu):
    res = runner.invoke(main, ["sweep", scenario_path("two_sector_nu.json"),
                               "--param", "nu", "--grid", f"0.5,{nu}"])
    assert res.exit_code == 3, res.output
    assert f"nu={float(nu)} leaves no valid sector" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("name, param", [
    (name, param) for name in sorted(FAMILY_OF) for param in sorted(SWEEP_CASES)
    if SWEEP_CASES[param][0] != name])
def test_sweep_of_the_other_family_exit_3(runner, name, param):
    needed = FAMILY_OF[SWEEP_CASES[param][0]]
    res = runner.invoke(
        main, ["sweep", scenario_path(name), "--param", param, "--grid", "0.5"])
    assert res.exit_code == 3, res.output
    assert f"--param {param} needs a scenario that {needed} builds" in res.stderr
    assert f"it is {FAMILY_OF[name]}'s output" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("param", ["w", "nu"])
def test_sweep_of_a_pinwheel_no_family_rebuilds_exit_3(runner, tmp_path, param):
    data = scenario_to_dict(two_sector(9, 5))
    data["intertwiner"]["blocks"]["0,0"] = [[0.3, 0.0], [0.0, 0.2]]
    path = tmp_path / "pinwheel.json"
    path.write_text(json.dumps(data))
    assert runner.invoke(main, ["validate", str(path)]).exit_code == 0
    res = runner.invoke(
        main, ["sweep", str(path), "--param", param, "--grid", "0.5"])
    assert res.exit_code == 3, res.output
    needed = FAMILY_OF[SWEEP_CASES[param][0]]
    assert f"needs a scenario that {needed} builds" in res.stderr
    assert "no appendix_c or two_sector call rebuilds it" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("grid", ["0:1:1000000000000", "0:1:10001",
                                  ",".join(["0.5"] * 10001)])
def test_sweep_grid_over_the_cap_exit_4(runner, grid):
    start = time.perf_counter()
    res = runner.invoke(
        main,
        ["sweep", scenario_path("appendix_c.json"), "--param", "w",
         "--grid", grid],
    )
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 4, res.output
    assert str(cli.MAX_GRID_VALUES) in res.stderr
    assert res.stdout == ""


def test_sweep_grid_at_the_cap_runs(runner, monkeypatch):
    monkeypatch.setattr(cli, "MAX_GRID_VALUES", 3)
    args = ["sweep", scenario_path("appendix_c.json"), "--param", "w", "--grid"]
    for grid in ("0:1:3", "0.2,0.5,0.8"):
        res = runner.invoke(main, args + [grid])
        assert res.exit_code == 0, res.output
        assert len(res.output.strip().splitlines()) == 4
    for grid in ("0:1:4", "0.2,0.4,0.6,0.8"):
        assert runner.invoke(main, args + [grid]).exit_code == 4


def test_oracle_exact(runner):
    res = runner.invoke(main, ["oracle", scenario_path("tiny_oracle.json")])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["discrepancy"] < 1e-10


def test_oracle_mc_two_seeds(runner):
    reps = []
    for seed in (1, 2):
        res = runner.invoke(
            main,
            ["oracle", scenario_path("tiny_oracle.json"),
             "--method", "mc", "--samples", "800", "--seed", str(seed)],
        )
        assert res.exit_code == 0
        reps.append(json.loads(res.output))
    for rep in reps:
        assert rep["z_score"] < 4.0


@pytest.mark.parametrize("seed", [-1, 2**63, 2**64])
def test_oracle_seed_outside_philox_keys_exit_2(runner, seed):
    res = runner.invoke(
        main,
        ["oracle", scenario_path("tiny_oracle.json"), "--method", "mc",
         "--samples", "2", "--seed", str(seed)],
    )
    assert res.exit_code == 2, res.output
    assert "--seed" in res.stderr


def test_oracle_samples_beyond_philox_keys_exit_4(runner):
    """2**32 + 1 samples would need more than 64 GiB for their numerators
    and denominators alone: refused as a size cap, before anything is
    sampled."""
    start = time.perf_counter()
    res = runner.invoke(
        main,
        ["oracle", scenario_path("tiny_oracle.json"), "--method", "mc",
         "--samples", str(2**32 + 1)],
    )
    assert time.perf_counter() - start < 5.0
    assert res.exit_code == 4, res.output
    assert f"{2**32 + 1} samples exceed the cap of {2**32}" in res.output


def test_global_command(runner):
    res = runner.invoke(
        main,
        ["global", "--n-outer", "8", "--n-a", "3", "--jmax", "2"],
    )
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["h"] == 5
    assert rep["gap"] < 0.7


def test_global_region_too_large_exit_3(runner):
    res = runner.invoke(
        main, ["global", "--n-outer", "2", "--n-a", "3", "--jmax", "2"]
    )
    assert res.exit_code == 3


def test_report_out_file(runner, tmp_path):
    out = tmp_path / "rep.json"
    res = runner.invoke(
        main,
        ["analyze", scenario_path("tiny_oracle.json"), "--out", str(out)],
    )
    assert res.exit_code == 0
    assert json.loads(out.read_text())["purity"] > 0


def strict_json(text: str):
    """Parse JSON, rejecting NaN and the infinities."""

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_analyze_vanishing_sum_is_null(runner):
    res = runner.invoke(main, ["analyze", scenario_path("two_sector_nu.json")])
    assert res.exit_code == 0
    rep = strict_json(res.output)
    assert None in [p["log_z1"] for p in rep["pairs"]]
    assert all(p["log_z0"] is not None for p in rep["pairs"])


@pytest.mark.filterwarnings("error")
def test_oracle_single_sample_is_strict_json(runner):
    res = runner.invoke(
        main,
        ["oracle", scenario_path("tiny_oracle.json"),
         "--method", "mc", "--samples", "1"],
    )
    assert res.exit_code == 0
    rep = strict_json(res.output)
    assert rep["stderr"] is None and rep["z_score"] is None
    assert rep["samples"] == 1 and rep["oracle_purity"] > 0.0


def test_oracle_mc_once_fine_grained_finishes(runner):
    """The bundled 5-vertex file at the default 2000 samples: this ran
    for hours when each sample took an unordered einsum (about 8 s)."""
    res = runner.invoke(
        main,
        ["oracle", scenario_path("once_fine_grained.json"), "--method", "mc"],
    )
    assert res.exit_code == 0
    rep = strict_json(res.output)
    assert rep["samples"] == 2000
    assert rep["z_score"] <= 5.0


def test_cli_import_skips_scipy_optimize():
    # nor does solving an infeasible scenario load any scipy module
    code = ("import sys, rstn.cli\n"
            "from rstn.families import appendix_c\n"
            "from rstn.holography import InfeasibleError, solve_weights\n"
            "try:\n    solve_weights(appendix_c(2))\n"
            "except InfeasibleError:\n    print('infeasible')\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(rstn.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=env,
    )
    assert out.stdout.split() == ["infeasible", "[]"]


def test_cli_import_skips_families():
    # only `rstn sweep` rebuilds the benchmark families
    code = "import sys, rstn.cli; print('rstn.families' in sys.modules)"
    src = os.path.dirname(os.path.dirname(os.path.abspath(rstn.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def test_cli_import_skips_oracle():
    # only `rstn oracle` imports the reference contractions, `--seed`'s
    # range check included
    code = "import sys, rstn.cli; print('rstn.oracle' in sys.modules)"
    src = os.path.dirname(os.path.dirname(os.path.abspath(rstn.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def test_solve_weights_weightless_sector_exit_6(runner, tmp_path):
    """A scenario whose only sector weighs nothing (a zero amplitude) has
    no normalization: `solve-weights` says so like `analyze`, exit 6,
    before any weight is converted (no division warning)."""
    data = ring_dict(4, 1)
    data["amplitudes"] = {"i0": {"1": 0.0}}
    path = tmp_path / "weightless.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in ("analyze", "solve-weights"):
            res = runner.invoke(main, [command, str(path)])
            assert res.exit_code == 6, (command, res.output)
            assert "error: normalization sum vanishes" in res.stderr
