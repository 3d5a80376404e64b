import json
import math
import os
import subprocess
import sys
import time
from importlib import resources

import pytest
from click.testing import CliRunner

import rstn
from rings import ring_dict
from rstn import ising
from rstn.cli import main

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


@pytest.mark.parametrize("mutate, named", [
    (_set(["cutoffs"], {"lower": "x"}), "cutoffs.lower"),
    (_set(["sectors", 0, "spins"], [1, 1]), "sectors[0].spins"),
    (_set(["intertwiner", "blocks"], [[1.0]]), "intertwiner.blocks"),
    (_set(["intertwiner", "blocks", "0,0", 1], lambda row: row[:-1]),
     "block 0,0"),
    (_set(["amplitudes", "i0"], {"x": 1.0}), "amplitudes[i0]"),
    (_set(["graph", "vertices"], "two"), "graph.vertices"),
    (_set(["intertwiner", "vertex_product"], "no"),
     "intertwiner.vertex_product"),
    (_set(["region_C"], 5), "region_C"),
    (_set(["region_C"], "b0"), "region_C"),
    (_set(["core"], 5), "core"),
    # integers beyond the float range
    (_set(["intertwiner", "blocks", "0,0", 0], lambda row: [10**400] + row[1:]),
     "block 0,0[0][0]"),
    (_set(["intertwiner", "blocks", "0,0", 1], lambda row: [[0, 10**400]] + row[1:]),
     "block 0,0[1][0]"),
    (_set(["amplitudes", "i0", "1"], 10**400), "amplitudes[i0][1]"),
])
def test_malformed_scenario_is_parse_error(runner, tmp_path, mutate, named):
    data = json.loads((SCENARIOS / "tiny_oracle.json").read_text())
    mutate(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    res = runner.invoke(main, ["validate", str(bad)])
    assert res.exit_code == 2, res.output
    assert named in res.output


def _non_finite_at(where: str, value: float):
    eye = [[0.25 if i == j else 0.0 for j in range(4)] for i in range(4)]
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


def test_size_cap_exit_4(runner, tmp_path):
    big = tmp_path / "ring.json"  # 4^2 pairs x 2^22 configurations
    big.write_text(json.dumps(ring_dict(22, 4)))
    for command in ("analyze", "solve-weights"):
        start = time.perf_counter()
        res = runner.invoke(main, [command, str(big)])
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 4, res.output
        assert "67108864" in res.output and "16777216" in res.output


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


def test_infeasible_exit_5(runner):
    res = runner.invoke(
        main, ["solve-weights", scenario_path("tiny_oracle.json")]
    )
    assert res.exit_code == 5


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
    code = "import sys, rstn.cli; print('scipy.optimize' in sys.modules)"
    src = os.path.dirname(os.path.dirname(os.path.abspath(rstn.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=env,
    )
    assert out.stdout.strip() == "False"
