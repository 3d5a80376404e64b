import dataclasses
import json
import math

import numpy as np
import pytest

from rstn.families import tiny_generic, appendix_c
from rstn.ising import IsingEngine
from rstn.state import (
    ParseError,
    Scenario,
    Sector,
    ValidationError,
    _block_in,
    link_state_purity,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


def test_link_state_purity():
    assert link_state_purity(0) == 1.0
    assert link_state_purity(1) == 0.5
    assert link_state_purity(3) == 0.25


def test_vertex_tuple_color_order():
    sc = appendix_c(2, 0.3, 0.25, 0.45)
    assert sc.vertex_tuple(0, 0) == (2, 2, 2, 6)
    assert sc.vertex_tuple(0, 1) == (2, 2, 2, 4)
    assert sc.vertex_tuple(1, 1) == (2, 2, 2, 6)


def test_block_adjoint_fallback():
    sc = appendix_c(2, 0.3, 0.25, 0.45, u=0.1, v=0.05)
    assert np.allclose(sc.block(1, 0), sc.block(0, 1).conj().T)


def test_zero_block_fallback():
    sc = appendix_c(2, 0.3, 0.25, 0.45)
    assert np.count_nonzero(sc.block(0, 1)) == 0


def test_c_norms_sum_to_one():
    sc = appendix_c(2, 0.3, 0.25, 0.45)
    assert sc.c_norm(0) + sc.c_norm(1) == pytest.approx(1.0)


def test_dim_H_C_counts_distinct_spins():
    sc = appendix_c(2, 0.3, 0.25, 0.45, region="x")
    # C link carries twice-spins 4 and 6 -> 5 + 7 states
    assert sc.dim_H_C() == 12
    sc2 = appendix_c(2, 0.3, 0.25, 0.45, region="s_link")
    # C link carries twice-spin 2 in both sectors
    assert sc2.dim_H_C() == 3


def test_trace_must_be_one():
    sc = tiny_generic()
    with pytest.raises(ValidationError, match="trace"):
        Scenario(
            graph=sc.graph,
            sectors=sc.sectors,
            amplitudes=sc.amplitudes,
            blocks={(0, 0): 2 * sc.block(0, 0)},
            region_C=sc.region_C,
        )


def test_psd_enforced():
    sc = tiny_generic()
    rho = sc.block(0, 0).copy()
    rho[0, 0] -= 0.6  # trace fixed below, but an eigenvalue dips negative
    rho[1, 1] += 0.6
    with pytest.raises(ValidationError, match="positive"):
        Scenario(
            graph=sc.graph,
            sectors=sc.sectors,
            amplitudes=sc.amplitudes,
            blocks={(0, 0): rho},
            region_C=sc.region_C,
        )


def test_identical_sectors_rejected():
    sc = tiny_generic()
    with pytest.raises(ValidationError, match="identical"):
        Scenario(
            graph=sc.graph,
            sectors=[sc.sectors[0], Sector(dict(sc.sectors[0].spins))],
            amplitudes={},
            blocks={(0, 0): sc.block(0, 0), (1, 1): 0 * sc.block(0, 0)},
            region_C=sc.region_C,
        )


def test_spin_coverage_enforced():
    sc = tiny_generic()
    spins = dict(sc.sectors[0].spins)
    spins.pop("b0")
    with pytest.raises(ValidationError, match="cover"):
        Scenario(
            graph=sc.graph,
            sectors=[Sector(spins)],
            amplitudes={},
            blocks={(0, 0): sc.block(0, 0)},
            region_C=sc.region_C,
        )


def test_zero_dimension_sector_is_admissible():
    # a sector whose vertex tuple has no invariant state carries
    # weight zero but must not be rejected
    sc = tiny_generic()
    bad_spins = dict(sc.sectors[0].spins)
    bad_spins["b0"] = 8  # (8,1,1) at vertex 0 breaks the triangle
    two = Scenario(
        graph=sc.graph,
        sectors=[sc.sectors[0], Sector(bad_spins, "dead")],
        amplitudes=sc.amplitudes,
        blocks={(0, 0): sc.block(0, 0)},
        region_C=sc.region_C,
    )
    assert two.block_dim(1) == 0
    assert two.c_norm(1) == 0.0


def test_cutoffs_enforced():
    sc = tiny_generic()
    with pytest.raises(ValidationError, match="cutoffs"):
        Scenario(
            graph=sc.graph,
            sectors=sc.sectors,
            amplitudes=sc.amplitudes,
            blocks=sc.blocks,
            region_C=sc.region_C,
            cutoffs={"lower": 2, "upper": 4},
        )


def test_json_round_trip(tmp_path):
    sc = appendix_c(4, 0.3, 0.25, 0.45, 0.1 + 0.05j, 0.12 - 0.03j, 0.07j)
    data = scenario_to_dict(sc)
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(data))
    rt = load_scenario(str(path))
    assert rt.sectors[0].spins == sc.sectors[0].spins
    assert np.allclose(rt.block(0, 1), sc.block(0, 1))
    assert rt.region_C == sc.region_C
    # second round trip is bit-identical
    assert scenario_to_dict(rt) == data


def test_unknown_top_key_rejected():
    sc = scenario_to_dict(tiny_generic())
    sc["extra"] = 1
    with pytest.raises(ParseError, match="unknown"):
        scenario_from_dict(sc)


def test_fractional_spin_rejected():
    data = scenario_to_dict(tiny_generic())
    data["sectors"][0]["spins"]["b0"] = 0.5
    with pytest.raises(ParseError, match="integer"):
        scenario_from_dict(data)


def test_malformed_json_is_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_scenario(str(path))


def test_bad_complex_entry():
    data = scenario_to_dict(tiny_generic())
    data["amplitudes"]["i0"]["1"] = [1.0, 2.0, 3.0]
    with pytest.raises(ParseError, match="re, im"):
        scenario_from_dict(data)


def _per_cell(mat):
    return np.array([[complex(*v) if isinstance(v, list) else complex(v)
                      for v in row] for row in mat], dtype=complex)


def test_block_parse_is_bit_identical_to_per_cell_parse():
    rng = np.random.default_rng(3)
    numbers = [0, 1, -2, True, 0.5, -0.0, 1e-300, -7.25, 2**60 + 1]

    def cell():
        return numbers[rng.integers(len(numbers))]

    for shape in ((1, 1), (3, 4), (6, 2)):
        plain = [[cell() for _ in range(shape[1])] for _ in range(shape[0])]
        pairs = [[[cell(), cell()] for _ in row] for row in plain]
        mixed = [[v if (i + j) % 2 else [v, cell()] for j, v in enumerate(row)]
                 for i, row in enumerate(plain)]
        for mat in (plain, pairs, mixed):
            got, want = _block_in(mat, "0,0"), _per_cell(mat)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", ["1.5", None, [1.0], [1.0, 2.0, 3.0],
                                 [[1.0, 2.0]], ["1", 2.0]])
@pytest.mark.parametrize("kind", ["numbers", "pairs"])
def test_block_parse_error_names_the_cell(bad, kind):
    mat = [[0.25, 0.0], [0.0, 0.75]]
    if kind == "pairs":
        mat = [[[v, 0.0] for v in row] for row in mat]
    mat[1][0] = bad
    with pytest.raises(ParseError, match=r"block 0,0\[1\]\[0\]: expected"):
        _block_in(mat, "0,0")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_block_is_named_before_the_eigenvalues(value):
    sc = tiny_generic()
    blk = sc.block(0, 0).copy()
    blk[1, 1] = value
    with pytest.raises(ValidationError, match=r"block \(0,0\) has a non-finite"):
        dataclasses.replace(sc, blocks={(0, 0): blk})


def test_scenario_is_frozen_with_read_only_blocks():
    sc = tiny_generic()
    with pytest.raises(dataclasses.FrozenInstanceError):
        sc.mode = "high_spin"
    with pytest.raises(dataclasses.FrozenInstanceError):
        sc.sectors[0].name = "renamed"
    with pytest.raises(ValueError, match="read-only"):
        sc.block(0, 0)[0, 0] = 0.5


def test_scenario_containers_are_read_only():
    # a write into a container would skip validation and leave the
    # shared engine's caches stale
    sc = appendix_c(2, 0.3, 0.25, 0.45, u=0.1, v=0.05)
    purity = IsingEngine.of(sc).purity()
    with pytest.raises(TypeError):
        sc.blocks[(1, 1)] = sc.block(1, 1) * 0.5
    with pytest.raises(TypeError):
        sc.amplitudes["i0"] = {2: 0.5}
    with pytest.raises(TypeError):
        sc.sectors[0] = sc.sectors[1]
    with pytest.raises(TypeError):
        sc.sectors[0].spins["b3"] = 0
    with pytest.raises(TypeError):
        sc.region_C[0] = "b3"
    assert IsingEngine.of(sc).purity() == purity == IsingEngine(sc).purity()


def test_core_and_cutoffs_are_read_only():
    sc = dataclasses.replace(tiny_generic(), cutoffs={"lower": 0, "upper": 10},
                             core={"purity": 0.5})
    with pytest.raises(TypeError):
        sc.cutoffs["upper"] = 0
    with pytest.raises(TypeError):
        sc.core["purity"] = 1.0
    sc.validate()
    data = scenario_to_dict(sc)
    assert type(data["cutoffs"]) is dict and type(data["core"]) is dict
    again = scenario_from_dict(json.loads(json.dumps(data)))
    assert scenario_to_dict(again) == data


def test_scenario_copies_its_containers():
    sc = tiny_generic()
    blocks, spins = dict(sc.blocks), dict(sc.sectors[0].spins)
    again = dataclasses.replace(
        sc, blocks=blocks, sectors=[Sector(spins, "s")], region_C=["b0"])
    blocks[(0, 0)] = np.eye(1)
    spins["b0"] += 2
    assert again.blocks[(0, 0)] is sc.blocks[(0, 0)]
    assert again.sectors[0].spins == sc.sectors[0].spins
    assert again.region_C == ("b0",)


def test_blocks_are_flagged_in_place():
    sc = tiny_generic()
    blk = np.array(sc.block(0, 0))  # a writable copy
    again = dataclasses.replace(sc, blocks={(0, 0): blk})
    assert again.blocks[(0, 0)] is blk and not blk.flags.writeable


def test_amplitude_for_spin_no_sector_carries():
    data = scenario_to_dict(tiny_generic())
    data["amplitudes"]["i0"]["7"] = 0.01
    with pytest.raises(ValidationError, match=r"amplitudes\[i0\].* 7 "):
        scenario_from_dict(data)
