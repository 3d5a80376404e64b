import dataclasses
import hashlib
import json
import math
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from rings import dense_ring_dict
from rstn.families import appendix_c, once_fine_grained, tiny_generic, two_sector
from rstn import state
from rstn.ising import IsingEngine
from rstn.state import (
    PSD_TOL,
    ParseError,
    Scenario,
    Sector,
    ValidationError,
    _block_in,
    content_hash,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

SCENARIOS = resources.files("rstn") / "scenarios"


def test_vertex_tuple_color_order():
    sc = appendix_c(2, 0.3, 0.25, 0.45)
    assert sc.vertex_tuple(0, 0) == (2, 2, 2, 6)
    assert sc.vertex_tuple(0, 1) == (2, 2, 2, 4)
    assert sc.vertex_tuple(1, 1) == (2, 2, 2, 6)


def test_vertex_dims_computed_once_per_sector(monkeypatch):
    from rstn import state

    sc = appendix_c(2, 0.3, 0.25, 0.45)
    calls = []
    dimension = state.intertwiner_dimension
    monkeypatch.setattr(state, "intertwiner_dimension",
                        lambda tup: calls.append(tup) or dimension(tup))
    fresh = dataclasses.replace(sc)  # validation reads the dims once
    assert len(calls) == 2 * fresh.graph.n_vertices
    IsingEngine(fresh)
    IsingEngine(fresh)
    dims = fresh.vertex_dims(1)
    assert len(calls) == 2 * fresh.graph.n_vertices
    assert isinstance(dims, tuple) and dims is fresh.vertex_dims(1)
    assert dims == tuple(dimension(fresh.vertex_tuple(1, x))
                         for x in range(fresh.graph.n_vertices))


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


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("scale, accepted", [(1 - 1e-3, True), (1 + 1e-3, False)])
def test_psd_check_holds_at_its_tolerance(n, scale, accepted):
    # the least eigenvalue moved to -PSD_TOL * scale, the trace kept at 1;
    # D = 16, 64 and 256 factor in 1, 4 and 16 diagonal blocks
    sc = scenario_from_dict(dense_ring_dict(n, np.random.default_rng(n)))
    w, v = np.linalg.eigh(sc.block(0, 0))
    w[-1] += w[0] + PSD_TOL * scale
    w[0] = -PSD_TOL * scale
    rho = (v * w) @ v.conj().T
    rho = (rho + rho.conj().T) / 2
    assert np.linalg.eigvalsh(rho).min() == pytest.approx(-PSD_TOL * scale, rel=1e-4)
    if accepted:
        dataclasses.replace(sc, blocks={(0, 0): rho})
        return
    with pytest.raises(ValidationError, match=r"positive semidefinite \(min eigenvalue -1\.001e-10\)"):
        dataclasses.replace(sc, blocks={(0, 0): rho})


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


def test_region_c_must_be_outer():
    # region C is a scenario field, so its faults are ValidationErrors
    sc = tiny_generic()
    data = scenario_to_dict(sc)
    data["graph"]["boundary_links"][0]["side"] = "inner"  # b0
    with pytest.raises(ValidationError, match="'b0' is not an outer"):
        scenario_from_dict({**data, "region_C": ["b0"]})
    for region, match in ((("i0",), "'i0' is not an outer"), (("b1", "b1"), "repeated")):
        with pytest.raises(ValidationError, match=match):
            dataclasses.replace(sc, region_C=region)
    assert dataclasses.replace(sc, region_C=("b1", "b3")).region_C == ("b1", "b3")


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


_FAMILIES = {"appendix_c(2)": lambda: appendix_c(2), "tiny_generic()": tiny_generic,
             "once_fine_grained(1)": lambda: once_fine_grained(1),
             "two_sector(9, 5, 0.4)": lambda: two_sector(9, 5, 0.4)}


@pytest.mark.parametrize("name", ["appendix_c.json", "once_fine_grained.json",
                                  "tiny_oracle.json", "two_sector_nu.json", *_FAMILIES])
def test_canonical_form_round_trips(name):
    """Each bundled file and family reads back exactly as written."""
    data = (scenario_to_dict(_FAMILIES[name]()) if name in _FAMILIES
            else json.loads((SCENARIOS / name).read_text()))
    assert scenario_to_dict(scenario_from_dict(data)) == data


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
    numbers = [0, 1, -2, 0.5, -0.0, 1e-300, -7.25, 2**60 + 1, 1.0, 0.0]

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
            # a JSON boolean is no number, though numpy reads it as one
            i, j = (int(rng.integers(n)) for n in shape)
            for flag in (True, False):
                bad = [[[*v] if isinstance(v, list) else v for v in row] for row in mat]
                if isinstance(bad[i][j], list):
                    bad[i][j][int(rng.integers(2))] = flag
                else:
                    bad[i][j] = flag
                with pytest.raises(ParseError, match=rf"block 0,0\[{i}\]\[{j}\]"):
                    _block_in(bad, "0,0")


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


def test_cutoffs_are_read_only():
    sc = dataclasses.replace(tiny_generic(), cutoffs={"lower": 0, "upper": 10})
    with pytest.raises(TypeError):
        sc.cutoffs["upper"] = 0
    sc.validate()
    data = scenario_to_dict(sc)
    assert type(data["cutoffs"]) is dict
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


@pytest.mark.parametrize("value", [complex(math.nan, 0.0), complex(math.inf, 0.0),
                                   complex(0.0, math.inf)])
def test_non_finite_amplitude_is_refused(value):
    # a library-built scenario: the JSON path refuses these as it parses
    with pytest.raises(ValidationError,
                       match=r"amplitudes\[i0\]: .* twice-spin 1 is not finite"):
        dataclasses.replace(tiny_generic(), amplitudes={"i0": {1: value}})


def _with_block(sc: Scenario, key, blk) -> Scenario:
    return dataclasses.replace(sc, blocks={**sc.blocks, key: np.asarray(blk, complex)})


@pytest.mark.parametrize("blk, message", [
    (np.zeros((2, 2)), r"block \(1,0\) has shape \(2, 2\), expected \(1, 2\)"),
    (np.full((1, 2), math.nan), r"block \(1,0\) has a non-finite entry"),
    (np.zeros((1, 3)), r"block \(1,0\) has shape \(1, 3\), expected \(1, 2\)"),
])
def test_bad_block_is_named_before_the_adjoint_check(blk, message):
    # beside a valid (0,1), a malformed (1,0) is reported as itself, not
    # as a pair that is not adjoint (nor as numpy's broadcast error)
    sc = appendix_c(2, 0.3, 0.25, 0.45, u=0.1, v=0.05)
    assert (0, 1) in sc.blocks and (1, 0) not in sc.blocks
    with pytest.raises(ValidationError, match=message):
        _with_block(sc, (1, 0), blk)


def test_non_hermitian_diagonal_block_is_refused():
    sc = tiny_generic()
    rho = sc.block(0, 0).copy()
    rho[0, 1] += 1e-3j  # the trace stays 1
    rho[1, 0] += 1e-3j
    with pytest.raises(ValidationError,
                       match=r"blocks \(0,0\) and \(0,0\) are not adjoints"):
        _with_block(sc, (0, 0), rho)


@pytest.mark.parametrize("scale, accepted", [(0.5, True), (2.0, False)])
def test_block_pair_mismatch_beyond_the_tolerance_is_refused(scale, accepted):
    # np.allclose's rule: |(1,0) - (0,1)^H| <= PSD_TOL + 1e-5 |(0,1)^H|
    sc = appendix_c(2, 0.3, 0.25, 0.45, u=0.1, v=0.05)
    back = sc.block(0, 1).conj().T.copy()
    back[0, 1] += scale * (PSD_TOL + 1e-5 * abs(back[0, 1]))
    if accepted:
        _with_block(sc, (1, 0), back)
        return
    with pytest.raises(ValidationError,
                       match=r"blocks \(0,1\) and \(1,0\) are not adjoints"):
        _with_block(sc, (1, 0), back)


def test_zero_dimension_sector_accepts_its_empty_blocks():
    sc = tiny_generic()
    dead = dict(sc.sectors[0].spins, b0=8)  # no invariant state at vertex 0
    d = sc.block_dim(0)
    two = Scenario(
        graph=sc.graph,
        sectors=[sc.sectors[0], Sector(dead, "dead")],
        amplitudes=sc.amplitudes,
        blocks={(0, 0): sc.block(0, 0), (1, 1): np.zeros((0, 0), complex),
                (0, 1): np.zeros((d, 0), complex), (1, 0): np.zeros((0, d), complex)},
        region_C=sc.region_C,
    )
    assert two.block_dim(1) == 0 and two.block(1, 0).shape == (0, d)


def test_block_validation_memory_peak():
    # the assembled sum prod D_x matrix once, and row blocks of the
    # pairwise adjoint check beside it
    sc = scenario_from_dict(dense_ring_dict(8, np.random.default_rng(3)))
    full = 16 * sum(sc.block_dim(m) for m in range(len(sc.sectors))) ** 2
    assert full == 16 * 256 ** 2
    tracemalloc.start()
    try:
        sc._validate_blocks()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * full


def _peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_peaks_at_the_parse(tmp_path):
    # no parsed tree: the text, one batch of at most 2^14 [re, im] row cells
    # (under 200 B each as Python objects) and a few complex copies of the
    # block; a parse of the whole text takes about 145 B per cell beside it
    path = tmp_path / "dense8.json"
    path.write_text(json.dumps(dense_ring_dict(8, np.random.default_rng(3))),
                    encoding="utf-8")
    size = path.stat().st_size
    assert _peak(lambda: load_scenario(str(path))) <= (
        size + (1 << 14) * 200 + 3 * 16 * 256 ** 2)


def _real_ring8(tmp_path, edit=None):
    """The dense 8-vertex ring's real part, every cell written [re, 0.0]
    (1.5 MB, so its rows are read in batches), after `edit` of its cells."""
    data = dense_ring_dict(8, np.random.default_rng(3))
    cells = [[[re, 0.0] for re, _ in row] for row in data["intertwiner"]["blocks"]["0,0"]]
    (edit or (lambda c: None))(cells)
    data["intertwiner"]["blocks"]["0,0"] = cells
    path = tmp_path / "real8.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path), np.array([[re for re, _ in row] for row in cells], dtype=complex)


def test_real_block_loads_without_the_per_cell_visit(tmp_path, monkeypatch):
    # numpy reads 0.0 as 0, so every imaginary part was visited in Python;
    # a batch whose text holds no t or f holds no boolean
    path, want = _real_ring8(tmp_path)
    calls = []
    holds_bool = state._holds_bool
    monkeypatch.setattr(state, "_holds_bool", lambda *a: calls.append(1) or holds_bool(*a))
    got = load_scenario(path).block(0, 0)
    assert got.tobytes() == want.tobytes() and calls == []


@pytest.mark.parametrize("i, j, k, flag", [(0, 0, 0, True), (255, 255, 0, False),
                                           (100, 37, 1, True)])
def test_boolean_in_a_batched_block_is_refused(tmp_path, i, j, k, flag):
    def edit(cells):
        cells[i][j][k] = flag

    path, _ = _real_ring8(tmp_path, edit)
    with pytest.raises(ParseError, match=rf"block 0,0\[{i}\]\[{j}\]: expected number"):
        load_scenario(path)


def test_content_hash_reads_in_chunks(tmp_path):
    path = tmp_path / "dense8.json"
    path.write_bytes(json.dumps(dense_ring_dict(8, np.random.default_rng(3))).encode())
    assert content_hash(str(path)) == hashlib.sha256(path.read_bytes()).hexdigest()
    assert _peak(lambda: content_hash(str(path))) <= path.stat().st_size // 16


@pytest.mark.parametrize("text, named", [
    # the route to a block is walked in a file past the whole-read size
    ('{"intertwiner": {"blocks": {"0,0": [[1]], "0,0": ROWS}}}',
     "intertwiner.blocks: key '0,0' is repeated"),
    ('{"intertwiner": {"blocks": {"0,0": [[{"a": 1, "a": 2}], ROWS]}}}',
     "intertwiner.blocks.0,0[0][0]: key 'a' is repeated"),
    ('{"graph": {"vertices": 1, "vertices": 1}, "intertwiner": {"blocks": {"0,0": ROWS}}}',
     "graph: key 'vertices' is repeated"),
    ('{"mode": "exact", "mode": "exact", "intertwiner": {"blocks": {"0,0": ROWS}}}',
     "key 'mode' is repeated"),
    # and in a short file, read whole
    ('{"amplitudes": {"i0": {"1": 1, "1": 2}}}', "amplitudes.i0: key '1' is repeated"),
    ('{"sectors": [{"spins": {}}, {"spins": {"b0": 1, "b0": 1}}]}',
     "sectors[1].spins: key 'b0' is repeated"),
])
def test_repeated_key_names_its_path(tmp_path, text, named):
    path = tmp_path / "bad.json"
    path.write_text(text.replace("ROWS", "[" + ", ".join(["[0, 0]"] * 20000) + "]"))
    with pytest.raises(ParseError) as err:
        load_scenario(str(path))
    assert str(err.value).startswith(named)
