import copy
import dataclasses
import functools
import json
import math
import operator
import re
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (block_diagonal, cut_products, json_load_reference, necessary_reference,
                     pure_bulk, region_difference_reference, sequential_ground_scan)
from rings import dense_ring_dict, mixed_ring_dict
from rstn.families import _template, random_scenario
from rstn.holography import fixed_spin_criteria
from rstn.ising import TIE_TOL, IsingEngine, NumericalError, _GroundScan
from rstn.observables import area_variance
from rstn.oracle import exact_purity
from rstn.state import (ParseError, SizeCapError, ValidationError, load_scenario,
                        scenario_from_dict, scenario_to_dict)

SETTINGS = settings(max_examples=25, deadline=None)

scenario_params = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "template": st.sampled_from(["one", "two", "chain"]),
        "n_sectors": st.integers(1, 3),
        "max_twice": st.integers(1, 8),
        "pinch": st.booleans(),
    }
)


def build(params):
    rng = np.random.default_rng(params["seed"])
    sc = random_scenario(
        rng,
        template=params["template"],
        n_sectors=params["n_sectors"],
        max_twice=params["max_twice"],
    )
    return block_diagonal(sc) if params["pinch"] else sc


@SETTINGS
@given(scenario_params)
def test_purity_within_bounds(params):
    sc = build(params)
    purity = IsingEngine(sc).purity()
    assert 1.0 / sc.dim_H_C() - 1e-9 <= purity <= 1.0 + 1e-9


@SETTINGS
@given(scenario_params)
def test_distribution_symmetric_normalized(params):
    sc = build(params)
    p = IsingEngine(sc).distribution()
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.allclose(p, p.T, atol=1e-12)
    assert np.all(p >= -1e-15)


@SETTINGS
@given(scenario_params)
def test_energy_difference_supported_on_C(params):
    sc = build(params)
    nv = sc.graph.n_vertices
    link = IsingEngine(sc)._link_energies(np.arange(1 << nv))[0]
    for config in range(1 << nv):
        h0, h1 = link[:, config]
        assert h1 - h0 == pytest.approx(
            region_difference_reference(sc, 0, config), abs=1e-12)


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.sampled_from(["one", "two", "chain"]),
       st.integers(1, 3), st.integers(8, 12))
def test_necessary_condition_equals_integer_products(seed, template, n_sectors, max_twice):
    sc = random_scenario(np.random.default_rng(seed), template, n_sectors, max_twice)
    for sector in range(n_sectors):
        assert (fixed_spin_criteria(sc, sector).necessary_failing
                == necessary_reference(sc, sector))


link_params = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "template": st.sampled_from(["one", "two", "chain", "ring4", "ring6", "ring8"]),
    "n_sectors": st.integers(1, 3),
    "max_twice": st.integers(1, 12),
})


def build_links(params):
    """A `random_scenario` on a template, or a `mixed_ring_dict` of 4, 6 or
    8 vertices with distinct random ring twice-spins per sector."""
    rng = np.random.default_rng(params["seed"])
    if not params["template"].startswith("ring"):
        return random_scenario(rng, params["template"], params["n_sectors"],
                               params["max_twice"])
    n, rows = int(params["template"][4:]), set()
    while len(rows) < params["n_sectors"]:
        rows.add(tuple(rng.integers(0, params["max_twice"] + 1, n).tolist()))
    return scenario_from_dict(mixed_ring_dict(sorted(rows)))


@SETTINGS
@given(link_params)
def test_equal_link_products_give_bit_equal_energies(params):
    # every sector, variant and configuration whose cut links have the same
    # product of dimensions (`cut_products`, in Python ints) has one float
    sc = build_links(params)
    nv = sc.graph.n_vertices
    energies = IsingEngine(sc)._link_energies(np.arange(1 << nv)).tolist()
    by_product: dict[int, set] = {}
    for s, rows in enumerate(energies):
        for v, row in enumerate(rows):
            for config, energy in enumerate(row):
                key = math.prod(cut_products(sc, s, config, bool(v)))
                by_product.setdefault(key, set()).add(energy)
    assert all(len(values) == 1 for values in by_product.values())


@SETTINGS
@given(link_params, st.integers(0, 2**32 - 1))
def test_link_exponents_of_any_split_add_to_the_whole(params, split_seed):
    # the exponents of two halves of the paying links, summed in integers and
    # then converted, are the whole's energies to the bit
    sc = build_links(params)
    engine = IsingEngine(sc)
    plan, configs = engine._plan, np.arange(1 << sc.graph.n_vertices)
    paid = sc.graph.cuts(configs, plan.pay)[:, None] ^ plan.pay_flips
    half = np.random.default_rng(split_seed).random(len(plan.pay)) < 0.5
    parts = [np.einsum("psl,lvk->psvk", plan.pay_exps[..., side].astype(np.int64), paid[side])
             for side in (half, ~half)]
    whole = engine._link_exponents(configs)
    assert np.array_equal(parts[0] + parts[1], whole)
    assert plan.log_of(parts[0] + parts[1]).tobytes() == engine._link_energies(configs).tobytes()


@SETTINGS
@given(link_params)
def test_necessary_condition_on_links_equals_integer_products(params):
    # no band: ties, near ties and clear cases alike, on templates and rings
    sc = build_links(params)
    for sector in range(len(sc.sectors)):
        if 0 not in sc.vertex_dims(sector):
            assert (fixed_spin_criteria(sc, sector).necessary_failing
                    == necessary_reference(sc, sector))


@SETTINGS
@given(scenario_params)
def test_area_variance_nonnegative(params):
    sc = build(params)
    assert area_variance(sc) >= 0.0


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.sampled_from(["one", "two", "chain"]),
       st.integers(2, 3), st.integers(1, 2))
def test_pure_coherent_draws_are_complement_symmetric(seed, template, n_sectors, max_twice):
    # every leg is outer and the bulk state pure across the sectors, so the
    # purities of C and of its complement are equal; sectors differing on an
    # internal link meet it swapped at both ends
    rng = np.random.default_rng(seed)
    sc = pure_bulk(random_scenario(rng, template, n_sectors=n_sectors,
                                   max_twice=max_twice), rng)
    outer = _template(template).outer_boundary_ids()
    assert len(outer) == len(sc.graph.boundary)  # no inner legs
    rest = dataclasses.replace(sc, region_C=[b for b in outer if b not in sc.region_C])
    purity = [IsingEngine(x).purity() for x in (sc, rest)]
    assert purity[0] == pytest.approx(purity[1], rel=1e-12)
    for x, value in zip((sc, rest), purity):
        assert exact_purity(x)[0] == pytest.approx(value, rel=1e-10)


@SETTINGS
@given(scenario_params)
def test_run_to_run_determinism(params):
    sc = build(params)
    assert IsingEngine(sc).log_purity() == IsingEngine(sc).log_purity()


# energies from a few levels, with exact ties, ties inside the
# tolerance, just outside it, and values below -1 where the relative
# tolerance widens instead of narrowing the tie band
_level = st.sampled_from([-3.5, -1.0, 0.0, 1e-13, 0.7, 2.0, 2.0 + 3e-12])
_jitter = st.sampled_from([0.0, 0.0, 1e-13, -1e-13, 5e-12, -2e-12])
_energies = st.lists(
    st.tuples(_level, _jitter).map(lambda lj: lj[0] * (1 + lj[1]) + lj[1]),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(_energies, st.lists(st.integers(0, 60), max_size=4))
def test_ground_scan_matches_sequential_loop(energies, cuts):
    # rows of unequal length, +inf (an excluded configuration) after each
    rows = [energies, energies[::2], energies[len(energies) // 3:][::-1], []]
    e = np.full((len(rows), len(energies)), math.inf)
    for r, row in enumerate(rows):
        e[r, :len(row)] = row
    scan = _GroundScan(len(rows))
    configs = np.arange(len(energies)) * 3  # configuration ids in order
    bounds = [0] + sorted(min(c, len(energies)) for c in cuts) + [len(energies)]
    for lo, hi in zip(bounds, bounds[1:]):  # the rows with energies in the chunk
        live = np.flatnonzero((e[:, lo:hi] != math.inf).any(axis=1))
        scan.feed(e[live, lo:hi], configs[lo:hi], live)
    for r, row in enumerate(rows):
        best, second, index, degen = sequential_ground_scan(row, TIE_TOL)
        assert (scan.best[r], scan.second[r], scan.degen[r]) == (best, second, degen)
        assert scan.config[r] == (int(configs[index]) if row else 0)


# -- the canonical form, under mutations of the bundled files ------------------

BUNDLED = {f.name: json.loads(f.read_text())
           for f in sorted(resources.files("rstn").joinpath("scenarios").iterdir(),
                           key=lambda f: f.name) if f.name.endswith(".json")}
# a value of each JSON type, for a node of another type
_OTHER = [None, True, False, 0, -1, 2, 0.5, -1e-3, "x", "exact", [], [0.5, 0], {}]


def _nodes(node, path=()):
    """The path of every node under `node`, in document order."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _nodes(child, path + (key,))


@st.composite
def mutants(draw):
    """A bundled file with one to three mutations, as the input fuzzer of
    the ROADMAP's baseline made them: a node replaced by a value of
    another JSON type, a key or list entry deleted, a list entry
    duplicated, or a number nudged."""
    name = draw(st.sampled_from(sorted(BUNDLED)))
    data = copy.deepcopy(BUNDLED[name])
    for _ in range(draw(st.integers(1, 3))):
        *head, last = draw(st.sampled_from(list(_nodes(data))[1:]))
        parent = functools.reduce(operator.getitem, head, data)
        value, kind = parent[last], draw(st.sampled_from(["other", "del", "dup", "nudge"]))
        if kind == "other":
            other = [v for v in _OTHER if type(v) is not type(value)]
            parent[last] = copy.deepcopy(draw(st.sampled_from(other)))
        elif kind == "del":
            del parent[last]
        elif kind == "dup" and isinstance(parent, list):
            parent.insert(last, copy.deepcopy(value))
        elif kind == "nudge" and type(value) in (int, float):
            step = draw(st.sampled_from([-1, 1, 1e-13, -1e-3]))
            parent[last] = value + step if type(value) is int else value * (1 + step)
    return name, data


def canonical(data: dict) -> dict:
    """`data` as `scenario_to_dict` writes it back, by README's rule: the
    defaults filled in, and a block cell or amplitude [re, 0] written as
    re (an integer written as a float, which == leaves equal)."""
    out = copy.deepcopy(data)
    out.setdefault("mode", "exact")
    out.setdefault("amplitudes", {})
    if "cutoffs" in out and out["cutoffs"] is None:
        del out["cutoffs"]
    graph = out["graph"]
    for kind in ("internal_links", "boundary_links"):
        graph.setdefault(kind, [])
    for link in graph["boundary_links"]:
        link.setdefault("side", "outer")
    for s, sector in enumerate(out["sectors"]):
        sector.setdefault("name", str(s))
    blocks = out["intertwiner"].setdefault("blocks", {})
    real = lambda v: v[0] if isinstance(v, list) and v[1] == 0 else v  # noqa: E731
    for table in out["amplitudes"].values():
        table.update({tj: real(v) for tj, v in table.items()})
    for key, mat in blocks.items():
        blocks[key] = [[real(v) for v in row] for row in mat]
    return out


@settings(max_examples=200, deadline=None)
@given(mutants())
def test_mutated_bundled_files_fail_as_documented_or_read_back(mutant):
    # every mutant is refused with a documented exception or reads back in
    # canonical form; in exact mode, within the oracle's cap, the engine
    # equals the exact contraction
    name, data = mutant
    try:
        sc = scenario_from_dict(data)
    except (ParseError, ValidationError, SizeCapError):
        return
    assert scenario_to_dict(sc) == canonical(data)
    if sc.mode == "exact":
        try:
            got, expect = IsingEngine(sc).purity(), exact_purity(sc)[0]
        except (NumericalError, SizeCapError):
            return
        assert got == pytest.approx(expect, rel=1e-10, abs=0.0)


# -- the file reader, against json.loads of the whole text ---------------------

TEXTS = {f.name: f.read_text(encoding="utf-8")
         for f in resources.files("rstn").joinpath("scenarios").iterdir()
         if f.name.endswith(".json")}
# files longer than the reader's whole-read size: their route to the blocks is
# walked and their blocks read row by row (D = 64, and 128 in pretty print)
TEXTS["dense_ring_dict(6)"] = json.dumps(dense_ring_dict(6, np.random.default_rng(2)))
TEXTS["dense_ring_dict(7), indented"] = json.dumps(
    dense_ring_dict(7, np.random.default_rng(4)), indent=1)
PAD = " " * (1 << 16)  # trailing space past the whole-read size: every file walked
TEXTS.update({f"{name}, padded": TEXTS[name] + PAD
              for name in ("appendix_c.json", "tiny_oracle.json")})


def load_outcome(load, path) -> tuple:
    """What a loader makes of a file: the scenario's canonical dict and the
    shape and bytes of each block, or the class and message of its error."""
    try:
        sc = load(str(path))
    except Exception as exc:  # the refusal is the outcome compared
        return type(exc), str(exc)
    return (repr(scenario_to_dict(sc)),
            [(key, blk.shape, blk.tobytes()) for key, blk in sc.blocks.items()])


def assert_loads_alike(path) -> None:
    """`load_scenario` reads the file as `json.loads` of the whole text and
    `scenario_from_dict` read it, field by field and bit for bit, or fails
    with the same class and message; a repeated key's message gains its path."""
    got, want = load_outcome(load_scenario, path), load_outcome(json_load_reference, path)
    if got != want:
        assert got[0] is want[0] is ParseError and "is repeated" in want[1], (got, want)
        assert got[1].endswith(": " + want[1]), (got, want)


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_files_load_as_json_loads_reads_them(tmp_path, name):
    path = tmp_path / "in.json"
    path.write_text(TEXTS[name], encoding="utf-8")
    assert_loads_alike(path)
    assert load_outcome(load_scenario, path)[0] not in (ParseError, ValidationError)


@settings(max_examples=200, deadline=None)
@given(mutant=mutants())
def test_mutants_load_as_json_loads_reads_them(tmp_path_factory, mutant):
    path = tmp_path_factory.mktemp("mutant") / "in.json"
    path.write_text(json.dumps(mutant[1]), encoding="utf-8")
    assert_loads_alike(path)


# a cut or an edit mostly near the start of a text, where the route to the
# blocks is, else anywhere
_AT = st.integers(0, 4000) | st.integers(0, 1 << 20)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(TEXTS)), cut=_AT)
def test_truncated_files_load_as_json_loads_reads_them(tmp_path_factory, name, cut):
    path = tmp_path_factory.mktemp("prefix") / "in.json"
    path.write_text(TEXTS[name][:cut], encoding="utf-8")
    assert_loads_alike(path)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(TEXTS)), at=_AT, drop=st.integers(0, 2),
       put=st.sampled_from(["", ",", ":", "[", "]", "{", "}", '"', " ", "\ufeff",
                            "0", "true", "NaN", '{"a": 1, "a": 2}', '"0,0": [[1]], ']))
def test_edited_files_load_as_json_loads_reads_them(tmp_path_factory, name, at, drop, put):
    text = TEXTS[name]
    path = tmp_path_factory.mktemp("edit") / "in.json"
    path.write_text(text[:at] + put + text[at + drop:], encoding="utf-8")
    assert_loads_alike(path)


@pytest.mark.parametrize("name", ["appendix_c.json, padded", "tiny_oracle.json, padded"])
def test_structural_edits_load_as_json_loads_reads_them(tmp_path, name):
    # each bracket, brace, colon, comma and quote of a walked file deleted,
    # or made a closing bracket, a closing brace or a comma
    text, path = TEXTS[name], tmp_path / "in.json"
    edits = ["\ufeff" + text, text + "x"]  # a byte order mark, extra data
    edits += [text[:at] + put + text[at + 1:] for put in ("", "]", "}", ",")
              for at in (m.start() for m in re.finditer(r'[][{}:,"]', text))]
    for edited in edits:
        path.write_text(edited, encoding="utf-8")
        assert_loads_alike(path)


def _cell(data, value):
    data["intertwiner"]["blocks"]["0,0"][0][0] = value


@pytest.mark.parametrize("edit", [
    # two faults: each loader reports the one scenario_from_dict reaches first
    lambda d: (_cell(d, True), d.update(grph=d.pop("graph"))),
    lambda d: (_cell(d, True), d.update(region_C=5)),
    lambda d: (_cell(d, "x"), d["sectors"][0].update(name=5)),
    # rows of 10,000 cells are converted one at a time: a bad cell in the
    # second batch keeps its row number, and a ragged row later in the block
    # is reported before a bad cell earlier in it
    lambda d: d["intertwiner"]["blocks"].update({"0,0": [[0.5] * 10_000, [0.5] * 9_999 + [True]]}),
    lambda d: d["intertwiner"]["blocks"].update({"0,0": [[True] + [0.5] * 9_999, [0.5] * 9_999]}),
    lambda d: d["intertwiner"]["blocks"].update({"0,0": [[0.5] * 10_000, [0.5] * 10_000]}),
], ids=["bool cell, key", "bool cell, region_C", "string cell, sector name",
        "second batch", "ragged after a bad cell", "wrong shape"])
def test_faults_of_a_walked_file_come_in_json_loads_order(tmp_path, edit):
    data = json.loads(TEXTS["tiny_oracle.json"])
    edit(data)
    path = tmp_path / "in.json"
    for text in (json.dumps(data) + PAD, json.dumps(data)[:-3] + PAD):  # and cut short
        path.write_text(text, encoding="utf-8")
        assert_loads_alike(path)
