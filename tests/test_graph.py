import dataclasses

import numpy as np
import pytest

from oracles import cut_reference, graph_scenarios
from rstn.families import tiny_generic
from rstn.graph import BoundaryLink, ColoredGraph, GraphError, Link


def pinwheel():
    return ColoredGraph(
        n_vertices=2,
        internal=[Link(0, 1, 1)],
        boundary=[
            BoundaryLink(0, 2), BoundaryLink(0, 3), BoundaryLink(0, 4),
            BoundaryLink(1, 2), BoundaryLink(1, 3), BoundaryLink(1, 4),
        ],
    )


def test_link_ids_follow_declaration_order():
    g = pinwheel()
    assert g.link_ids() == ["i0", "b0", "b1", "b2", "b3", "b4", "b5"]
    assert g.is_internal("i0") and not g.is_internal("b3")


def test_links_at_sorted_by_color():
    g = pinwheel()
    assert g.links_at(0) == ["i0", "b0", "b1", "b2"]
    assert g.links_at(1) == ["i0", "b3", "b4", "b5"]


def test_four_valence_enforced():
    with pytest.raises(GraphError, match="unfilled"):
        ColoredGraph(1, [], [BoundaryLink(0, c) for c in (1, 2, 3)])


def test_color_range():
    with pytest.raises(GraphError, match="color"):
        ColoredGraph(1, [], [BoundaryLink(0, c) for c in (0, 1, 2, 3)])
    with pytest.raises(GraphError, match="color"):
        ColoredGraph(1, [], [BoundaryLink(0, c) for c in (2, 3, 4, 5)])


def test_duplicate_slot_rejected():
    with pytest.raises(GraphError, match="already"):
        ColoredGraph(
            1, [], [BoundaryLink(0, c) for c in (1, 1, 2, 3)]
        )


def test_self_loop_rejected():
    with pytest.raises(GraphError, match="self-loop"):
        ColoredGraph(
            1,
            [Link(0, 0, 1)],
            [BoundaryLink(0, 3), BoundaryLink(0, 4)],
        )


def test_double_link_between_same_pair_rejected():
    with pytest.raises(GraphError, match="already joined"):
        ColoredGraph(
            2,
            [Link(0, 1, 1), Link(0, 1, 2)],
            [
                BoundaryLink(0, 3), BoundaryLink(0, 4),
                BoundaryLink(1, 3), BoundaryLink(1, 4),
            ],
        )


def cut_ids(g: ColoredGraph, config: int) -> list[str]:
    return [lid for lid, cut in zip(g.link_ids(), g.cuts(config)) if cut]


def test_cut_counts_boundary_at_region_vertices():
    g = pinwheel()
    assert cut_ids(g, 0b01) == ["i0", "b0", "b1", "b2"]
    assert cut_ids(g, 0b10) == ["i0", "b3", "b4", "b5"]
    assert cut_ids(g, 0b11) == ["b0", "b1", "b2", "b3", "b4", "b5"]


@pytest.mark.parametrize("sc", graph_scenarios())
def test_cuts_and_links_at_match_set_reference(sc):
    g = sc.graph
    color = {lid: ln.color for lid, ln in zip(g.link_ids(), g.internal + g.boundary)}
    for x in range(g.n_vertices):
        assert g.links_at(x) == sorted(cut_reference(g, {x}), key=color.get)
    table = g.cuts(np.arange(1 << g.n_vertices))  # one column per config
    for config in range(1 << g.n_vertices):
        down = {x for x in range(g.n_vertices) if config >> x & 1}
        assert cut_ids(g, config) == cut_reference(g, down)
        assert table[:, config].tolist() == g.cuts(config).tolist()


def test_graph_is_frozen_and_replace_rebuilds_its_tables():
    sc = tiny_generic()
    with pytest.raises(dataclasses.FrozenInstanceError):
        sc.graph.n_vertices = 3
    with pytest.raises(AttributeError):
        sc.graph.internal.append(Link(0, 1, 2))
    with pytest.raises(ValueError):
        sc.graph.ends[0] = 0
    g = pinwheel()
    moved = dataclasses.replace(g, boundary=g.boundary[3:] + g.boundary[:3])
    assert g.ends.tolist() == [0b11, 1, 1, 1, 2, 2, 2]
    assert moved.ends.tolist() == [0b11, 2, 2, 2, 1, 1, 1]
    assert moved.links_at(0) == ["i0", "b3", "b4", "b5"]
    assert cut_ids(moved, 0b01) == ["i0", "b3", "b4", "b5"]
    with pytest.raises(GraphError, match="already"):
        dataclasses.replace(g, boundary=g.boundary[:3] * 2)


def test_vertex_count_fits_the_bitmasks():
    with pytest.raises(GraphError, match="1 to 63 vertices"):
        ColoredGraph(0)
    ring = [Link(x, (x + 1) % 64, 1 + x % 2) for x in range(64)]
    legs = [BoundaryLink(x, c) for x in range(64) for c in (3, 4)]
    with pytest.raises(GraphError, match="1 to 63 vertices"):
        ColoredGraph(64, ring, legs)
