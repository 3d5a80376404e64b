"""Fixed 4-valent, 4-edge-colored graphs with open boundary links.

Vertices are integers 0..n-1.  Every vertex has exactly four link
slots, one per color 1..4.  A slot is filled either by an internal
link (joining two vertices, same color at both ends) or by a boundary
link (a dangling half-edge).  Boundary links are "outer" by default;
"inner" marks half-edges facing an optional core system.

Link ids are strings: "i<k>" for the k-th internal link and "b<k>" for
the k-th boundary link, in their declaration order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_VERTICES = 63  # a swapped vertex set is an int64 bitmask


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Link:
    """Internal link from `source` to `target` carrying color `color`.

    The orientation (source vs target) matters for the Ising energy:
    the spin variable sigma of the source vertex multiplies the field
    or the target's variable.
    """

    source: int
    target: int
    color: int


@dataclass(frozen=True)
class BoundaryLink:
    vertex: int
    color: int
    side: str = "outer"  # "outer" | "inner"


@dataclass(frozen=True)
class ColoredGraph:
    """A frozen, validated graph and its link incidence: the slot table
    (vertex, color) -> link id, and `ends`, one vertex bitmask per link
    in `link_ids()` order (two bits internal, one for a half-edge)."""

    n_vertices: int
    internal: tuple[Link, ...] = ()
    boundary: tuple[BoundaryLink, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "internal", tuple(self.internal))
        object.__setattr__(self, "boundary", tuple(self.boundary))
        self.validate()
        ends = np.array([1 << ln.source | 1 << ln.target for ln in self.internal]
                        + [1 << b.vertex for b in self.boundary], dtype=np.int64)
        ends.flags.writeable = False
        object.__setattr__(self, "ends", ends)

    # -- ids ----------------------------------------------------------------

    def link_ids(self) -> list[str]:
        return [f"i{k}" for k in range(len(self.internal))] + [
            f"b{k}" for k in range(len(self.boundary))
        ]

    def is_internal(self, link_id: str) -> bool:
        return link_id.startswith("i")

    def outer_boundary_ids(self) -> list[str]:
        return [
            f"b{k}" for k, b in enumerate(self.boundary) if b.side == "outer"
        ]

    # -- structure ----------------------------------------------------------

    def validate(self) -> None:
        if not 1 <= self.n_vertices <= MAX_VERTICES:
            raise GraphError(f"graph needs 1 to {MAX_VERTICES} vertices, got "
                             f"{self.n_vertices}")
        slots: dict[tuple[int, int], str] = {}

        def claim(vertex: int, color: int, what: str) -> None:
            if not 0 <= vertex < self.n_vertices:
                raise GraphError(f"{what}: vertex {vertex} out of range")
            if not 1 <= color <= 4:
                raise GraphError(f"{what}: color {color} not in 1..4")
            if (vertex, color) in slots:
                raise GraphError(
                    f"{what}: slot (vertex {vertex}, color {color}) already "
                    f"used by {slots[(vertex, color)]}"
                )
            slots[(vertex, color)] = what

        pairs: set[tuple[int, int]] = set()
        for k, ln in enumerate(self.internal):
            if ln.source == ln.target:
                raise GraphError(f"i{k}: self-loops are not supported")
            pair = (min(ln.source, ln.target), max(ln.source, ln.target))
            if pair in pairs:
                raise GraphError(
                    f"i{k}: vertices {pair} already joined by another link"
                )
            pairs.add(pair)
            claim(ln.source, ln.color, f"i{k}")
            claim(ln.target, ln.color, f"i{k}")
        for k, b in enumerate(self.boundary):
            if b.side not in ("outer", "inner"):
                raise GraphError(f"b{k}: side must be 'outer' or 'inner'")
            claim(b.vertex, b.color, f"b{k}")
        for v in range(self.n_vertices):
            missing = [c for c in range(1, 5) if (v, c) not in slots]
            if missing:
                raise GraphError(
                    f"vertex {v} has unfilled color slots {missing}"
                )
        object.__setattr__(self, "_slots", slots)

    def links_at(self, vertex: int) -> list[str]:
        """Ids of the four links incident to a vertex, by color."""
        return [self._slots[vertex, c] for c in range(1, 5)]

    def cuts(self, configs):
        """0/1 per link (rows, link-id order) and configuration (an int
        or an int array of swapped vertex sets): a swapped set cuts a
        link when it holds an odd number of the link's ends."""
        return np.bitwise_count(np.bitwise_and.outer(self.ends, configs)) & 1

    def check_region_C(self, region_C: list[str]) -> None:
        """The marked boundary region must consist of outer half-edges."""
        outer = set(self.outer_boundary_ids())
        for lid in region_C:
            if lid not in outer:
                raise GraphError(
                    f"region C entry {lid!r} is not an outer boundary link"
                )
        if len(set(region_C)) != len(region_C):
            raise GraphError("region C has repeated links")
