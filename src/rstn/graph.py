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

from dataclasses import dataclass, field


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


@dataclass
class ColoredGraph:
    n_vertices: int
    internal: list[Link] = field(default_factory=list)
    boundary: list[BoundaryLink] = field(default_factory=list)

    def __post_init__(self):
        self.validate()

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

    def inner_boundary_ids(self) -> list[str]:
        return [
            f"b{k}" for k, b in enumerate(self.boundary) if b.side == "inner"
        ]

    # -- structure ----------------------------------------------------------

    def validate(self) -> None:
        if self.n_vertices < 1:
            raise GraphError("graph needs at least one vertex")
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

    def links_at(self, vertex: int) -> list[str]:
        """Ids of the four links incident to a vertex, by color."""
        out: list[tuple[int, str]] = []
        for k, ln in enumerate(self.internal):
            if vertex in (ln.source, ln.target):
                out.append((ln.color, f"i{k}"))
        for k, b in enumerate(self.boundary):
            if b.vertex == vertex:
                out.append((b.color, f"b{k}"))
        return [lid for _, lid in sorted(out)]

    def cut(self, region: frozenset[int] | set[int]) -> list[str]:
        """Links with exactly one endpoint inside `region`.

        Boundary links count as cut when their vertex is in the region.
        """
        out = []
        for k, ln in enumerate(self.internal):
            if (ln.source in region) != (ln.target in region):
                out.append(f"i{k}")
        for k, b in enumerate(self.boundary):
            if b.vertex in region:
                out.append(f"b{k}")
        return out

    def boundary_counts(
        self, region: frozenset[int] | set[int], region_C: list[str]
    ) -> tuple[set[str], set[str], set[str]]:
        """Split the links cut by a vertex region against the C region.

        Returns (cut internal links, boundary links in C, boundary
        links not in C); the flip conditions compare the last two
        cardinalities against the region size.
        """
        c_set = set(region_C)
        cut_internal, in_c, not_in_c = set(), set(), set()
        for lid in self.cut(region):
            if self.is_internal(lid):
                cut_internal.add(lid)
            elif lid in c_set:
                in_c.add(lid)
            else:
                not_in_c.add(lid)
        return cut_internal, in_c, not_in_c

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
