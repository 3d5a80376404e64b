"""Ring scenarios of any size with 1x1 bulk blocks, for the size caps.

Internal link i<x> joins x and x+1 (mod N) with colour 1 for even x
and 2 for odd x (N even); every vertex keeps two spin-0 boundary legs
b<2x> and b<2x+1>.  Sector s puts twice-spin s+1 on every internal
link, so each vertex tuple (s+1, s+1, 0, 0) has intertwiner dimension
1 and the bulk state is diagonal with equal weights.
"""

from __future__ import annotations


def ring_dict(n_vertices: int, n_sectors: int) -> dict:
    n = n_vertices
    return {
        "graph": {
            "vertices": n,
            "internal_links": [
                {"from": x, "to": (x + 1) % n, "color": 1 + x % 2}
                for x in range(n)
            ],
            "boundary_links": [
                {"vertex": x, "color": c, "side": "outer"}
                for x in range(n) for c in (3, 4)
            ],
        },
        "sectors": [
            {"spins": {**{f"i{x}": s + 1 for x in range(n)},
                       **{f"b{k}": 0 for k in range(2 * n)}}}
            for s in range(n_sectors)
        ],
        "intertwiner": {
            "blocks": {f"{s},{s}": [[1.0 / n_sectors]]
                       for s in range(n_sectors)},
        },
        "region_C": ["b0"],
    }
