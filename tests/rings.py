"""Ring scenarios of any size.

Internal link i<x> joins x and x+1 (mod N) with colour 1 for even x
and 2 for odd x; every vertex keeps two boundary legs b<2x> and
b<2x+1>, of colours 3 and 4.

`ring_dict` (N even), for the size caps, has 1x1 bulk blocks: legs of
spin 0, and sector s puts twice-spin s+1 on every internal link, so
each vertex tuple (s+1, s+1, 0, 0) has intertwiner dimension 1 and the
bulk state is diagonal with equal weights.

`mixed_ring_dict` takes per sector the twice-spins of the ring links,
with legs that keep each vertex of dimension 1.

`dense_ring_dict` has one spin-1/2 sector, every vertex tuple of
intertwiner dimension 2, and a dense 2^N x 2^N bulk state.  For odd N
the closing link takes colour 3, and its ends move that leg to the
colour their ring links leave free.
"""

from __future__ import annotations

import numpy as np


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


def mixed_ring_dict(twice: list[list[int]]) -> dict:
    """`ring_dict(len(twice[0]), len(twice))` with sector s carrying
    twice[s][x] on ring link i<x>: leg b<2x> carries the sum of vertex x's
    two ring twice-spins and b<2x+1> spin 0, so that every vertex keeps
    intertwiner dimension 1 and the 1x1 blocks stay valid."""
    n = len(twice[0])
    data = ring_dict(n, len(twice))
    for sector, row in zip(data["sectors"], twice):
        sector["spins"].update({f"i{x}": row[x] for x in range(n)})
        sector["spins"].update({f"b{2 * x}": row[x - 1] + row[x] for x in range(n)})
    return data


def dense_ring_dict(n_vertices: int, rng: np.random.Generator,
                    components: int = 3) -> dict:
    """A full-rank mixture of `components` random vertex-product states
    on the spin-1/2 ring; C is legs b0 .. b<N-1>."""
    n = n_vertices
    rho = np.zeros((2**n, 2**n), dtype=complex)
    weights = rng.random(components) + 0.2
    for w in weights / weights.sum():
        prod = np.ones((1, 1))
        for _ in range(n):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            local = g @ g.conj().T + 0.05 * np.eye(2)
            prod = np.kron(prod, local / np.trace(local).real)
        rho += w * prod
    legs = {x: (3, 4) for x in range(n)}
    if n % 2:
        legs[0], legs[n - 1] = (2, 4), (1, 4)
    return {
        "graph": {
            "vertices": n,
            "internal_links": [
                {"from": x, "to": (x + 1) % n,
                 "color": 3 if n % 2 and x == n - 1 else 1 + x % 2}
                for x in range(n)
            ],
            "boundary_links": [
                {"vertex": x, "color": c, "side": "outer"}
                for x in range(n) for c in legs[x]
            ],
        },
        "sectors": [{"spins": {**{f"i{x}": 1 for x in range(n)},
                               **{f"b{k}": 1 for k in range(2 * n)}}}],
        "intertwiner": {"blocks": {"0,0": [[[z.real, z.imag] for z in row]
                                           for row in rho]}},
        "region_C": [f"b{k}" for k in range(n)],
    }
