"""Ready-made scenario families.

These builders produce `Scenario` objects for the recurring benchmark
geometries: the two-vertex pinwheel with a high-spin third leg (in a
single- and a two-sector variant), the once-fine-grained vertex, and
a tiny generic two-vertex case used to pin down the brute-force
reference.  `family_call` reads the two pinwheel families' parameters
back from a scenario, and `random_scenario` draws scenarios for the
property tests.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from rstn.graph import BoundaryLink, ColoredGraph, Link
from rstn.spins import intertwiner_dimension
from rstn.state import Scenario, Sector, ValidationError, scenario_to_dict

_APPENDIX_C_REGIONS = {"x": ("b5",), "s_link": ("b3",)}  # `appendix_c` region -> C


def _pinwheel_graph() -> ColoredGraph:
    """Two 4-valent vertices joined by one link; three half-edges each.

    Boundary ids: b0..b2 at vertex 0 (colors 2..4), b3..b5 at vertex 1
    (colors 2..4).  The internal link i0 has color 1.
    """
    return ColoredGraph(
        n_vertices=2,
        internal=[Link(0, 1, 1)],
        boundary=[
            BoundaryLink(0, 2), BoundaryLink(0, 3), BoundaryLink(0, 4),
            BoundaryLink(1, 2), BoundaryLink(1, 3), BoundaryLink(1, 4),
        ],
    )


def _pinwheel_spins(tw: int, x: int) -> dict[str, int]:
    """Twice-spins tw on i0 and the spin-s legs, 3 tw on b2 and x on b5."""
    return {"i0": tw, "b0": tw, "b1": tw, "b2": 3 * tw, "b3": tw, "b4": tw, "b5": x}


def appendix_c(
    twice_s: int,
    a: float | None = None,
    d: float | None = None,
    w: float = 0.5,
    b: complex = 0.0,
    u: complex = 0.0,
    v: complex = 0.0,
    region: str = "x",
    mode: str = "exact",
) -> Scenario:
    """Two-vertex scenario with sectors differing on one boundary leg.

    Vertex 0 carries spins (s, s, s, 3s); vertex 1 carries
    (s, s, s, X) with X = 3s - 1 in the first sector and X = 3s in
    the second.  The bulk state is parameterized by the 2x2 block
    [[a, b], [b*, d]] on the two-dimensional intertwiner space of the
    first sector, the cross vector (u, v) and the scalar w = 1 - a - d.
    `region` picks C: "x" marks the sector-splitting leg b5,
    "s_link" one of vertex 1's spin-s legs (b3).
    """
    S = twice_s
    if S < 1:
        raise ValueError("twice_s must be >= 1")
    if a is None and d is None:
        a = d = (1.0 - w) / 2.0
    elif a is None or d is None:
        raise ValueError("give both a and d or neither")
    sectors = [Sector(_pinwheel_spins(S, 3 * S - 2), "j"),
               Sector(_pinwheel_spins(S, 3 * S), "k")]
    blocks = {
        (0, 0): np.array([[a, b], [np.conj(b), d]], dtype=complex),
        (0, 1): np.array([[u], [v]], dtype=complex),
        (1, 1): np.array([[w]], dtype=complex),
    }
    return Scenario(graph=_pinwheel_graph(), sectors=sectors, amplitudes={},
                    blocks=blocks, region_C=_APPENDIX_C_REGIONS[region], mode=mode)


def two_sector(
    twice_s: int,
    twice_t: int,
    c0: float = 0.5,
    mode: str = "high_spin",
) -> Scenario:
    """Two sectors with homogeneous geometry of scale s resp. t.

    Each sector is the pinwheel with spins (s, s, s, 3s) at vertex 0
    and (s, s, s, 3s-1) at vertex 1; C is the high-spin leg of
    vertex 1.  The bulk state is block-diagonal, maximally mixed
    within each sector, with weight c0 on the s sector.
    """
    if not (0.0 <= c0 <= 1.0):
        raise ValueError("c0 must lie in [0, 1]")
    sectors = [Sector(_pinwheel_spins(tw, 3 * tw - 2), name)
               for tw, name in ((twice_s, "s"), (twice_t, "t"))]
    blocks = {
        (0, 0): c0 / 2.0 * np.eye(2, dtype=complex),
        (1, 1): (1.0 - c0) / 2.0 * np.eye(2, dtype=complex),
    }
    return Scenario(graph=_pinwheel_graph(), sectors=sectors, amplitudes={},
                    blocks=blocks, region_C=["b5"], mode=mode)


def family_call(sc: Scenario) -> tuple[Callable[..., Scenario], dict]:
    """The `appendix_c` or `two_sector` call (builder, keywords) whose scenario
    equals `sc` but for sector names; ValidationError if there is none."""
    if len(sc.sectors) == 2 and sc.graph == _pinwheel_graph():
        for builder, read in ((appendix_c, _appendix_c_kwargs),
                              (two_sector, _two_sector_kwargs)):
            try:  # blocks of other shapes, or a call the builder refuses
                kwargs = read(sc)
                rebuilt = builder(**kwargs)
            except ValueError:
                continue
            if _layout(rebuilt) == _layout(sc):
                return builder, kwargs
    raise ValidationError("no appendix_c or two_sector call rebuilds it")


def _appendix_c_kwargs(sc: Scenario) -> dict:
    (a, b), (_, d) = sc.block(0, 0)
    (u,), (v,) = sc.block(0, 1)
    ((w,),) = sc.block(1, 1)
    # a C that no region marks fails the comparison in family_call
    region = {C: r for r, C in _APPENDIX_C_REGIONS.items()}.get(sc.region_C, "x")
    return {"twice_s": sc.spin(0, "i0"), "a": float(a.real), "d": float(d.real),
            "w": float(w.real), "b": complex(b), "u": complex(u), "v": complex(v),
            "region": region, "mode": sc.mode}


def _two_sector_kwargs(sc: Scenario) -> dict:
    return {"twice_s": sc.spin(0, "i0"), "twice_t": sc.spin(1, "i0"),
            "c0": sc.c_norm(0), "mode": sc.mode}


def _layout(sc: Scenario) -> dict:
    """`sc` as data but for sector names, with the blocks of every pair."""
    data = scenario_to_dict(sc)
    for sec in data["sectors"]:
        del sec["name"]
    n = len(sc.sectors)
    data["intertwiner"]["blocks"] = [sc.block(*mn).tolist() for mn in np.ndindex(n, n)]
    return data


def once_fine_grained(twice_j: int = 1) -> Scenario:
    """A 4-valent vertex split into five, keeping four boundary legs.

    Center vertex 0 connects by spokes to vertices 1..4, which form a
    4-cycle; each outer vertex keeps one boundary leg.  All spins are
    equal and the bulk state is maximally mixed.  C is the boundary
    leg of vertex 1.
    """
    graph = ColoredGraph(
        n_vertices=5,
        internal=[
            Link(0, 1, 1), Link(0, 2, 2), Link(0, 3, 3), Link(0, 4, 4),
            Link(1, 2, 3), Link(2, 3, 4), Link(3, 4, 1), Link(4, 1, 2),
        ],
        boundary=[
            BoundaryLink(1, 4), BoundaryLink(2, 1),
            BoundaryLink(3, 2), BoundaryLink(4, 3),
        ],
    )
    total = intertwiner_dimension((twice_j,) * 4) ** 5  # five equal vertices
    if total == 0:
        raise ValueError(f"no invariant state for twice-spin {twice_j}")
    return Scenario(graph=graph, sectors=[Sector(dict.fromkeys(graph.link_ids(), twice_j), "hom")],
                    amplitudes={}, blocks={(0, 0): np.eye(total, dtype=complex) / total},
                    region_C=["b0"], mode="exact")


def tiny_generic(mode: str = "exact") -> Scenario:
    """Pinwheel with all spins 1/2 and a fixed, non-symmetric bulk state."""
    graph = _pinwheel_graph()
    spins = {lid: 1 for lid in graph.link_ids()}
    # fixed B^dagger B construction keeps the state PSD but generic
    bmat = np.array(
        [
            [1.0, 0.2 + 0.1j, 0.0, 0.3],
            [0.0, 0.8, 0.1j, 0.0],
            [0.2, 0.0, 0.6, 0.1],
            [0.0, 0.1, 0.0, 0.5 + 0.2j],
        ],
        dtype=complex,
    )
    rho = bmat.conj().T @ bmat
    rho /= np.trace(rho).real
    return Scenario(graph=graph, sectors=[Sector(spins, name="half")],
                    amplitudes={"i0": {1: 0.9 + 0.3j}}, blocks={(0, 0): rho},
                    region_C=["b3", "b4"], mode=mode)


# -- randomized scenarios for property tests --------------------------------

def _template(name: str) -> ColoredGraph:
    if name == "one":
        return ColoredGraph(1, [], [BoundaryLink(0, c) for c in range(1, 5)])
    if name == "two":
        return _pinwheel_graph()
    if name == "chain":
        return ColoredGraph(
            3,
            [Link(0, 1, 1), Link(1, 2, 2)],
            [
                BoundaryLink(0, 2), BoundaryLink(0, 3), BoundaryLink(0, 4),
                BoundaryLink(1, 3), BoundaryLink(1, 4),
                BoundaryLink(2, 1), BoundaryLink(2, 3), BoundaryLink(2, 4),
            ],
        )
    raise ValueError(f"unknown template {name!r}")


def random_scenario(
    rng: np.random.Generator,
    template: str = "two",
    n_sectors: int = 1,
    max_twice: int = 4,
    mode: str = "exact",
) -> Scenario:
    """Draw a valid scenario: random admissible spins and a random PSD bulk
    state, one dense matrix over all sectors cut into blocks m <= n."""
    graph = _template(template)
    ids = graph.link_ids()

    def draw_sector() -> tuple[dict[str, int], int]:
        """Random spins and their block dimension (0: inadmissible)."""
        spins = {lid: int(rng.integers(0, max_twice + 1)) for lid in ids}
        return spins, math.prod(
            intertwiner_dimension(tuple(spins[lid] for lid in graph.links_at(x)))
            for x in range(graph.n_vertices))

    sectors, dims, seen, attempts = [], [], set(), 0
    while len(sectors) < n_sectors:
        if (attempts := attempts + 1) > 2000:
            raise RuntimeError("could not draw admissible sectors")
        spins, dim = draw_sector()  # kept where admissible and new
        if dim and (key := tuple(sorted(spins.items()))) not in seen:
            seen.add(key)
            sectors.append(Sector(spins, name=f"r{len(sectors)}"))
            dims.append(dim)
    total = sum(dims)
    if n_sectors == 1:
        rng.random(1)  # the sector's weight, 1 once normalized: kept for the stream
        x = rng.normal(size=(total, total)) + 1j * rng.normal(size=(total, total))
        rho = x @ x.conj().T
        blocks = {(0, 0): rho * (1.0 / np.trace(rho).real)}
    else:
        x = rng.normal(size=(total, total)) + 1j * rng.normal(size=(total, total))
        full = x @ x.conj().T
        full /= np.trace(full).real
        offs = np.concatenate([[0], np.cumsum(dims)]).astype(int)
        blocks = {(m, n): full[offs[m]:offs[m + 1], offs[n]:offs[n + 1]]
                  for m in range(n_sectors) for n in range(m, n_sectors)}
    outer = graph.outer_boundary_ids()
    n_c = int(rng.integers(1, len(outer)))
    region_C = [str(x) for x in rng.choice(outer, size=n_c, replace=False)]
    amplitudes: dict[str, dict[int, complex]] = {}
    for k in range(len(graph.internal)):
        table = amplitudes[f"i{k}"] = {}
        for tw in (sec.spins[f"i{k}"] for sec in sectors):
            if tw not in table:
                z = rng.normal() + 1j * rng.normal()
                table[tw] = z if abs(z) >= 0.1 else 0.5 + 0.5j
    return Scenario(graph=graph, sectors=sectors, amplitudes=amplitudes, blocks=blocks,
                    region_C=sorted(region_C), mode=mode)
