"""Scenario data model: graph + sector spins + amplitudes + bulk state.

A scenario bundles everything one purity computation needs:

* the colored graph,
* a list of spin sectors (one twice-spin per link each),
* internal-link amplitudes g_{e,j} (default 1),
* the bulk intertwiner state rho^I, given block-wise between sectors
  in the (12)(34) channel basis (increasing channel spin, vertices in
  id order),
* the marked outer boundary region C,
* the evaluation mode ("exact" enumeration or "high_spin" ground-state
  dominance).

JSON files use the same structure; complex entries are written as
[re, im] pairs and spins always as twice their value (integers).

A Scenario is frozen all the way down (tuples, read-only mappings,
read-only block arrays) and compared by identity, so one engine
(`IsingEngine.of`) serves it for life; `dataclasses.replace` makes a
changed copy.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from rstn.graph import BoundaryLink, ColoredGraph, GraphError, Link
from rstn.spins import dim_rep, intertwiner_dimension

TRACE_TOL = 1e-10
PSD_TOL = 1e-10


def link_state_purity(twice_j: int) -> float:
    """Purity of one half of a maximally entangled link state."""
    return 1.0 / dim_rep(twice_j)


class ParseError(ValueError):
    """Malformed scenario input (bad JSON, unknown keys, wrong types)."""


class ValidationError(ValueError):
    """Well-formed input that violates a physical constraint."""


@dataclass(frozen=True, eq=False)
class Sector:
    spins: Mapping[str, int]  # link id -> twice-spin
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "spins", MappingProxyType(dict(self.spins)))


@dataclass(frozen=True, eq=False)
class Scenario:
    graph: ColoredGraph
    sectors: tuple[Sector, ...]
    amplitudes: Mapping[str, Mapping[int, complex]]  # link id -> twice -> g
    blocks: Mapping[tuple[int, int], np.ndarray]  # (m, n) -> rho^I block
    region_C: tuple[str, ...]
    mode: str = "exact"
    vertex_product: bool = False
    core: Mapping | None = None
    cutoffs: Mapping[str, float | None] | None = None

    def __post_init__(self):
        object.__setattr__(self, "sectors", tuple(self.sectors))
        object.__setattr__(self, "region_C", tuple(self.region_C))
        object.__setattr__(self, "blocks", MappingProxyType(dict(self.blocks)))
        object.__setattr__(self, "amplitudes", MappingProxyType({
            lid: MappingProxyType(dict(t)) for lid, t in self.amplitudes.items()}))
        for name in ("core", "cutoffs"):
            if (table := getattr(self, name)) is not None:
                object.__setattr__(self, name, MappingProxyType(dict(table)))
        for blk in self.blocks.values():
            blk.flags.writeable = False
        self.validate()

    # -- per-sector geometry -------------------------------------------------

    def spin(self, sector: int, link_id: str) -> int:
        return self.sectors[sector].spins[link_id]

    def vertex_tuple(self, sector: int, vertex: int) -> tuple[int, int, int, int]:
        """Twice-spins at a vertex's four slots, in color order."""
        sp = self.sectors[sector].spins
        return tuple(sp[lid] for lid in self.graph.links_at(vertex))

    def vertex_dims(self, sector: int) -> list[int]:
        """Intertwiner dimension at each vertex for one sector."""
        return [
            intertwiner_dimension(self.vertex_tuple(sector, x))
            for x in range(self.graph.n_vertices)
        ]

    def block_dim(self, sector: int) -> int:
        return int(np.prod(self.vertex_dims(sector)))

    def block(self, m: int, n: int) -> np.ndarray:
        """rho^I block between sectors m (rows) and n (columns)."""
        if (m, n) in self.blocks:
            return self.blocks[(m, n)]
        if (n, m) in self.blocks:
            return self.blocks[(n, m)].conj().T
        return np.zeros((self.block_dim(m), self.block_dim(n)), dtype=complex)

    def c_norm(self, m: int) -> float:
        """Weight Tr rho^I_{mm} of sector m in the bulk state."""
        return float(np.real(np.trace(self.block(m, m))))

    def amplitude(self, link_id: str, twice_j: int) -> complex:
        return self.amplitudes.get(link_id, {}).get(twice_j, 1.0 + 0.0j)

    def dim_H_C(self) -> int:
        """Dimension of the boundary region C over all sectors.

        Each C link contributes the sum of dims of the distinct spins
        it carries across sectors; multiple links multiply.
        """
        total = 1
        for lid in self.region_C:
            dims = {self.spin(m, lid) for m in range(len(self.sectors))}
            total *= sum(dim_rep(tj) for tj in dims)
        return total

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        g = self.graph
        if self.mode not in ("exact", "high_spin"):
            raise ValidationError(f"unknown mode {self.mode!r}")
        if not self.sectors:
            raise ValidationError("need at least one spin sector")
        all_ids = set(g.link_ids())
        for lid in self.amplitudes:
            if lid not in all_ids or not g.is_internal(lid):
                raise ValidationError(
                    f"amplitudes[{lid}]: not an internal link id")
        for s, sec in enumerate(self.sectors):
            if set(sec.spins) != all_ids:
                missing = all_ids - set(sec.spins)
                extra = set(sec.spins) - all_ids
                raise ValidationError(
                    f"sector {s}: spins must cover every link exactly "
                    f"(missing {sorted(missing)}, unknown {sorted(extra)})"
                )
            for lid, tj in sec.spins.items():
                if not isinstance(tj, int) or tj < 0:
                    raise ValidationError(
                        f"sector {s}, link {lid}: twice-spin must be a "
                        f"nonnegative integer, got {tj!r}"
                    )
            if self.cutoffs:
                lo = self.cutoffs.get("lower", 0)
                hi = self.cutoffs.get("upper", None)
                for lid, tj in sec.spins.items():
                    if tj < lo or (hi is not None and tj > hi):
                        raise ValidationError(
                            f"sector {s}, link {lid}: twice-spin {tj} "
                            f"outside cutoffs [{lo}, {hi}]"
                        )
            # a vertex with no invariant state is allowed: the sector
            # then carries weight zero and drops out of every sum
        for lid, table in self.amplitudes.items():
            if unused := set(table) - {sec.spins[lid] for sec in self.sectors}:
                raise ValidationError(f"amplitudes[{lid}]: no sector carries "
                                      f"twice-spin {min(unused)} on that link")
        # distinct sectors must differ somewhere
        seen = {}
        for s, sec in enumerate(self.sectors):
            key = tuple(sorted(sec.spins.items()))
            if key in seen:
                raise ValidationError(
                    f"sectors {seen[key]} and {s} carry identical spins"
                )
            seen[key] = s
        g.check_region_C(self.region_C)

        self._validate_blocks()

    def _validate_blocks(self) -> None:
        n_sec = len(self.sectors)
        dims = [self.block_dim(m) for m in range(n_sec)]
        for (m, n), blk in self.blocks.items():
            if not (0 <= m < n_sec and 0 <= n < n_sec):
                raise ValidationError(f"block index ({m},{n}) out of range")
            if blk.shape != (dims[m], dims[n]):
                raise ValidationError(
                    f"block ({m},{n}) has shape {blk.shape}, expected "
                    f"({dims[m]}, {dims[n]})"
                )
            if not np.isfinite(blk).all():
                raise ValidationError(f"block ({m},{n}) has a non-finite entry")
            if (n, m) in self.blocks and not np.allclose(
                self.blocks[(n, m)], blk.conj().T, atol=PSD_TOL
            ):
                raise ValidationError(
                    f"blocks ({m},{n}) and ({n},{m}) are not adjoints"
                )
        # absent blocks stay zero
        full = np.zeros((sum(dims), sum(dims)), dtype=complex)
        offs = np.concatenate([[0], np.cumsum(dims)])
        for (m, n), blk in self.blocks.items():
            full[offs[m]:offs[m + 1], offs[n]:offs[n + 1]] = blk
            if (n, m) not in self.blocks:
                full[offs[n]:offs[n + 1], offs[m]:offs[m + 1]] = blk.conj().T
        tr = np.trace(full)
        if abs(tr.real - 1.0) > TRACE_TOL:
            raise ValidationError(f"bulk state trace {tr.real} != 1")
        if abs(tr.imag) > TRACE_TOL:
            raise ValidationError("bulk state trace is not real")
        if not np.allclose(full, full.conj().T, atol=PSD_TOL):
            raise ValidationError("bulk state is not Hermitian")
        evals = np.linalg.eigvalsh(full)
        if evals.min() < -PSD_TOL:
            raise ValidationError(
                f"bulk state is not positive semidefinite "
                f"(min eigenvalue {evals.min():.3e})"
            )


# -- JSON -------------------------------------------------------------------

_TOP_KEYS = {
    "graph", "sectors", "amplitudes", "intertwiner", "region_C",
    "core", "cutoffs", "mode",
}


def _complex_in(v, where: str) -> complex:
    pair = [v, 0] if isinstance(v, (int, float)) else v
    if not (isinstance(pair, list) and len(pair) == 2
            and all(isinstance(x, (int, float)) for x in pair)):
        raise ParseError(f"{where}: expected number or [re, im], got {v!r}")
    try:
        z = complex(*pair)
    except OverflowError as exc:  # an integer beyond the float range
        raise ParseError(f"{where}: number too large for a float") from exc
    if not cmath.isfinite(z):  # json reads NaN, Infinity and -Infinity
        raise ParseError(f"{where}: expected a finite number, got {v!r}")
    return z


def _block_in(mat, key: str) -> np.ndarray:
    """A bulk-state block, read by numpy at once when its cells are all
    finite numbers or all finite [re, im] pairs, else cell by cell
    (naming a bad one)."""
    if not isinstance(mat, list) or any(
        not isinstance(row, list) or len(row) != len(mat[0]) for row in mat
    ):
        raise ParseError(f"intertwiner block {key}: expected a matrix "
                         f"of equal-length rows")
    try:
        arr = np.array(mat)
    except ValueError:  # mixed or ragged cells
        arr = np.array(None)
    if (arr.dtype.kind in "biuf" and arr.ndim in (2, 3)
            and arr.shape[2:] in ((), (2,)) and np.isfinite(arr).all()):
        return (arr.astype(float).view(complex)[..., 0] if arr.ndim == 3
                else arr.astype(complex))
    arr = np.array([[_complex_in(v, f"block {key}[{i}][{j}]")
                     for j, v in enumerate(row)] for i, row in enumerate(mat)],
                   dtype=complex)
    if arr.ndim != 2:
        raise ParseError(f"intertwiner block {key}: expected a matrix")
    return arr


def _int_in(v, where: str) -> int:
    try:
        return int(v)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: expected an integer, got {v!r}") from exc


def _object_in(v, where: str) -> dict:
    if not isinstance(v, dict):
        raise ParseError(f"{where}: expected an object, got {v!r}")
    return v


def _complex_out(z: complex):
    if z.imag == 0:
        return z.real
    return [z.real, z.imag]


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ParseError("scenario must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ParseError(f"unknown top-level keys {sorted(unknown)}")
    for key in ("graph", "sectors", "intertwiner", "region_C"):
        if key not in data:
            raise ParseError(f"missing required key {key!r}")

    gd = data["graph"]
    if not isinstance(gd, dict) or set(gd) - {
        "vertices", "internal_links", "boundary_links"
    }:
        raise ParseError("graph: expected keys vertices/internal_links/"
                         "boundary_links")
    try:
        internal = [
            Link(int(d["from"]), int(d["to"]), int(d["color"]))
            for d in gd.get("internal_links", [])
        ]
        boundary = [
            BoundaryLink(int(d["vertex"]), int(d["color"]),
                         d.get("side", "outer"))
            for d in gd.get("boundary_links", [])
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"graph: malformed link entry ({exc})") from exc
    try:
        graph = ColoredGraph(_int_in(gd.get("vertices"), "graph.vertices"),
                             internal, boundary)
    except GraphError as exc:
        raise ValidationError(str(exc)) from exc

    if not isinstance(data["sectors"], list):
        raise ParseError("sectors: expected a list")
    sectors = []
    for s, sd in enumerate(data["sectors"]):
        if not isinstance(sd, dict) or set(sd) - {"name", "spins"}:
            raise ParseError(f"sectors[{s}]: expected keys name?/spins")
        spins = {}
        for lid, tj in _object_in(sd.get("spins"),
                                  f"sectors[{s}].spins").items():
            if not isinstance(tj, int) or isinstance(tj, bool):
                raise ParseError(
                    f"sectors[{s}].spins[{lid}]: twice-spin must be an "
                    f"integer, got {tj!r}"
                )
            spins[str(lid)] = tj
        sectors.append(Sector(spins=spins, name=str(sd.get("name", str(s)))))

    amplitudes: dict[str, dict[int, complex]] = {}
    for lid, table in _object_in(data.get("amplitudes", {}),
                                 "amplitudes").items():
        amplitudes[str(lid)] = {
            _int_in(tj, f"amplitudes[{lid}] key"):
                _complex_in(v, f"amplitudes[{lid}][{tj}]")
            for tj, v in _object_in(table, f"amplitudes[{lid}]").items()
        }

    idata = data["intertwiner"]
    if not isinstance(idata, dict) or set(idata) - {"blocks", "vertex_product"}:
        raise ParseError("intertwiner: expected keys blocks/vertex_product?")
    blocks = {}
    for key, mat in _object_in(idata.get("blocks", {}),
                               "intertwiner.blocks").items():
        try:
            m, n = (int(t) for t in key.split(","))
        except ValueError as exc:
            raise ParseError(
                f"intertwiner block key {key!r} must be 'm,n'"
            ) from exc
        blocks[(m, n)] = _block_in(mat, key)

    region_C = data["region_C"]
    if not isinstance(region_C, list) or not all(isinstance(x, str)
                                                 for x in region_C):
        raise ParseError(f"region_C: expected a list of link ids, got "
                         f"{region_C!r}")
    vertex_product = idata.get("vertex_product", False)
    if not isinstance(vertex_product, bool):
        raise ParseError(f"intertwiner.vertex_product: expected true or "
                         f"false, got {vertex_product!r}")
    mode = data.get("mode", "exact")
    core = data.get("core")
    if core is not None:
        _object_in(core, "core")
    cutoffs = data.get("cutoffs")
    if cutoffs is not None and (
        not isinstance(cutoffs, dict) or set(cutoffs) - {"lower", "upper"}
    ):
        raise ParseError("cutoffs: expected keys lower/upper")
    for key, v in (cutoffs or {}).items():
        if not (isinstance(v, (int, float)) and not isinstance(v, bool)
                and abs(v) < math.inf or key == "upper" and v is None):
            raise ParseError(f"cutoffs.{key}: expected a finite number, got {v!r}")

    return Scenario(
        graph=graph,
        sectors=sectors,
        amplitudes=amplitudes,
        blocks=blocks,
        region_C=region_C,
        mode=mode,
        vertex_product=vertex_product,
        core=core,
        cutoffs=cutoffs,
    )


def scenario_to_dict(sc: Scenario) -> dict:
    g = sc.graph
    out = {
        "graph": {
            "vertices": g.n_vertices,
            "internal_links": [
                {"from": ln.source, "to": ln.target, "color": ln.color}
                for ln in g.internal
            ],
            "boundary_links": [
                {"vertex": b.vertex, "color": b.color, "side": b.side}
                for b in g.boundary
            ],
        },
        "sectors": [
            {"name": sec.name, "spins": dict(sorted(sec.spins.items()))}
            for sec in sc.sectors
        ],
        "amplitudes": {
            lid: {str(tj): _complex_out(v) for tj, v in table.items()}
            for lid, table in sc.amplitudes.items()
        },
        "intertwiner": {
            "blocks": {
                f"{m},{n}": [[_complex_out(v) for v in row] for row in blk]
                for (m, n), blk in sc.blocks.items()
            },
        },
        "region_C": list(sc.region_C),
        "mode": sc.mode,
    }
    if sc.vertex_product:
        out["intertwiner"]["vertex_product"] = True
    if sc.core is not None:
        out["core"] = dict(sc.core)
    if sc.cutoffs is not None:
        out["cutoffs"] = dict(sc.cutoffs)
    return out


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    return scenario_from_dict(data)


def content_hash(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
