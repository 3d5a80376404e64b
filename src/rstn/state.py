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
import re
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from rstn.graph import BoundaryLink, ColoredGraph, GraphError, Link
from rstn.spins import dim_rep, intertwiner_dimension

TRACE_TOL = 1e-10
PSD_TOL = 1e-10
MAX_BULK_DIM = 4096  # sum of block dims: validation builds a dense square this wide


def adjoint_close(a: np.ndarray, b: np.ndarray, atol: float) -> bool:
    """a = b^H by np.allclose's rule, |a - b^H| <= atol + 1e-5 |b^H|, taken over
    row blocks of at most 2^14 entries; the atol test alone settles most blocks."""
    step = max(1, (1 << 14) // max(1, a.shape[1]))
    for lo in range(0, len(a), step):
        adj = b[:, lo:lo + step].conj().T
        diff = np.abs(a[lo:lo + step] - adj)  # empty for a zero-dimension sector
        if not (diff.max(initial=0.0) <= atol
                or (diff <= atol + 1e-5 * np.abs(adj)).all()):
            return False
    return True


class ParseError(ValueError):
    """Malformed scenario input (bad JSON, unknown keys, wrong types)."""


class ValidationError(ValueError):
    """Well-formed input that violates a physical constraint."""


class SizeCapError(RuntimeError):
    """Input too large to evaluate (exit code 4): a bulk state of dimension
    over MAX_BULK_DIM on validation, and the engine's, oracle's, weight
    solver's and CLI's own caps, each raised before the work is allocated."""


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
    cutoffs: Mapping[str, float | None] | None = None

    def __post_init__(self):
        object.__setattr__(self, "sectors", tuple(self.sectors))
        object.__setattr__(self, "region_C", tuple(self.region_C))
        object.__setattr__(self, "blocks", MappingProxyType(dict(self.blocks)))
        object.__setattr__(self, "amplitudes", MappingProxyType({
            lid: MappingProxyType(dict(t)) for lid, t in self.amplitudes.items()}))
        if self.cutoffs is not None:
            object.__setattr__(self, "cutoffs", MappingProxyType(dict(self.cutoffs)))
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

    def vertex_dims(self, sector: int) -> tuple[int, ...]:
        """Intertwiner dimension at each vertex for one sector, kept."""
        dims = self.__dict__.setdefault("_vertex_dims", {})
        if sector not in dims:
            dims[sector] = tuple(intertwiner_dimension(self.vertex_tuple(sector, x))
                                 for x in range(self.graph.n_vertices))
        return dims[sector]

    def block_dim(self, sector: int) -> int:
        return math.prod(self.vertex_dims(sector))

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
                raise ValidationError(f"amplitudes[{lid}]: not an internal link id")
        for s, sec in enumerate(self.sectors):
            if (given := set(sec.spins)) != all_ids:
                raise ValidationError(f"sector {s}: spins must cover every link exactly (missing "
                                      f"{sorted(all_ids - given)}, unknown {sorted(given - all_ids)})")
            for lid, tj in sec.spins.items():
                if not isinstance(tj, int) or tj < 0:
                    raise ValidationError(f"sector {s}, link {lid}: twice-spin must be a "
                                          f"nonnegative integer, got {tj!r}")
            if self.cutoffs:
                lo = self.cutoffs.get("lower", 0)
                hi = self.cutoffs.get("upper", None)
                for lid, tj in sec.spins.items():
                    if tj < lo or (hi is not None and tj > hi):
                        raise ValidationError(f"sector {s}, link {lid}: twice-spin {tj} "
                                              f"outside cutoffs [{lo}, {hi}]")
            # a vertex with no invariant state is allowed: the sector
            # then carries weight zero and drops out of every sum
        for lid, table in self.amplitudes.items():
            if unused := set(table) - {sec.spins[lid] for sec in self.sectors}:
                raise ValidationError(f"amplitudes[{lid}]: no sector carries "
                                      f"twice-spin {min(unused)} on that link")
            for tj, g_val in table.items():
                if not cmath.isfinite(g_val):
                    raise ValidationError(f"amplitudes[{lid}]: amplitude "
                                          f"{g_val!r} of twice-spin {tj} "
                                          f"is not finite")
        # distinct sectors must differ somewhere
        seen = {}
        for s, sec in enumerate(self.sectors):
            key = tuple(sorted(sec.spins.items()))
            if key in seen:
                raise ValidationError(f"sectors {seen[key]} and {s} carry identical spins")
            seen[key] = s
        outer = g.outer_boundary_ids()
        if bad := [lid for lid in self.region_C if lid not in outer]:
            raise ValidationError(f"region C entry {bad[0]!r} is not an outer boundary link")
        if len(set(self.region_C)) != len(self.region_C):
            raise ValidationError("region C has repeated links")

        self._validate_blocks()

    def _validate_blocks(self) -> None:
        n_sec = len(self.sectors)
        dims = [self.block_dim(m) for m in range(n_sec)]
        if sum(dims) > MAX_BULK_DIM:  # absent blocks cost nothing to write
            raise SizeCapError(f"bulk state dimension {sum(dims)} exceeds the "
                               f"cap of {MAX_BULK_DIM}")
        for (m, n), blk in self.blocks.items():
            if not (0 <= m < n_sec and 0 <= n < n_sec):
                raise ValidationError(f"block index ({m},{n}) out of range")
            if blk.shape != (dims[m], dims[n]):
                raise ValidationError(f"block ({m},{n}) has shape {blk.shape}, expected "
                                      f"({dims[m]}, {dims[n]})")
            if not np.isfinite(blk).all():
                raise ValidationError(f"block ({m},{n}) has a non-finite entry")
        # each given (n, m) against (m, n), a diagonal block against itself:
        # blocks given one way enter `full` as exact adjoints, so it is Hermitian
        for (m, n), blk in self.blocks.items():
            back = self.blocks.get((n, m))
            if back is not None and not adjoint_close(back, blk, PSD_TOL):
                raise ValidationError(
                    f"blocks ({m},{n}) and ({n},{m}) are not adjoints")
        full = self._full(dims)
        tr = np.trace(full)
        if abs(tr.real - 1.0) > TRACE_TOL:
            raise ValidationError(f"bulk state trace {tr.real} != 1")
        if abs(tr.imag) > TRACE_TOL:
            raise ValidationError("bulk state trace is not real")
        full[np.diag_indices_from(full)] += PSD_TOL
        if not _cholesky_in_place(full):  # full is overwritten: built again for the message
            least = np.linalg.eigvalsh(self._full(dims)).min()
            if least < -PSD_TOL:
                raise ValidationError(f"bulk state is not positive semidefinite "
                                      f"(min eigenvalue {least:.3e})")

    def _full(self, dims: list[int]) -> np.ndarray:
        """The bulk state as one dense matrix; absent blocks stay zero."""
        full = np.zeros((sum(dims), sum(dims)), dtype=complex)
        offs = np.concatenate([[0], np.cumsum(dims)])
        for (m, n), blk in self.blocks.items():
            full[offs[m]:offs[m + 1], offs[n]:offs[n + 1]] = blk
            if (n, m) not in self.blocks:
                full[offs[n]:offs[n + 1], offs[m]:offs[m + 1]] = blk.conj().T
        return full


def _cholesky_in_place(a: np.ndarray) -> bool:
    """Whether Hermitian `a` (its lower triangle) is positive definite, up to
    rounding: a blocked Cholesky that overwrites `a`, LAPACK on each diagonal
    block of `step` rows, so that beside `a` it holds three panels of `step`
    columns, about a fifth of its size."""
    n = len(a)
    step = max(16, n // 16)
    for k in range(0, n, step):
        e = min(k + step, n)
        try:
            l11 = np.linalg.cholesky(a[k:e, k:e])
        except np.linalg.LinAlgError:
            return False
        a[e:, k:e] = np.linalg.solve(l11, a[e:, k:e].conj().T).conj().T  # L21 = A21 L11^-H
        for r in range(e, n, step):  # A22 -= L21 L21^H, its lower triangle
            prod = a[r:r + step, k:e].conj() @ a[e:r + step, k:e].T
            a[r:r + step, e:r + step] -= np.conjugate(prod, out=prod)
    return True


# -- JSON -------------------------------------------------------------------

_TOP_KEYS = {
    "graph", "sectors", "amplitudes", "intertwiner", "region_C", "cutoffs", "mode",
}


def _complex_in(v, where: str) -> complex:
    pair = [v, 0] if isinstance(v, (int, float)) else v
    if not (isinstance(pair, list) and len(pair) == 2 and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)):
        raise ParseError(f"{where}: expected number or [re, im], got {v!r}")
    try:
        z = complex(*pair)
    except OverflowError as exc:  # an integer beyond the float range
        raise ParseError(f"{where}: number too large for a float") from exc
    if not cmath.isfinite(z):  # json reads NaN, Infinity and -Infinity
        raise ParseError(f"{where}: expected a finite number, got {v!r}")
    return z


def _holds_bool(mat, arr: np.ndarray) -> bool:
    """Whether a cell, or part of one, that numpy read as 0 or 1 is a boolean."""
    return any(isinstance(mat[i][j][k[0]] if k else mat[i][j], bool)
               for i, j, *k in np.argwhere((arr == 0) | (arr == 1)).tolist())


def _block_in(mat, key: str, bools: bool = True) -> np.ndarray:
    """A bulk-state block (or a batch of its rows), read by numpy at once when
    its cells are all finite numbers or all finite [re, im] pairs and none is a
    boolean (`_holds_bool`, skipped where not `bools`: the text holds none),
    else cell by cell (naming a bad one)."""
    if not isinstance(mat, list) or any(
        not isinstance(row, list) or len(row) != len(mat[0]) for row in mat
    ):
        raise ParseError(f"intertwiner block {key}: expected a matrix "
                         f"of equal-length rows")
    try:
        arr = np.array(mat)
    except ValueError:  # mixed or ragged cells
        arr = np.array(None)
    if (arr.dtype.kind in "iuf" and arr.ndim in (2, 3)
            and arr.shape[2:] in ((), (2,)) and np.isfinite(arr).all()
            and not (bools and _holds_bool(mat, arr))):
        return (arr.astype(float).view(complex)[..., 0] if arr.ndim == 3
                else arr.astype(complex))
    arr = np.array([[_complex_in(v, f"block {key}[{i}][{j}]")
                     for j, v in enumerate(row)] for i, row in enumerate(mat)],
                   dtype=complex)
    if arr.ndim != 2:
        raise ParseError(f"intertwiner block {key}: expected a matrix")
    return arr


def _int_in(v, where: str) -> int:
    """A JSON integer: an int that is not a bool (no float, no string)."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise ParseError(f"{where}: expected an integer, got {v!r}")
    return v


def _str_in(v, where: str) -> str:
    if not isinstance(v, str):
        raise ParseError(f"{where}: expected a string, got {v!r}")
    return v


def _key_in(key, count: int, where: str) -> list[int]:
    """An object key of `count` comma-separated integers in their one
    spelling: digits [0-9] only (\\d and int() take other scripts' digits),
    with no sign, space, underscore or leading zero."""
    if not (isinstance(key, str)
            and re.fullmatch(",".join(["(0|[1-9][0-9]*)"] * count), key)):
        shape = "m,n" if count == 2 else "n"
        raise ParseError(f"{where} {key!r}: expected {shape} in plain decimal digits")
    return [int(t) for t in key.split(",")]


def _distinct_keys(pairs: list) -> dict:
    """A JSON object, refusing a repeated key (`json.loads` keeps the last)."""
    if len(out := dict(pairs)) < len(pairs):
        key = next(k for k, _ in pairs if sum(k == k2 for k2, _ in pairs) > 1)
        raise ParseError(f"key {key!r} is repeated in one JSON object")
    return out


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

    def entries(kind: str, keys: tuple[str, ...], side: tuple[str, ...] = ()):
        """The fields of each link entry of graph[kind]: the integer `keys`,
        then the string `side` ("outer" where absent), and no other key."""
        rows = gd.get(kind, [])
        if not isinstance(rows, list):
            raise ParseError(f"graph.{kind}: expected a list, got {rows!r}")
        for k, d in enumerate(rows):
            where = f"graph.{kind}[{k}]"
            if unknown := [key for key in _object_in(d, where) if key not in keys + side]:
                raise ParseError(f"{where}.{unknown[0]}: unknown key")
            yield ([_int_in(d.get(key), f"{where}.{key}") for key in keys]
                   + [_str_in(d.get(key, "outer"), f"{where}.{key}") for key in side])

    internal = [Link(*row) for row in entries("internal_links", ("from", "to", "color"))]
    boundary = [BoundaryLink(*row) for row in
                entries("boundary_links", ("vertex", "color"), ("side",))]
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
            spins[str(lid)] = _int_in(tj, f"sectors[{s}].spins[{lid}]")
        sectors.append(Sector(spins, _str_in(sd.get("name", str(s)), f"sectors[{s}].name")))

    amplitudes: dict[str, dict[int, complex]] = {}
    for lid, table in _object_in(data.get("amplitudes", {}),
                                 "amplitudes").items():
        amplitudes[str(lid)] = {
            _key_in(tj, 1, f"amplitudes[{lid}] key")[0]:
                _complex_in(v, f"amplitudes[{lid}][{tj}]")
            for tj, v in _object_in(table, f"amplitudes[{lid}]").items()
        }

    idata = _object_in(data["intertwiner"], "intertwiner")
    if unknown := sorted(set(idata) - {"blocks"}):
        raise ParseError(f"intertwiner.{unknown[0]}: unknown key")
    blocks = {}
    for key, mat in _object_in(idata.get("blocks", {}),
                               "intertwiner.blocks").items():
        m, n = _key_in(key, 2, "intertwiner block key")
        blocks[(m, n)] = mat[0] if isinstance(mat, _Read) else _block_in(mat, key)

    region_C = data["region_C"]
    if not isinstance(region_C, list) or not all(isinstance(x, str)
                                                 for x in region_C):
        raise ParseError(f"region_C: expected a list of link ids, got "
                         f"{region_C!r}")
    mode = _str_in(data.get("mode", "exact"), "mode")
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
    if sc.cutoffs is not None:
        out["cutoffs"] = dict(sc.cutoffs)
    return out


_WS = re.compile(r"[ \t\n\r]*").match  # JSON whitespace
_COLON = re.compile(r"[ \t\n\r]*:[ \t\n\r]*").match
_NEXT = re.compile(r"[ \t\n\r]*([,\]}])[ \t\n\r]*").match  # the end of a member
_ROUTE = ("intertwiner", "blocks")


class _Read(list):
    """[a block `_Reader` converted], for `scenario_from_dict` to take as it is."""


class _Reader:
    """A scenario's JSON text, read as `json.loads` reads it with
    `object_pairs_hook=_distinct_keys`, but with a repeated key's path named
    and each block of `intertwiner.blocks` read row by row into `_block_in`
    batches of at most 2^14 cells. The C scanner reads whole each row, each
    value off that route and each value shorter than 2^16 characters (fewer
    objects than a batch of [re, im] cells); it reads again, whole, a
    container the walk finds malformed, for its error, and a block that
    fails, for `scenario_from_dict` to refuse in its own order."""

    def __init__(self, text: str):
        self.text = text
        self.raw = json.JSONDecoder(object_pairs_hook=_distinct_keys).raw_decode

    def value(self, p: int, path: tuple):
        """The value at p, and the index past it."""
        text = self.text
        if (path != _ROUTE[:len(path)] or len(text) - p < 1 << 16
                or text[p:p + 1] not in ("{", "[")):
            try:
                return self.raw(text, p)
            except ParseError:  # a repeated key: walked below, to name its path
                pass
        pairs, end = self.members(p, path)
        if text[p] == "[":
            return [v for _, v in pairs], end
        try:
            return _distinct_keys(pairs), end
        except ParseError as exc:
            where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
            raise ParseError(f"{where.removeprefix('.')}: {exc}" if path else str(exc)) from None

    def members(self, p: int, path: tuple):
        """The (key, value) pairs of the object or array at p, an array's keys
        its indices, and the index past it. Where it is malformed,
        `self.raw(text, p)` scans it again, and raises the C scanner's error."""
        text, close, pairs = self.text, "}" if self.text[p] == "{" else "]", []
        read = self.block if close == "}" and path == _ROUTE else self.value
        q = _WS(text, p + 1).end()
        if text[q:q + 1] == close:
            return pairs, q + 1
        while True:
            key = len(pairs)
            if close == "}":
                key, q = self.raw(text, q) if text[q:q + 1] == '"' else self.raw(text, p)
                q = (_COLON(text, q) or self.raw(text, p)).end()
            value, q = read(q, (*path, key))
            pairs.append((key, value))
            if not (sep := _NEXT(text, q)) or sep[1] not in "," + close:
                self.raw(text, p)
            if sep[1] == close:
                return pairs, sep.end()
            q = sep.end()

    def block(self, p: int, path: tuple):
        """The block at p, its rows read one at a time and converted in
        batches, as a `_Read`; where short or failing, as `value` reads it."""
        text, parts, rows, sep = self.text, [], [], None
        if text[p:p + 1] == "[" and len(text) - p >= 1 << 16:
            try:
                start = _WS(text, p + 1).end()  # of the batch's text
                while not sep or sep[1] == ",":
                    row, q = self.raw(text, sep.end() if sep else start)
                    rows.append(row)
                    sep = _NEXT(text, q)
                    if sep[1] != "," or (len(rows) + 1) * max(1, len(rows[0])) > 1 << 14:
                        # true and false hold a t or an f, a finite number neither
                        bools = text.find("t", start, q) >= 0 or text.find("f", start, q) >= 0
                        parts.append(_block_in(rows, path[-1], bools))
                        rows, start = [], sep.end()
                if sep[1] == "]":
                    return _Read([np.concatenate(parts)]), sep.end()
            except (TypeError, ValueError):  # a fault of any kind, ParseError too:
                pass  # read whole below
        return self.value(p, path)


def load_scenario(path: str) -> Scenario:
    """The scenario of a JSON file, read by `_Reader`. A load peaks at the
    read, the file's bytes beside its text, or at the text beside one batch
    of row objects and the blocks; the text goes before validation."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        if text.startswith("\ufeff"):  # refused as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)",
                                       text, 0)
        data, end = _Reader(text).value(_WS(text, 0).end(), ())
        if (end := _WS(text, end).end()) != len(text):
            raise json.JSONDecodeError("Extra data", text, end)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    del text  # the blocks are built, and validated without it
    return scenario_from_dict(data)


def content_hash(path: str) -> str:
    """The SHA-256 of a file, read in chunks of 64 KiB."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
