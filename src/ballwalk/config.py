"""Declarative run configuration: a JSON document with nested tables.

Schema (version 1):

    {
      "schema_version": 1,
      "potential": {"dimension": 1, "form": "builtin",
                    "name": "double_well_tilted", "params": [0.3]},
      "box": [[-2.0, 2.0]],
      "dx": 0.002,
      "h": 0.1,                      # or "h_list": [0.15, 0.12, 0.1]
      "operator": "walk",            # spectrum subcommand: walk | witten
      "count": 6,
      "solver": {"tol": 1e-11, "max_iter": 20000, "dense_cutoff": 3000},
      "landscape": {"dx": 0.001, "coarse_spacing": 0.05,
                    "newton_tolerance": 1e-12, "match_radius": 0.05},
      "walk": {"h": 0.25, "n_steps": 2000, "n_chains": 10000, "seed": 1,
               "start": {"well": 2}, "record_every": 5,
               "estimate_gap": false},
      "output": {"directory": "out", "formats": ["json", "csv"]}
    }

Polynomial potentials replace "name" with
"monomials": [{"exponents": [4], "coefficient": 1.0}, ...].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import gridop
from .potentials import Box, PotentialSpec, builtin, polynomial

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-11
    max_iter: int = 20000
    dense_cutoff: int = 3000


@dataclass(frozen=True)
class LandscapeConfig:
    dx: float                       # the run's dx when the config gives none
    coarse_spacing: float = 0.05
    newton_tolerance: float = 1e-12
    match_radius: float | None = None


@dataclass(frozen=True)
class WalkBlock:
    h: float
    n_steps: int
    n_chains: int
    seed: int
    start: object
    record_every: int = 1
    estimate_gap: bool = False
    freeze_exited: bool = False


@dataclass(frozen=True)
class RunConfig:
    spec: PotentialSpec
    box: Box
    dx: float
    h_values: tuple[float, ...]
    landscape: LandscapeConfig
    operator: str = "walk"
    count: int = 6
    solver: SolverConfig = field(default_factory=SolverConfig)
    walk: WalkBlock | None = None
    output_dir: str = "out"
    formats: tuple[str, ...] = ("json", "csv")
    cell_cap: int = 300_000

    @property
    def h(self) -> float:
        return self.h_values[0]


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


_REQUIRED = object()


def _get(table: dict, path: str, kind, default=_REQUIRED):
    """``kind(table[key])`` for the last key of ``path``, or ``default``.

    A missing required key or a value ``kind`` cannot convert raises a
    ConfigError naming the key by its full ``path`` ("walk.n_chains").
    """
    key = path.rpartition(".")[2]
    if key not in table:
        if default is _REQUIRED:
            raise ConfigError(f"missing {path}")
        return default
    return _convert(table[key], kind, path)


def _convert(raw, kind, name: str):
    try:
        return kind(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(
            f"{name} must be {'an integer' if kind is int else 'a number'}, "
            f"got {raw!r}") from exc


def _table(doc: dict, key: str) -> dict:
    """The nested table under ``key``, empty when absent."""
    raw = doc.get(key, {})
    _require(isinstance(raw, dict), f"{key} must be a table, got {raw!r}")
    return raw


def _require_grid(box: Box, dx: float, key: str) -> None:
    """The uniform grid of spacing dx must tile the box exactly."""
    try:
        gridop.build_grid(box, dx, cell_cap=math.inf)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _parse_potential(block) -> PotentialSpec:
    _require(isinstance(block, dict), "potential block must be a table")
    form = block.get("form")
    params = block.get("params", [])
    if form == "builtin":
        _require("name" in block, "builtin potential needs a name")
        try:
            spec = builtin(block["name"], params)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        if "dimension" in block:
            _require(_get(block, "potential.dimension", int)
                     == spec.dimension,
                     f"builtin {block['name']!r} has dimension {spec.dimension}")
        return spec
    if form == "polynomial":
        _require("monomials" in block, "polynomial potential needs monomials")
        try:
            mono = [(m["exponents"], m["coefficient"])
                    for m in block["monomials"]]
            return polynomial(mono, dimension=block.get("dimension"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad monomials: {exc}") from exc
    raise ConfigError(f"unknown potential form {form!r}")


def _parse_start(raw):
    if raw == "stationary":
        return "stationary"
    if isinstance(raw, dict):
        if "well" in raw:
            return ("well", _get(raw, "walk.start.well", int))
        if "point" in raw:
            point = raw["point"]
            _require(isinstance(point, list),
                     f"walk.start.point must be a list, got {point!r}")
            return ("point", [_convert(v, float, "walk.start.point")
                              for v in point])
    raise ConfigError(f"bad start specification {raw!r}")


def parse(doc: dict) -> RunConfig:
    _require(isinstance(doc, dict), "config root must be a table")
    version = doc.get("schema_version")
    _require(version == SCHEMA_VERSION,
             f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    _require("potential" in doc, "missing potential block")
    spec = _parse_potential(doc["potential"])

    _require("box" in doc, "missing box")
    try:
        box = Box.from_pairs(doc["box"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad box: {exc}") from exc
    _require(box.dimension == spec.dimension,
             "box dimension does not match the potential")

    dx = _get(doc, "dx", float)
    _require(dx > 0, "dx must be positive")
    _require_grid(box, dx, "dx")

    if "h_list" in doc:
        raw = doc["h_list"]
        _require(isinstance(raw, list), f"h_list must be a list, got {raw!r}")
        hs = [_convert(v, float, "h_list") for v in raw]
        _require(len(hs) >= 1, "h_list must be nonempty")
        _require(all(b < a for a, b in zip(hs, hs[1:])),
                 "h_list must be strictly decreasing")
    elif "h" in doc:
        hs = [_get(doc, "h", float)]
    else:
        raise ConfigError("missing h or h_list")
    _require(all(h >= 8 * dx for h in hs),
             f"every h must be at least 8 dx = {8 * dx}")

    solver_raw = _table(doc, "solver")
    solver = SolverConfig(
        tol=_get(solver_raw, "solver.tol", float, 1e-11),
        max_iter=_get(solver_raw, "solver.max_iter", int, 20000),
        dense_cutoff=_get(solver_raw, "solver.dense_cutoff", int, 3000),
    )
    _require(solver.tol > 0 and solver.max_iter > 0, "solver values must be positive")

    land_raw = _table(doc, "landscape")
    land = LandscapeConfig(
        dx=_get(land_raw, "landscape.dx", float, dx),
        coarse_spacing=_get(land_raw, "landscape.coarse_spacing", float, 0.05),
        newton_tolerance=_get(land_raw, "landscape.newton_tolerance", float,
                              1e-12),
        match_radius=_get(land_raw, "landscape.match_radius", float, None),
    )
    _require_grid(box, land.dx, "landscape.dx")
    _require(land.coarse_spacing > 0 and land.newton_tolerance > 0,
             "landscape tolerances must be positive")

    wblock = None
    if "walk" in doc:
        w = _table(doc, "walk")
        wblock = WalkBlock(
            h=_get(w, "walk.h", float, hs[0]),
            n_steps=_get(w, "walk.n_steps", int),
            n_chains=_get(w, "walk.n_chains", int),
            seed=_get(w, "walk.seed", int, 1),
            start=_parse_start(w.get("start", "stationary")),
            record_every=_get(w, "walk.record_every", int, 1),
            estimate_gap=bool(w.get("estimate_gap", False)),
            freeze_exited=bool(w.get("freeze_exited", False)),
        )
        _require(wblock.n_steps >= 1 and wblock.n_chains >= 1
                 and wblock.record_every >= 1,
                 "walk sizes must be positive")

    out = _table(doc, "output")
    formats = out.get("formats", ["json", "csv"])
    _require(isinstance(formats, list)
             and all(f in ("json", "csv") for f in formats),
             "output formats must be a list of json or csv")
    formats = tuple(formats)

    count = _get(doc, "count", int, 6)
    _require(1 <= count <= 20, "count must be in [1, 20]")
    operator = doc.get("operator", "walk")
    _require(operator in ("walk", "witten"), "operator must be walk or witten")

    cell_cap = _get(doc, "cell_cap", int, 300_000)
    _require(cell_cap > 0, "cell_cap must be positive")

    return RunConfig(
        spec=spec, box=box, dx=dx, h_values=tuple(hs), operator=operator,
        count=count, solver=solver, landscape=land, walk=wblock,
        output_dir=str(out.get("directory", "out")), formats=formats,
        cell_cap=cell_cap,
    )


def load(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse(doc)
