"""Declarative run configuration: a JSON document with nested tables.

Schema (version 1), with example values:

    {
      "schema_version": 1,
      "potential": {"dimension": 1, "form": "builtin",
                    "name": "double_well_tilted", "params": [0.3]},
      "box": [[-2.0, 2.0]],
      "dx": 0.002,
      "h": 0.1,                      # or "h_list": [0.15, 0.12, 0.1]
      "operator": "walk",            # spectrum subcommand: walk | witten
      "count": 4,
      "cell_cap": 100000,
      "solver": {"tol": 1e-10, "max_iter": 30000},
      "landscape": {"dx": 0.001, "coarse_spacing": 0.04,
                    "newton_tolerance": 1e-13, "match_radius": 0.02},
      "walk": {"h": 0.25, "n_steps": 2000, "n_chains": 10000, "seed": 7,
               "start": {"well": 2}, "record_every": 5,
               "freeze_exited": false, "estimate_gap": false},
      "output": {"directory": "out", "formats": ["json", "csv"]}
    }

Polynomial potentials replace "name" with
"monomials": [{"exponents": [4], "coefficient": 1.0}, ...].

Only the potential, the box, dx and h (or h_list) are required, and
n_steps and n_chains in a walk table; keys outside the schema are
ignored.  ``parse`` returns the records the runs read: a
``RunConfig`` holding a ``SolverConfig``, a ``LandscapeConfig`` and a
``walk.WalkConfig``.  A key the document leaves out keeps the default of
its record, and each record takes its defaults from the module that uses
the setting.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import eigen, gridop, landscape
from .landscape import COARSE_SPACING, NEWTON_TOLERANCE
from .potentials import Box, PotentialSpec, builtin, polynomial
from .walk import WalkConfig

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    tol: float = eigen.TOL
    max_iter: int = eigen.MAX_ITER


@dataclass(frozen=True)
class LandscapeConfig:
    dx: float                       # the run's dx when the config gives none
    coarse_spacing: float = COARSE_SPACING
    newton_tolerance: float = NEWTON_TOLERANCE
    match_radius: float | None = None


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
    walk: WalkConfig | None = None
    output_dir: str = "out"
    formats: tuple[str, ...] = ("json", "csv")
    cell_cap: int = gridop.CELL_CAP

    @property
    def h(self) -> float:
        return self.h_values[0]


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _get(table: dict, path: str, kind):
    """``kind(table[key])`` for the required last key of ``path``.

    A missing key or a value that is not a JSON value of ``kind`` raises a
    ConfigError naming the key by its full ``path`` ("walk.n_chains").
    """
    key = path.rpartition(".")[2]
    _require(key in table, f"missing {path}")
    return _convert(table[key], kind, path)


_KIND_NAMES = {int: "an integer", float: "a number", bool: "a JSON boolean",
               str: "a string", list: "a list"}
# the JSON values each kind takes: int() and float() would also read strings
# and bools, int() would truncate a fraction, bool() reads any nonempty
# string as true, list() would split a string into characters
_JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,),
               list: (list,)}


def _convert(raw, kind, name: str):
    message = f"{name} must be {_KIND_NAMES[kind]}, got {raw!r}"
    # bool subclasses int: a bool passes only where a bool is wanted
    _require(isinstance(raw, _JSON_TYPES[kind])
             and isinstance(raw, bool) == (kind is bool), message)
    try:
        return kind(raw)
    except OverflowError as exc:        # an integer beyond float range
        raise ConfigError(message) from exc


def _list(raw, kind, name: str) -> list:
    """The JSON list ``raw`` with each entry converted to ``kind``."""
    return [_convert(v, kind, name) for v in _convert(raw, list, name)]


def _options(table: dict, prefix: str, **kinds) -> dict:
    """The keys of ``table`` named in ``kinds``, each converted to its kind.

    Absent keys are left out, so the record built from the result keeps
    its own defaults; a bad value raises a ConfigError naming
    ``prefix + key``.
    """
    return {key: _convert(table[key], kind, prefix + key)
            for key, kind in kinds.items() if key in table}


def _table(doc: dict, key: str) -> dict:
    """The nested table under ``key``, empty when absent."""
    raw = doc.get(key, {})
    _require(isinstance(raw, dict), f"{key} must be a table, got {raw!r}")
    return raw


def _require_grid(box: Box, dx: float, key: str) -> gridop.Grid:
    """The uniform grid of spacing dx, which must tile the box exactly."""
    try:
        return gridop.build_grid(box, dx, cell_cap=math.inf)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _parse_potential(block) -> PotentialSpec:
    _require(isinstance(block, dict), "potential block must be a table")
    form = block.get("form")
    dimension = (_get(block, "potential.dimension", int)
                 if "dimension" in block else None)
    if form == "builtin":
        name = _get(block, "potential.name", str)
        params = _list(block.get("params", []), float, "potential.params")
        try:
            spec = builtin(name, params)
        except KeyError as exc:
            raise ConfigError(
                f"potential.name: unknown builtin {name!r}") from exc
        _require(dimension in (None, spec.dimension),
                 f"builtin {name!r} has dimension {spec.dimension}")
        return spec
    if form == "polynomial":
        mono = []
        for m in _get(block, "potential.monomials", list):
            _require(isinstance(m, dict),
                     f"potential.monomials must hold tables, got {m!r}")
            mono.append((
                _list(_get(m, "potential.monomials.exponents", list), int,
                      "potential.monomials.exponents"),
                _get(m, "potential.monomials.coefficient", float)))
        _require(mono, "potential.monomials must be nonempty")
        try:
            return polynomial(mono, dimension=dimension)
        except ValueError as exc:
            raise ConfigError(f"bad monomials: {exc}") from exc
    raise ConfigError(f"unknown potential form {form!r}")


def _parse_start(raw):
    if raw == "stationary":
        return "stationary"
    if isinstance(raw, dict):
        if "well" in raw:
            return ("well", _get(raw, "walk.start.well", int))
        if "point" in raw:
            return ("point", _list(raw["point"], float, "walk.start.point"))
    raise ConfigError(f"bad start specification {raw!r}")


def _parse_walk(w: dict, spec: PotentialSpec, h: float) -> WalkConfig:
    """The walk block; walk.h defaults to the run's first h."""
    opts = {"h": h, **_options(w, "walk.", h=float, seed=int,
                               record_every=int, freeze_exited=bool,
                               estimate_gap=bool)}
    if "start" in w:
        opts["start"] = _parse_start(w["start"])
    n_steps = _get(w, "walk.n_steps", int)
    n_chains = _get(w, "walk.n_chains", int)
    try:
        return WalkConfig(spec=spec, n_steps=n_steps, n_chains=n_chains,
                          **opts)
    except ValueError as exc:
        # WalkConfig names the bad field first: prefix it to a config key
        raise ConfigError(f"walk.{exc}") from exc


def parse(doc: dict) -> RunConfig:
    _require(isinstance(doc, dict), "config root must be a table")
    version = _get(doc, "schema_version", int)
    _require(version == SCHEMA_VERSION,
             f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    _require("potential" in doc, "missing potential block")
    spec = _parse_potential(doc["potential"])

    pairs = [_list(p, float, "box") for p in _get(doc, "box", list)]
    _require(all(len(p) == 2 for p in pairs),
             f"box must be a list of [lo, hi] pairs, got {doc['box']!r}")
    try:
        box = Box.from_pairs(pairs)
    except ValueError as exc:
        raise ConfigError(f"bad box: {exc}") from exc
    _require(box.dimension == spec.dimension,
             "box dimension does not match the potential")

    dx = _get(doc, "dx", float)
    _require(dx > 0, "dx must be positive")
    grid = _require_grid(box, dx, "dx")

    if "h_list" in doc:
        hs = _list(doc["h_list"], float, "h_list")
        _require(len(hs) >= 1, "h_list must be nonempty")
        _require(all(b < a for a, b in zip(hs, hs[1:])),
                 "h_list must be strictly decreasing")
    elif "h" in doc:
        hs = [_get(doc, "h", float)]
    else:
        raise ConfigError("missing h or h_list")
    min_h = gridop.MIN_H_OVER_DX
    _require(all(h >= min_h * dx for h in hs),
             f"every h must be at least {min_h} dx = {min_h * dx}")

    solver = SolverConfig(**_options(
        _table(doc, "solver"), "solver.", tol=float, max_iter=int))
    _require(solver.tol > 0 and solver.max_iter > 0, "solver values must be positive")

    land = LandscapeConfig(**{"dx": dx, **_options(
        _table(doc, "landscape"), "landscape.", dx=float,
        coarse_spacing=float, newton_tolerance=float, match_radius=float)})
    _require_grid(box, land.dx, "landscape.dx")
    _require(land.coarse_spacing > 0 and land.newton_tolerance > 0,
             "landscape tolerances must be positive")
    seeds = landscape.newton_seed_count(box, land.coarse_spacing)
    _require(seeds <= landscape.CELL_CAP,
             f"landscape.coarse_spacing {land.coarse_spacing} gives a Newton "
             f"seed grid of {seeds:.4g} points, more than the cap of "
             f"{landscape.CELL_CAP}")

    wcfg = None
    if "walk" in doc:
        wcfg = _parse_walk(_table(doc, "walk"), spec, hs[0])
        # simulate sums the walk's balls on the landscape grid
        _require(wcfg.h >= min_h * land.dx,
                 f"walk.h must be at least {min_h} landscape.dx = "
                 f"{min_h * land.dx}, got {wcfg.h}")
        _require(wcfg.start_point is None or box.contains(wcfg.start_point),
                 f"walk.start.point must lie in the box, got "
                 f"{wcfg.start_point}")

    out = _table(doc, "output")
    formats = out.get("formats", RunConfig.formats)
    _require(isinstance(formats, (list, tuple))
             and all(f in ("json", "csv") for f in formats),
             "output formats must be a list of json or csv")

    cfg = RunConfig(
        spec=spec, box=box, dx=dx, h_values=tuple(hs),
        operator=doc.get("operator", RunConfig.operator), solver=solver,
        landscape=land, walk=wcfg,
        output_dir=_convert(out.get("directory", RunConfig.output_dir), str,
                            "output.directory"),
        formats=tuple(formats),
        **_options(doc, "", count=int, cell_cap=int))
    # a solve prepends the exact kernel pair to count - 1 Ritz pairs
    _require(2 <= cfg.count <= 20, "count must be in [2, 20]")
    _require(cfg.count < grid.n_cells,
             f"count must be smaller than the {grid.n_cells} cells of the "
             f"operator grid, got {cfg.count}")
    _require(cfg.operator in ("walk", "witten"),
             "operator must be walk or witten")
    _require(cfg.cell_cap > 0, "cell_cap must be positive")
    return cfg


def load(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse(doc)
