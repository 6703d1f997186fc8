"""In-memory spans around ballwalk's layers, and the per-layer metrics they give.

Tracing is installed from the benchmark's own files and changes no source:
every public function of the traced modules is replaced, in each ballwalk
module that binds it, by a wrapper that records a span (name, start, end,
parent).  ``GridOperator.matvec`` and ``GridOperator.tocsr`` are wrapped on
the class.  A few spans also carry counts read from their arguments or
results (cells, matvec kind, solver iterations and residuals, points
evaluated, bytes written), so ratios are measured where the work happens.
"""

import functools
import time

from stats import self_times

LAYERS = ("cli", "config", "pipeline", "landscape", "gridop", "eigen",
          "walk", "potentials", "asympt")

WALK_KINDS = ("WALK_T", "WALK_P")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _points(args, kwargs):
    import numpy as np

    x = np.asarray(_arg(args, kwargs, 1, "x"))
    return {"points": int(x.shape[0]) if x.ndim == 2 else 1}


def _simulate(args, kwargs, out):
    cfg = _arg(args, kwargs, 0, "cfg")
    return {"chain_steps": int(cfg.n_chains) * int(cfg.n_steps),
            "acceptance": float(out.acceptance_rate)}


# span name -> function of (args, kwargs, result) giving the span's counts
_COUNTS = {
    "gridop.GridOperator.matvec": lambda a, k, out: {"kind": a[0].kind},
    "gridop.assemble_walk": lambda a, k, out: {"cells": int(out.n)},
    "gridop.assemble_witten": lambda a, k, out: {"cells": int(out.n)},
    "landscape.persistence_sweep":
        lambda a, k, out: {"cells": int(_arg(a, k, 0, "values").size)},
    "eigen.smallest_eigs": lambda a, k, out: {
        "iterations": int(out.iterations), "solver": out.solver,
        "residuals": [float(r) for r in out.residual_norms]},
    "walk.simulate": _simulate,
    "potentials.value": lambda a, k, out: _points(a, k),
    "potentials.gradient": lambda a, k, out: _points(a, k),
    "potentials.hessian": lambda a, k, out: _points(a, k),
    "cli.write_atomic": lambda a, k, out: {
        "bytes": len(_arg(a, k, 1, "text").encode("utf-8"))},
}


class Tracer:
    """Collects spans of one single-threaded run, in call order."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        counts = _COUNTS.get(name)
        layer = name.split(".", 1)[0]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "parent": stack[-1] if stack else None,
                    "name": name, "layer": layer,
                    "start": time.perf_counter(), "end": None}
            spans.append(span)
            stack.append(span["id"])
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span.update(counts(args, kwargs, out))
            return out

        return traced

    def install(self):
        """Wrap the public functions of every traced ballwalk module."""
        import importlib
        import inspect

        mods = [importlib.import_module(f"ballwalk.{m}") for m in LAYERS]
        for layer, mod in zip(LAYERS, mods):
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for other in mods:
                    for name, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, name, wrapped)
        op_cls = importlib.import_module("ballwalk.gridop").GridOperator
        for meth in ("matvec", "tocsr"):
            setattr(op_cls, meth, self.wrap(f"gridop.GridOperator.{meth}",
                                             getattr(op_cls, meth)))


# per-layer metric name -> unit; the traced run reports exactly these
PER_LAYER = {
    "landscape.label_s": "s",
    "landscape.persistence_s": "s",
    "landscape.critical_s": "s",
    "landscape.label_calls": "count",
    "landscape.cells": "count",
    "landscape.self_s": "s",
    "gridop.assemble_s": "s",
    "gridop.tocsr_s": "s",
    "gridop.walk_matvec_ms": "ms",
    "gridop.witten_matvec_ms": "ms",
    "gridop.matvecs": "count",
    "gridop.matvec_s": "s",
    "gridop.cells": "count",
    "gridop.self_s": "s",
    "eigen.solve_s": "s",
    "eigen.self_s": "s",
    "eigen.solves": "count",
    "eigen.iterations": "count",
    "eigen.max_residual": "norm",
    "walk.simulate_s": "s",
    "walk.ns_per_chain_step": "ns",
    "walk.acceptance": "ratio",
    "walk.proposals": "count",
    "walk.bound_s": "s",
    "walk.self_s": "s",
    "potentials.eval_s": "s",
    "potentials.points": "count",
    "pipeline.self_s": "s",
    "asympt.compare_s": "s",
    "config.load_s": "s",
    "cli.write_s": "s",
    "cli.output_bytes": "bytes",
    "cli.self_s": "s",
    "cli.nondeterministic_fields": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def layer_metrics(spans, untraced_wall_s, nondeterministic_fields):
    """Per-layer metrics of one traced CLI run.

    A layer that does not run on the workload reports 0.  The ``*.self_s``
    metrics and ``potentials.eval_s`` are self times; the other times are
    inclusive span times.  The self times of all spans add up to the traced
    wall time, because the run is single-threaded and every span nests in
    the root ``cli.main`` span.
    """
    selfs = self_times(spans)

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def incl(*names):
        return sum(s["end"] - s["start"] for s in named(*names))

    def layer_self(layer):
        return sum(selfs[s["id"]] for s in spans if s["layer"] == layer)

    def total(key, *names):
        return sum(s[key] for s in named(*names))

    def mean_ms(group):
        return 1e3 * sum(s["end"] - s["start"] for s in group) / len(group) \
            if group else 0.0

    matvecs = named("gridop.GridOperator.matvec")
    solves = named("eigen.smallest_eigs")
    sims = named("walk.simulate")
    # every chain-step ends in exactly one accepted move
    chain_steps = total("chain_steps", "walk.simulate")
    proposals = sum(s["chain_steps"] / s["acceptance"] for s in sims
                    if s["acceptance"] > 0)
    roots = [s for s in spans if s["parent"] is None]
    wall = sum(s["end"] - s["start"] for s in roots)
    m = {
        "landscape.label_s": incl("landscape.label_potential"),
        "landscape.persistence_s": incl("landscape.persistence_sweep"),
        "landscape.critical_s": incl("landscape.find_critical_points"),
        "landscape.label_calls": len(named("landscape.label_potential")),
        "landscape.cells": total("cells", "landscape.persistence_sweep"),
        "landscape.self_s": layer_self("landscape"),
        "gridop.assemble_s": incl("gridop.assemble_walk",
                                  "gridop.assemble_witten", "gridop.to_P"),
        "gridop.tocsr_s": incl("gridop.GridOperator.tocsr"),
        "gridop.walk_matvec_ms":
            mean_ms([s for s in matvecs if s["kind"] in WALK_KINDS]),
        "gridop.witten_matvec_ms":
            mean_ms([s for s in matvecs if s["kind"] not in WALK_KINDS]),
        "gridop.matvecs": len(matvecs),
        "gridop.matvec_s": incl("gridop.GridOperator.matvec"),
        "gridop.cells": total("cells", "gridop.assemble_walk",
                              "gridop.assemble_witten"),
        "gridop.self_s": layer_self("gridop"),
        "eigen.solve_s": incl("eigen.smallest_eigs"),
        "eigen.self_s": layer_self("eigen"),
        "eigen.solves": len(solves),
        "eigen.iterations": sum(s["iterations"] for s in solves),
        "eigen.max_residual": max((max(s["residuals"]) for s in solves),
                                  default=0.0),
        "walk.simulate_s": incl("walk.simulate"),
        "walk.ns_per_chain_step": (1e9 * incl("walk.simulate") / chain_steps
                                   if chain_steps else 0.0),
        "walk.acceptance": chain_steps / proposals if proposals else 0.0,
        "walk.proposals": round(proposals),
        "walk.bound_s": incl("walk.ball_lower_bound"),
        "walk.self_s": layer_self("walk"),
        "potentials.eval_s": layer_self("potentials"),
        "potentials.points": total("points", "potentials.value",
                                   "potentials.gradient", "potentials.hessian"),
        "pipeline.self_s": layer_self("pipeline"),
        "asympt.compare_s": incl("asympt.compare"),
        "config.load_s": incl("config.load"),
        "cli.write_s": incl("cli.write_atomic"),
        "cli.output_bytes": total("bytes", "cli.write_atomic"),
        "cli.self_s": layer_self("cli"),
        "cli.nondeterministic_fields": nondeterministic_fields,
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced_wall_s,
        "trace.spans": len(spans),
    }
    assert set(m) == set(PER_LAYER)
    return m
