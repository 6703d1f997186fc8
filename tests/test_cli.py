import dataclasses
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import ballwalk
from ballwalk import (asympt, cli, config, eigen, gridop, landscape, pipeline,
                      potentials, symbols)
from ballwalk import walk
from ballwalk.cli import to_json


REPO = Path(__file__).resolve().parent.parent

BASE_1D = {
    "schema_version": 1,
    "potential": {"dimension": 1, "form": "builtin",
                  "name": "double_well_tilted", "params": [0.3]},
    "box": [[-2.0, 2.0]],
    "dx": 0.01,
    "h": 0.15,
    "count": 5,
    "landscape": {"dx": 0.002},
    "output": {"directory": "out", "formats": ["json", "csv"]},
}


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "ballwalk.cli", *args],
                          capture_output=True, text=True, env=env)


# --- config parsing -------------------------------------------------------------


def test_config_roundtrip(tmp_path):
    cfg = config.load(write_cfg(tmp_path, BASE_1D))
    assert cfg.spec.name == "double_well_tilted"
    assert cfg.h == 0.15
    assert cfg.box.dimension == 1


@pytest.mark.parametrize("path", sorted(
    str(p.relative_to(REPO)) for d in ("configs", "bench/workloads")
    for p in (REPO / d).glob("*.json")))
def test_shipped_config_loads(path):
    # the benchmark's workloads are fixed inputs, so a schema change must
    # keep every one of them parsing; keys outside the schema, such as
    # their solver.dense_cutoff, are ignored
    config.load(REPO / path)


def test_config_rejects_bad_schema(tmp_path):
    doc = dict(BASE_1D)
    doc["schema_version"] = 99
    with pytest.raises(config.ConfigError):
        config.load(write_cfg(tmp_path, doc))


def test_config_rejects_increasing_h_list(tmp_path):
    doc = dict(BASE_1D)
    doc.pop("h")
    doc["h_list"] = [0.1, 0.15]
    with pytest.raises(config.ConfigError):
        config.load(write_cfg(tmp_path, doc))


def test_config_rejects_small_h(tmp_path):
    doc = dict(BASE_1D)
    doc["h"] = 0.05   # < 8 dx
    with pytest.raises(config.ConfigError):
        config.load(write_cfg(tmp_path, doc))


def test_config_polynomial(tmp_path):
    doc = dict(BASE_1D)
    doc["potential"] = {"form": "polynomial",
                        "monomials": [{"exponents": [2], "coefficient": 1.0}]}
    cfg = config.load(write_cfg(tmp_path, doc))
    assert cfg.spec.form == "polynomial"


@pytest.mark.parametrize("changes, message", [
    # a solve needs one pair beside the kernel, and fewer pairs than cells
    ({("count",): 1}, "count must be in [2, 20]"),
    ({("dx",): 0.5, ("h",): 4.0, ("count",): 8},
     "count must be smaller than the 8 cells of the operator grid"),
    # the walk is assembled on the landscape grid, dx 0.002 here
    ({("walk", "h"): 0.01}, "walk.h must be at least 8 landscape.dx"),
    ({("walk", "h"): 0}, "walk.h must be at least 8 landscape.dx"),
    ({("walk", "h"): -0.25}, "walk.h must be at least 8 landscape.dx"),
    # a start outside the box [-2, 2] would never reach a well
    ({("walk", "start"): {"point": [5.0]}},
     "walk.start.point must lie in the box"),
])
def test_run_shape_checked_at_parse(changes, message):
    doc = shipped_config("simulate_1d.json")
    for path, value in changes.items():
        table = doc
        for part in path[:-1]:
            table = table[part]
        table[path[-1]] = value
    with pytest.raises(config.ConfigError, match=re.escape(message)):
        config.parse(doc)


@pytest.mark.parametrize("n_steps", [walk._INIT_STEP, 2**63])
def test_step_count_below_the_start_stream(n_steps):
    # step 2^40 - 1 would read the stream that drew the start positions
    doc = shipped_config("simulate_1d.json")
    doc["walk"]["n_steps"] = n_steps
    with pytest.raises(config.ConfigError,
                       match=re.escape(f"walk.n_steps must be below "
                                       f"{walk._INIT_STEP}")):
        config.parse(doc)
    # one record every n_steps keeps the occupation table at 2 rows, under
    # walk.MAX_RECORD_ROWS
    doc["walk"].update(n_steps=walk._INIT_STEP - 1,
                       record_every=walk._INIT_STEP - 1)
    assert config.parse(doc).walk.n_steps == walk._INIT_STEP - 1


def test_occupation_rows_capped_at_parse(tmp_path, capsys):
    # 2^39 steps, each recorded, would list 2^39 + 1 occupation rows: the
    # run is refused with exit 2 before anything is allocated
    doc = shipped_config("simulate_1d.json")
    doc["walk"].update(n_steps=2 ** 39, record_every=1)
    with pytest.raises(config.ConfigError, match=re.escape(
            f"walk.record_every 1 with n_steps {2 ** 39} records "
            f"{2 ** 39 + 1} occupation rows, more than the cap of "
            f"{walk.MAX_RECORD_ROWS}: raise record_every")):
        config.parse(doc)
    out = tmp_path / "out"
    assert cli.main(["simulate", write_cfg(tmp_path, doc),
                     "--output-dir", str(out)]) == 2
    assert "config error: walk.record_every 1" in capsys.readouterr().err
    assert not out.exists()
    # rows at 0, every 7th step and the last: the cap parses, one more not
    cap = walk.MAX_RECORD_ROWS
    doc["walk"].update(n_steps=7 * (cap - 1), record_every=7)
    assert config.parse(doc).walk.n_steps == 7 * (cap - 1)
    doc["walk"]["n_steps"] += 1
    with pytest.raises(config.ConfigError, match=f"records {cap + 1} "):
        config.parse(doc)


def test_chain_count_capped_at_parse(tmp_path, capsys):
    # 1e11 chains would need 745 GiB for their start positions alone
    doc = shipped_config("simulate_1d.json")
    doc["walk"]["n_chains"] = 10 ** 11
    message = (f"walk.n_chains must be at most {walk.MAX_CHAINS}, the chains "
               f"the sampler's memory budget holds, got {10 ** 11}")
    with pytest.raises(config.ConfigError, match=re.escape(message)):
        config.parse(doc)
    out = tmp_path / "out"
    assert cli.main(["simulate", write_cfg(tmp_path, doc),
                     "--output-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    # the cap parses, and so does the largest Tier-1 run's count
    for n_chains in (walk.MAX_CHAINS, 20_000):
        doc["walk"]["n_chains"] = n_chains
        assert config.parse(doc).walk.n_chains == n_chains
    doc["walk"]["n_chains"] = walk.MAX_CHAINS + 1
    with pytest.raises(config.ConfigError, match="walk.n_chains must be"):
        config.parse(doc)


def test_newton_seed_grid_capped_at_parse():
    # 4e9 seeds on [-2, 2] are refused before any of them is allocated
    doc = dict(BASE_1D, landscape={"dx": 0.002, "coarse_spacing": 1e-9})
    with pytest.raises(config.ConfigError,
                       match="landscape.coarse_spacing 1e-09 gives a Newton "
                             "seed grid of 4e[+]09 points"):
        config.parse(doc)
    assert landscape.newton_seed_count(
        potentials.Box.from_pairs(BASE_1D["box"]), 0.05) == 80


def test_json_serializer_17_digits():
    assert to_json(0.1) == "0.10000000000000001"
    assert float(to_json(1.0 / 3.0)) == 1.0 / 3.0
    assert to_json(float("inf")) == '"inf"'
    assert to_json({"a": [1, 2.5]}) == '{\n  "a": [1, 2.5]\n}'


# --- subcommands ------------------------------------------------------------------


def test_malformed_config_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli(["landscape", str(bad)])
    assert r.returncode == 2
    assert "config error" in r.stderr


def test_landscape_command(tmp_path):
    cfgp = write_cfg(tmp_path, BASE_1D)
    out = tmp_path / "out"
    r = run_cli(["landscape", cfgp, "--output-dir", str(out)])
    assert r.returncode == 0
    doc = json.loads((out / "landscape.json").read_text())
    assert list(doc.keys())[:5] == ["critical_points", "pairs", "n0", "n1",
                                    "warnings"]
    assert doc["n0"] == 2
    assert doc["n1"] == 1
    assert doc["pairs"][0]["S"] == "inf"
    # degenerate points stop the run, so the gap is always above tolerance
    assert (doc["hypotheses"]["min_hessian_spectral_gap"]
            > potentials.MORSE_TOLERANCE)
    assert "morse_ok" not in doc["hypotheses"]


def test_landscape_single_well(tmp_path):
    doc = dict(BASE_1D)
    doc["potential"] = {"dimension": 1, "form": "builtin",
                        "name": "single_well"}
    cfgp = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    r = run_cli(["landscape", cfgp, "--output-dir", str(out)])
    assert r.returncode == 0
    rep = json.loads((out / "landscape.json").read_text())
    assert rep["n0"] == 1 and rep["n1"] == 0


def test_spectrum_command(tmp_path):
    cfgp = write_cfg(tmp_path, BASE_1D)
    out = tmp_path / "out"
    r = run_cli(["spectrum", cfgp, "--output-dir", str(out)])
    assert r.returncode == 0, r.stderr
    doc = json.loads((out / "spectrum.json").read_text())
    assert doc["kind"] == "WALK_P"
    assert doc["n_small"] == 2
    assert doc["eigenvalues"][0] <= 1e-12
    assert doc["solver"] == "LANCZOS"


def test_predict_command(tmp_path):
    cfgp = write_cfg(tmp_path, BASE_1D)
    out = tmp_path / "out"
    r = run_cli(["predict", cfgp, "--output-dir", str(out)])
    assert r.returncode == 0
    doc = json.loads((out / "predict.json").read_text())
    k1 = doc["predictions"][0]
    assert k1["flag"] == "simple eigenvalue"
    assert k1["gaps"][0]["walk"] == 0
    k2 = doc["predictions"][1]
    assert k2["gaps"][0]["walk"] > 0


def test_simulate_command(tmp_path):
    doc = dict(BASE_1D)
    doc["dx"] = 0.002
    doc["h"] = 0.25
    doc["walk"] = {"h": 0.25, "n_steps": 60, "n_chains": 500, "seed": 7,
                   "start": {"well": 2}, "record_every": 10}
    cfgp = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    r = run_cli(["simulate", cfgp, "--output-dir", str(out)])
    assert r.returncode == 0, r.stderr
    csv = (out / "simulate.csv").read_text().splitlines()
    assert csv[0] == "step,well_1_fraction,well_2_fraction"
    assert len(csv) >= 8
    doc = json.loads((out / "simulate.json").read_text())
    assert 0 < doc["acceptance_rate"] <= 1


def test_simulate_single_exit_has_no_ci(tmp_path):
    # one chain of 200 leaves well 2 in 20 steps: a standard error needs two
    doc = dict(BASE_1D, dx=0.002)
    doc["walk"] = {"h": 0.25, "n_steps": 20, "n_chains": 200, "seed": 7,
                   "start": {"well": 2}, "record_every": 10}
    out = tmp_path / "out"
    r = run_cli(["simulate", write_cfg(tmp_path, doc), "--output-dir",
                 str(out)])
    assert r.returncode == 0, r.stderr
    assert "RuntimeWarning" not in r.stderr
    doc = json.loads((out / "simulate.json").read_text())
    assert doc["exit_time_mean"] is not None
    assert doc["exit_time_ci"] is None


def test_sweep_command_and_determinism(tmp_path):
    doc = dict(BASE_1D)
    doc["dx"] = 0.005
    doc.pop("h")
    doc["h_list"] = [0.3, 0.25, 0.2, 0.15]
    doc["landscape"] = {"dx": 0.002}
    cfgp = write_cfg(tmp_path, doc)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    r1 = run_cli(["sweep", cfgp, "--output-dir", str(out1)],
                 env_extra={"OPENBLAS_NUM_THREADS": "1",
                            "OMP_NUM_THREADS": "1"})
    assert r1.returncode == 0, r1.stderr
    r2 = run_cli(["sweep", cfgp, "--output-dir", str(out2)],
                 env_extra={"OPENBLAS_NUM_THREADS": "4",
                            "OMP_NUM_THREADS": "4"})
    assert r2.returncode == 0, r2.stderr
    # byte-identical data outputs at different thread settings
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "sweep.json").read_bytes() == (out2 / "sweep.json").read_bytes()
    header = (out1 / "sweep.csv").read_text().splitlines()[0]
    assert header == ("h,dx,k,measured_gap,predicted_gap,ratio,"
                      "witten_gap,witten_ratio")
    # one telemetry entry per (h, operator), in the sidecar only
    meta = json.loads((out1 / "sweep_metadata.json").read_text())
    solves = meta["solves"]
    assert [(e["h"], e["operator"]) for e in solves] == [
        (h, op) for h in doc["h_list"] for op in ("walk", "witten")]
    rows = {}
    for line in (out1 / "sweep.csv").read_text().splitlines()[1:]:
        h, _, k, measured, _, _, witten, _ = line.split(",")
        rows[float(h)] = (float(measured), float(witten))
    n0 = 2                  # the tilted double well: the fit's k runs to 2
    assert int(k) == n0
    # the same solves in this process, for their eigenvalues
    run = pipeline.run_sweep(config.load(cfgp))
    runs = [r for pair in zip(run.walk_runs, run.witten_runs) for r in pair]
    for e, r in zip(solves, runs):
        # walks take Lanczos, Gram Laplacians shift-invert
        assert e["solver"] == {"walk": "LANCZOS",
                               "witten": "SHIFT_INVERT"}[e["operator"]]
        assert e["iterations"] > 0
        assert e["max_residual"] == max(r.result.residual_norms)
        # shift-invert bounds each residual by tol (1 + |lambda|), Lanczos
        # by tol |lambda| plus rounding, and the walk eigenvalues are below 1
        for lam, rn in zip(r.result.eigenvalues, r.result.residual_norms):
            assert 0 <= rn <= e["tol"] * (1.0 + abs(lam))
        assert e["max_residual_over_bound"] == max(
            rn / (e["tol"] * (1.0 + abs(lam)))
            for lam, rn in zip(r.result.eigenvalues, r.result.residual_norms))
        assert e["max_residual_over_bound"] <= 1.0
        if e["operator"] == "walk":
            assert e["max_residual"] <= e["tol"]
        # the split after the n0 wells, whatever its ratio
        lam = r.result.eigenvalues
        assert e["split_ratio"] == lam[n0] / max(lam[n0 - 1], eigen.EIG_FLOOR)
        assert e["remainder_over_h"] == lam[n0] / e["h"]
        assert "n_small" not in e
        assert e["seconds"] > 0
    assert "solves" not in json.loads((out1 / "sweep.json").read_text())


def test_sweep_sidecar_reports_cluster_size(tmp_path):
    # every solve of the shipped 1D sweep splits its two-well cluster off
    # by more than three orders of magnitude
    out = tmp_path / "out"
    rc = cli.main(["sweep", str(REPO / "configs" / "benchmark_1d.json"),
                   "--output-dir", str(out)])
    assert rc == 0
    solves = json.loads((out / "sweep_metadata.json").read_text())["solves"]
    assert len(solves) == 10
    assert all(e["split_ratio"] >= 1e3 for e in solves), solves


def test_sidecar_residual_over_bound(tmp_path):
    # shift-invert meets tol (1 + |lambda|), not tol: on this grid its pair
    # near lambda = 2.1 has a residual above tol, and the sidecar's ratio
    # to the bound shows the solve healthy all the same
    doc = dict(BASE_1D, operator="witten", dx=0.005, h=0.2)
    out = tmp_path / "out"
    assert cli.main(["spectrum", write_cfg(tmp_path, doc),
                     "--output-dir", str(out)]) == 0
    data = json.loads((out / "spectrum.json").read_text())
    meta = json.loads((out / "spectrum_metadata.json").read_text())
    assert meta["max_residual"] > meta["tol"]
    assert meta["max_residual_over_bound"] == max(
        r / (meta["tol"] * (1.0 + abs(lam)))
        for lam, r in zip(data["eigenvalues"], data["residuals"]))
    assert 0 < meta["max_residual_over_bound"] <= 1.0
    assert "max_residual_over_bound" not in data


def _scipy_modules_after(code, *argv):
    """The scipy.ndimage and scipy.special that ``code`` leaves loaded."""
    code += ("\nprint(*(m for m in ('scipy.ndimage', 'scipy.special')"
             " if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, *argv],
                         capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_startup_skips_ndimage_and_special():
    assert _scipy_modules_after("import sys, ballwalk.cli") == []


def test_package_import_loads_nothing_numerical():
    # the command line pins the BLAS threads before numpy loads, which
    # works only while importing the package itself loads nothing numerical
    code = ("import sys, ballwalk\nprint(*(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == []
    r = run_cli(["--version"])
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == f"ballwalk {ballwalk.__version__}"


def test_1d_runs_skip_ndimage(tmp_path):
    run = ("import sys\nfrom ballwalk import cli\n"
           "assert cli.main(sys.argv[1:]) == 0")
    doc = dict(BASE_1D, dx=0.005, h_list=[0.3, 0.25, 0.2, 0.15])
    doc.pop("h")
    loaded = _scipy_modules_after(run, "sweep", write_cfg(tmp_path, doc),
                                  "--output-dir", str(tmp_path / "sweep"))
    assert "scipy.ndimage" not in loaded
    doc = dict(BASE_1D, dx=0.002)
    doc["walk"] = {"h": 0.25, "n_steps": 20, "n_chains": 200, "seed": 7,
                   "start": {"well": 2}, "record_every": 10}
    loaded = _scipy_modules_after(run, "simulate", write_cfg(tmp_path, doc),
                                  "--output-dir", str(tmp_path / "sim"))
    assert "scipy.ndimage" not in loaded


def shipped_config(name):
    path = os.path.join(os.path.dirname(__file__), "..", "configs", name)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_short_sweep_fails_fast(tmp_path):
    # three h values cannot feed a rate fit; the shipped 2D config once
    # computed for over a minute before failing on exactly this
    doc = shipped_config("benchmark_2d.json")
    doc["h_list"] = doc["h_list"][-3:]
    cfgp = write_cfg(tmp_path, doc)
    t0 = time.perf_counter()
    r = run_cli(["sweep", cfgp, "--output-dir", str(tmp_path / "out")])
    assert r.returncode == 2, r.stderr
    assert time.perf_counter() - t0 < 2.0
    assert "at least 4 h values" in r.stderr
    assert not (tmp_path / "out").exists()


def test_spectrum_metadata_carries_run_fields(tmp_path):
    doc = dict(BASE_1D)
    cfgp = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    r = run_cli(["spectrum", cfgp, "--output-dir", str(out)])
    assert r.returncode == 0, r.stderr
    data = json.loads((out / "spectrum.json").read_text())
    assert "seconds" not in data
    meta = json.loads((out / "spectrum_metadata.json").read_text())
    assert meta["seconds"] > 0
    assert 0 <= meta["boundary_mass"] < 1e-3
    assert meta["iterations"] > 0            # Krylov applies
    assert meta["solver"] == data["solver"] == "LANCZOS"
    assert meta["max_residual"] == max(data["residuals"])
    assert 0 < meta["max_residual"] <= meta["tol"]
    assert meta["split_ratio"] >= 1e3
    assert meta["remainder_over_h"] == data["next_eigenvalue"] / data["h"]
    assert "shift" not in meta and "factor_nnz" not in meta


def test_simulate_metadata_carries_sampler_fields(tmp_path):
    doc = dict(BASE_1D, dx=0.002)
    doc["walk"] = {"h": 0.25, "n_steps": 40, "n_chains": 400, "seed": 21,
                   "start": {"well": 2}, "record_every": 10}
    cfgp = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    r = run_cli(["simulate", cfgp, "--output-dir", str(out)])
    assert r.returncode == 0, r.stderr
    data = json.loads((out / "simulate.json").read_text())
    meta = json.loads((out / "simulate_metadata.json").read_text())
    assert meta["acceptance_rate"] == data["acceptance_rate"]
    assert meta["rejection_rounds_max"] >= 2
    assert 1.0 <= meta["rejection_rounds_mean"] <= meta["rejection_rounds_max"]
    assert meta["bound_violations"] == 0
    # 400 chains are too few to split, so the walk ran in this process
    assert meta["workers"] == 1
    assert meta["ns_per_chain_step"] > 0
    for key in ("rejection_rounds_max", "rejection_rounds_mean",
                "bound_violations", "workers", "ns_per_chain_step"):
        assert key not in data


def test_simulate_1d_meets_the_benchmark_check(tmp_path):
    # the shipped simulate config within the bounds its benchmark check
    # holds it to, so a sampler change that check refuses fails here first
    out = tmp_path / "out"
    assert cli.main(["simulate", str(REPO / "configs" / "simulate_1d.json"),
                     "--output-dir", str(out)]) == 0
    data = json.loads((out / "simulate.json").read_text())
    meta = json.loads((out / "simulate_metadata.json").read_text())
    final = [float(v) for v in
             (out / "simulate.csv").read_text().splitlines()[-1].split(",")]
    assert abs(data["acceptance_rate"] - 0.4791) <= 0.01
    assert meta["bound_violations"] == 0
    assert abs(final[1] - 0.1015) <= 0.03 and abs(final[2] - 0.8985) <= 0.03
    # every chain stayed within the padded grid of bounded cells
    assert meta["bound_cells"] > 0 and meta["bound_fallbacks"] == 0


def test_ns_per_chain_step_counts_moves_made(tmp_path, monkeypatch):
    # with freeze_exited a chain stops at its exit step, so the sampler
    # advances far fewer chain-steps than n_chains x n_steps; the sidecar's
    # figure divides the walk's seconds by the chain-steps it advanced
    runs = []
    run_simulation = pipeline.run_simulation

    def one_second(cfg):
        runs.append(dataclasses.replace(run_simulation(cfg), seconds=1.0))
        return runs[-1]

    monkeypatch.setattr(pipeline, "run_simulation", one_second)
    doc = shipped_config("simulate_1d.json")
    doc["walk"].update(h=0.5, n_chains=400, freeze_exited=True)
    out = tmp_path / "out"
    assert cli.main(["simulate", write_cfg(tmp_path, doc),
                     "--output-dir", str(out)]) == 0
    exits = runs[0].trace.first_exit_steps
    moves = int(np.where(exits > 0, exits, doc["walk"]["n_steps"]).sum())
    assert moves < 400 * doc["walk"]["n_steps"] // 2
    meta = json.loads((out / "simulate_metadata.json").read_text())
    assert meta["ns_per_chain_step"] == 1e9 / moves
    assert runs[0].trace.chain_steps == moves


def test_only_simulate_builds_the_well_partition(tmp_path, monkeypatch):
    # the merge-level partition says which well a cell is in, which only the
    # sampler asks; landscape, predict and sweep read the pairs alone
    builds = []
    partition = landscape._merge_level_partition

    def counted(*args):
        builds.append(1)
        return partition(*args)

    monkeypatch.setattr(landscape, "_merge_level_partition", counted)
    sweep = dict(BASE_1D, dx=0.005, h_list=[0.3, 0.25, 0.2, 0.15])
    del sweep["h"]
    simulate = dict(BASE_1D, dx=0.002)
    simulate["walk"] = {"h": 0.25, "n_steps": 5, "n_chains": 50,
                        "start": {"well": 2}}
    for command, doc, partitions in (("landscape", BASE_1D, 0),
                                     ("predict", BASE_1D, 0),
                                     ("sweep", sweep, 0),
                                     ("simulate", simulate, 1)):
        assert cli.main([command, write_cfg(tmp_path, doc, f"{command}.json"),
                         "--output-dir", str(tmp_path / command)]) == 0
        assert len(builds) == partitions, command
        builds.clear()


def test_each_grid_sampled_once(tmp_path, monkeypatch):
    # the labeling and both operators are built from samples of phi, so a
    # sweep samples its operator grid (which it assembles the walk on before
    # it labels) and its landscape grid once each, whatever its h list, and
    # simulate samples its one grid once
    grids = {g.n_cells: g.points() for g in (
        gridop.build_grid(potentials.Box.from_pairs(BASE_1D["box"]), dx)
        for dx in (0.002, 0.005))}
    sampled = []
    value = potentials.value

    def spied(spec, x):
        x = np.asarray(x)
        if (x.ndim == 2 and x.shape[0] in grids
                and np.array_equal(x, grids[x.shape[0]])):
            sampled.append(x.shape[0])
        return value(spec, x)

    monkeypatch.setattr(potentials, "value", spied)
    sweep = dict(BASE_1D, dx=0.005, h_list=[0.3, 0.25, 0.2, 0.15])
    del sweep["h"]
    simulate = dict(BASE_1D, dx=0.002)
    simulate["walk"] = {"h": 0.25, "n_steps": 5, "n_chains": 50,
                        "start": {"well": 2}}
    for command, doc, cells in (("sweep", sweep, [800, 2000]),
                                ("simulate", simulate, [2000])):
        assert cli.main([command, write_cfg(tmp_path, doc, f"{command}.json"),
                         "--output-dir", str(tmp_path / command)]) == 0
        assert sampled == cells, command
        sampled.clear()


def test_walk_sidecars_carry_boundary_mass(tmp_path):
    # every walk a run solves or samples reports its stationary mass within
    # one jump of the box edge; spectrum's sidecar keeps its keys
    def mass_ok(m):
        return math.isfinite(m) and 0.0 <= m <= 1.0

    def sidecar(command, doc):
        out = tmp_path / command
        assert cli.main([command, write_cfg(tmp_path, doc, f"{command}.json"),
                         "--output-dir", str(out)]) == 0
        return json.loads((out / f"{command}_metadata.json").read_text())

    meta = sidecar("spectrum", BASE_1D)
    assert list(meta) == [
        "tool", "created_unix", "boundary_mass", "solver", "iterations",
        "max_residual", "tol", "max_residual_over_bound", "split_ratio",
        "remainder_over_h", "seconds", "matvec_processes"]
    assert mass_ok(meta["boundary_mass"])
    assert meta["matvec_processes"] == 1        # a 1D walk
    doc = dict(BASE_1D, dx=0.005, h_list=[0.3, 0.25, 0.2, 0.15])
    doc.pop("h")
    for e in sidecar("sweep", doc)["solves"]:
        if e["operator"] == "walk":
            assert mass_ok(e["boundary_mass"])
        else:
            assert e["boundary_mass"] is None
    doc = dict(BASE_1D, dx=0.002)
    doc["walk"] = {"h": 0.25, "n_steps": 20, "n_chains": 200, "seed": 7,
                   "record_every": 10}
    assert mass_ok(sidecar("simulate", doc)["boundary_mass"])


def test_spectrum_witten_shift_invert(tmp_path):
    doc = dict(BASE_1D, operator="witten", dx=0.004)
    cfgp = write_cfg(tmp_path, doc)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        r = run_cli(["spectrum", cfgp, "--output-dir", str(out)])
        assert r.returncode == 0, r.stderr
    data = json.loads((outs[0] / "spectrum.json").read_text())
    assert data["solver"] == "SHIFT_INVERT"
    assert data["kind"] == "WITTEN0"
    assert data["n_small"] == 2 and "n0_expected" not in data
    assert ((outs[0] / "spectrum.json").read_bytes()
            == (outs[1] / "spectrum.json").read_bytes())
    meta = json.loads((outs[0] / "spectrum_metadata.json").read_text())
    assert 0 < meta["iterations"] < 100
    assert meta["solver"] == "SHIFT_INVERT"
    assert meta["max_residual"] == max(data["residuals"])
    assert meta["shift"] < 0
    assert meta["factor_nnz"] >= 1000
    assert meta["split_ratio"] >= 1e3


def test_simulate_determinism_across_threads(tmp_path):
    doc = dict(BASE_1D)
    doc["dx"] = 0.002
    doc["walk"] = {"h": 0.25, "n_steps": 40, "n_chains": 400, "seed": 21,
                   "start": {"well": 2}, "record_every": 10}
    cfgp = write_cfg(tmp_path, doc)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    r1 = run_cli(["simulate", cfgp, "--output-dir", str(out1)],
                 env_extra={"OMP_NUM_THREADS": "1"})
    r2 = run_cli(["simulate", cfgp, "--output-dir", str(out2)],
                 env_extra={"OMP_NUM_THREADS": "4"})
    assert r1.returncode == 0 and r2.returncode == 0
    assert (out1 / "simulate.csv").read_bytes() == (out2 / "simulate.csv").read_bytes()
    assert (out1 / "simulate.json").read_bytes() == (out2 / "simulate.json").read_bytes()


def test_outputs_confined_to_output_dir(tmp_path):
    cfgp = write_cfg(tmp_path, BASE_1D)
    out = tmp_path / "only_here"
    before = set(os.listdir(tmp_path))
    r = run_cli(["landscape", cfgp, "--output-dir", str(out)])
    assert r.returncode == 0
    after = set(os.listdir(tmp_path))
    assert after - before == {"only_here"}


def test_metadata_separate(tmp_path):
    cfgp = write_cfg(tmp_path, BASE_1D)
    out = tmp_path / "out"
    run_cli(["landscape", cfgp, "--output-dir", str(out)])
    meta = json.loads((out / "landscape_metadata.json").read_text())
    assert "created_unix" in meta
    data = (out / "landscape.json").read_text()
    assert "created" not in data


SELFCHECK_NAMES = [
    "multiplier d=1 vs quadrature", "multiplier d=2 vs quadrature",
    "imag multiplier d=1 vs quadrature", "imag multiplier d=2 vs quadrature",
    "principal symbol >= 0 (1e4 samples)",
    "analytic modulus bound (1e3 samples)", "walk top eigenpair residual",
    "stochastic row sums", "assembled symmetry", "detailed balance flux",
    "gram laplacian kernel residual", "two-process walk apply bit mismatches",
]


def test_selfcheck():
    r = run_cli(["selfcheck"])
    assert r.returncode == 0, r.stdout + r.stderr
    assert "PASS" in r.stdout
    assert "FAIL " not in r.stdout
    # every row, named and in order
    names = [re.match(r"PASS  (.*?)\s+value=", line).group(1)
             for line in r.stdout.splitlines()[:-1]]
    assert names == SELFCHECK_NAMES


def test_selfcheck_row_sums_can_fail(monkeypatch):
    # ball sums that miss one footprint tap no longer normalize the rows of
    # the assembled walk, and the selfcheck row that reads them fails
    correlate = gridop._correlate

    def drop_last_tap(arr, foot):
        foot = foot.copy()
        foot.flat[np.flatnonzero(foot)[-1]] = False
        return correlate(arr, foot)

    monkeypatch.setattr(gridop, "_correlate", drop_last_tap)
    rows = {name: (ok, value) for ok, name, value, _ in cli._selfcheck_rows()}
    ok, value = rows["stochastic row sums"]
    assert not ok, value


def test_selfcheck_split_apply_can_fail(monkeypatch):
    # a helper whose ball sums are one ulp high along its first row makes
    # the two-process apply differ, and its selfcheck row fails
    call = gridop._BallRows.__call__

    def off_in_far_rows(self, arr):
        out = call(self, arr)
        if self.rows.start > 0:
            out[0] = np.nextafter(out[0], np.inf)
        return out

    monkeypatch.setattr(gridop._BallRows, "__call__", off_in_far_rows)
    rows = {name: (ok, value) for ok, name, value, _ in cli._selfcheck_rows()}
    ok, value = rows["two-process walk apply bit mismatches"]
    assert not ok and value >= 1, value


def test_hypothesis_violation_exit_code(tmp_path):
    # symmetric triple well: the two finite barrier values coincide
    doc = dict(BASE_1D)
    doc["potential"] = {
        "form": "polynomial", "dimension": 1,
        "monomials": [{"exponents": [6], "coefficient": 1.0},
                      {"exponents": [4], "coefficient": -2.0},
                      {"exponents": [2], "coefficient": 1.0}]}
    doc["box"] = [[-1.3, 1.3]]
    doc["dx"] = 0.005
    doc["landscape"] = {"dx": 0.001}
    cfgp = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    r = run_cli(["landscape", cfgp, "--output-dir", str(out)])
    assert r.returncode == 4
    rep = json.loads((out / "landscape.json").read_text())
    assert rep["n0"] == 3
    assert rep["hypotheses"]["generic_ok"] is False


@pytest.mark.parametrize("command", ["landscape", "predict", "spectrum"])
def test_degenerate_critical_point_exits_3(tmp_path, command):
    # x^6 has a critical point at 0 with a vanishing Hessian: the run stops
    # before any report is written, so every landscape.json is Morse
    doc = dict(BASE_1D)
    doc["potential"] = {"form": "polynomial", "dimension": 1, "monomials": [
        {"exponents": [6], "coefficient": 1.0}]}
    doc["box"] = [[-1.0, 1.0]]
    out = tmp_path / "out"
    r = run_cli([command, write_cfg(tmp_path, doc), "--output-dir", str(out)])
    assert r.returncode == 3, r.stderr
    # plain floats in the message, not numpy scalar reprs
    assert re.search(r"NonMorseCritical: critical point at \(-0\.0026\d*,\)",
                     r.stderr), r.stderr
    assert not out.exists()


_OVERFLOWS = {"": (2.0, 0.004, "the potential is not finite on"),
              "-gradient": (1.9, 0.01,
                            "the potential's gradient norm is not finite on")}
# sweep assembles its walk at its smallest h before it seeds Newton, and on
# [-1.9, 1.9] that walk's Gibbs sums underflow first
_SWEEP_GRADIENT = "at h = 0.08 the Gibbs sum"


@pytest.mark.parametrize("command, half_width, dx, message", [
    pytest.param(command, half_width, dx,
                 _SWEEP_GRADIENT if command + suffix == "sweep-gradient"
                 else message, id=command + suffix)
    for suffix, (half_width, dx, message) in _OVERFLOWS.items()
    for command in ("landscape", "spectrum", "sweep", "predict", "simulate")])
def test_overflowing_potential_exits_2(tmp_path, monkeypatch, capsys,
                                       command, half_width, dx, message):
    # x^1100 - x^2 overflows near the ends of [-2, 2]: a configuration error
    # found when the grid is sampled, before any labeling or solve.  On
    # [-1.9, 1.9] the samples are finite but the gradient overflows, which
    # the coarse grid that seeds Newton finds before the persistence sweep
    def never(*args, **kwargs):
        raise AssertionError("ran on non-finite samples")

    monkeypatch.setattr(eigen, "smallest_eigs", never)
    monkeypatch.setattr(landscape, "persistence_sweep", never)
    doc = dict(BASE_1D, box=[[-half_width, half_width]], dx=dx,
               landscape={"dx": 0.002})
    doc["potential"] = {"form": "polynomial", "dimension": 1, "monomials": [
        {"exponents": [1100], "coefficient": 1.0},
        {"exponents": [2], "coefficient": -1.0}]}
    if command == "sweep":
        doc.pop("h")
        doc["h_list"] = [0.15, 0.12, 0.1, 0.08]
    if command == "simulate":
        doc["walk"] = {"h": 0.1, "n_chains": 10, "n_steps": 10, "seed": 1,
                       "start": {"well": 1}}
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # numpy's overflow warning too
        rc = cli.main([command, write_cfg(tmp_path, doc), "--output-dir",
                       str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not out.exists()


def test_formats_key_respected(tmp_path):
    doc = dict(BASE_1D)
    doc["dx"] = 0.005
    doc.pop("h")
    doc["h_list"] = [0.3, 0.25, 0.2, 0.15]
    doc["output"] = {"directory": "out", "formats": ["csv"]}
    cfgp = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    r = run_cli(["sweep", cfgp, "--output-dir", str(out)])
    assert r.returncode == 0, r.stderr
    assert (out / "sweep.csv").exists()
    assert not (out / "sweep.json").exists()


def test_cell_cap_respected(tmp_path):
    doc = dict(BASE_1D)
    doc["cell_cap"] = 100
    cfgp = write_cfg(tmp_path, doc)
    r = run_cli(["spectrum", cfgp, "--output-dir", str(tmp_path / "o")])
    assert r.returncode == 3
    assert "TooManyCells" in r.stderr


@pytest.mark.parametrize("command, name, key, value", [
    ("spectrum", "benchmark_2d.json", "dx", 0.014),
    ("simulate", "simulate_1d.json", "dx", 0.003),
    ("landscape", "benchmark_1d.json", "landscape", {"dx": 0.0015}),
    ("predict", "benchmark_1d.json", "landscape", {"dx": 0.0015}),
])
def test_grid_not_fitting_box_fails_fast(tmp_path, command, name, key, value):
    # a spacing that does not divide every box side is a configuration
    # error, caught before any compute instead of rounded or failing late
    doc = shipped_config(name)
    doc[key] = value
    cfgp = write_cfg(tmp_path, doc)
    t0 = time.perf_counter()
    r = run_cli([command, cfgp, "--output-dir", str(tmp_path / "out")])
    assert r.returncode == 2, r.stderr
    assert time.perf_counter() - t0 < 2.0
    assert "not commensurate" in r.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, name, path, value, key", [
    ("predict", "benchmark_1d.json", ("dx",), "abc", "dx"),
    ("predict", "benchmark_1d.json", ("landscape",), [1], "landscape"),
    ("simulate", "simulate_1d.json", ("walk", "n_chains"), "x",
     "walk.n_chains"),
    # any nonempty string would read as true
    ("simulate", "simulate_1d.json", ("walk", "estimate_gap"), "false",
     "walk.estimate_gap"),
    ("simulate", "simulate_1d.json", ("walk", "freeze_exited"), "false",
     "walk.freeze_exited"),
    # frozen exits are counted from a start well
    ("simulate", "simulate_1d.json", ("walk",),
     {"n_steps": 40, "n_chains": 400, "start": "stationary",
      "freeze_exited": True}, "walk.start"),
    ("simulate", "simulate_1d.json", ("walk", "start"), {"point": [0.1, 0.2]},
     "walk.start.point"),
    # only JSON numbers are numbers, and only JSON integers are integers:
    # a string, a bool or a fraction is not converted
    ("predict", "benchmark_1d.json", ("dx",), "0.002", "dx"),
    ("simulate", "simulate_1d.json", ("walk", "n_chains"), True,
     "walk.n_chains"),
    ("simulate", "simulate_1d.json", ("walk", "seed"), 1.9, "walk.seed"),
    # frozen chains never return, so their occupation cannot relax
    ("simulate", "simulate_1d.json", ("walk",),
     {"n_steps": 300, "n_chains": 2000, "start": {"well": 2},
      "freeze_exited": True, "estimate_gap": True}, "walk.freeze_exited"),
    # the potential and the box take the same JSON types: a string is not
    # a list of its characters, and a bool is neither a number nor a name
    ("simulate", "simulate_1d.json", ("potential", "params"), "03",
     "potential.params"),
    ("simulate", "simulate_1d.json", ("potential", "params"), [True],
     "potential.params"),
    ("simulate", "simulate_1d.json", ("potential", "name"), 5,
     "potential.name"),
    ("simulate", "simulate_1d.json", ("box",), [["-2", 2]], "box"),
    ("simulate", "simulate_1d.json", ("box",), [[True, 2]], "box"),
    # a fractional exponent is refused, not truncated
    ("predict", "benchmark_1d.json", ("potential",),
     {"form": "polynomial", "dimension": 1,
      "monomials": [{"exponents": [4.5], "coefficient": 1.0}]},
     "potential.monomials.exponents"),
    ("predict", "benchmark_1d.json", ("potential",),
     {"form": "polynomial", "dimension": 1,
      "monomials": [{"exponents": [4], "coefficient": True}]},
     "potential.monomials.coefficient"),
    # true == 1, and str(5) would name a directory
    ("predict", "benchmark_1d.json", ("schema_version",), True,
     "schema_version"),
    ("predict", "benchmark_1d.json", ("output", "directory"), 5,
     "output.directory"),
    # the gap is fit to the relaxation out of the start well
    ("simulate", "simulate_1d.json", ("walk",),
     {"n_steps": 40, "n_chains": 400, "start": "stationary",
      "estimate_gap": True}, "walk.estimate_gap"),
])
def test_config_type_error_fails_fast(tmp_path, command, name, path, value,
                                      key):
    # a value of the wrong type is a configuration error naming its key,
    # not a traceback
    doc = shipped_config(name)
    table = doc
    for part in path[:-1]:
        table = table[part]
    table[path[-1]] = value
    cfgp = write_cfg(tmp_path, doc)
    t0 = time.perf_counter()
    r = run_cli([command, cfgp, "--output-dir", str(tmp_path / "out")])
    assert r.returncode == 2, r.stderr
    assert time.perf_counter() - t0 < 2.0
    assert f"config error: {key} must be" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "out").exists()


def test_sweep_cell_cap_respected(tmp_path):
    # 2000 operator cells against a cap of 500: refused before the
    # landscape is labeled and before any solve
    doc = shipped_config("benchmark_1d.json")
    doc["cell_cap"] = 500
    cfgp = write_cfg(tmp_path, doc)
    t0 = time.perf_counter()
    r = run_cli(["sweep", cfgp, "--output-dir", str(tmp_path / "out")])
    assert r.returncode == 3, r.stderr
    assert time.perf_counter() - t0 < 2.0
    assert "TooManyCells" in r.stderr
    assert not (tmp_path / "out").exists()


def test_sweep_resolution_checked_before_labeling(tmp_path, monkeypatch,
                                                  capsys):
    # dx 0.1 resolves h >= 1 only (dx <= sqrt(h)/10): h = 0.8 is refused
    # before the landscape is labeled and before any solve
    def no_labeling(*args, **kwargs):
        raise AssertionError("the landscape was labeled")

    monkeypatch.setattr(pipeline, "run_landscape", no_labeling)
    doc = dict(BASE_1D, dx=0.1, h_list=[1.6, 1.4, 1.2, 0.8])
    doc.pop("h")
    out = tmp_path / "out"
    rc = cli.main(["sweep", write_cfg(tmp_path, doc), "--output-dir",
                   str(out)])
    assert rc == 3
    assert ("numerical failure: ResolutionError: dx = 0.1 too coarse for "
            "h = 0.8") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("potential, box, dx, landscape_dx, count, n0", [
    # one well: no gap to fit
    ({"dimension": 1, "form": "builtin", "name": "single_well"},
     [[-2.0, 2.0]], 0.004, 0.004, 4, 1),
    # 4x^6 - 8x^4 + 4x^2 + 0.2x has three wells, more than count solves for
    ({"dimension": 1, "form": "polynomial", "monomials": [
        {"exponents": [6], "coefficient": 4.0},
        {"exponents": [4], "coefficient": -8.0},
        {"exponents": [2], "coefficient": 4.0},
        {"exponents": [1], "coefficient": 0.2}]},
     [[-1.3, 1.3]], 0.002, 0.0005, 2, 3),
    # two wells and two eigenvalues: none above the cluster
    (BASE_1D["potential"], [[-2.0, 2.0]], 0.004, 0.002, 2, 2),
])
def test_sweep_checks_n0_against_count_before_solving(
        tmp_path, monkeypatch, capsys, potential, box, dx, landscape_dx,
        count, n0):
    def no_solve(*args, **kwargs):
        raise AssertionError("an operator was solved")

    monkeypatch.setattr(pipeline, "run_spectrum", no_solve)
    doc = dict(BASE_1D, potential=potential, box=box, dx=dx, count=count,
               h_list=[0.15, 0.12, 0.1, 0.08],
               landscape={"dx": landscape_dx})
    doc.pop("h")
    out = tmp_path / "out"
    rc = cli.main(["sweep", write_cfg(tmp_path, doc), "--output-dir",
                   str(out)])
    assert rc == 2
    assert (f"config error: sweep needs n0 >= 2 wells and count > n0 "
            f"eigenvalues per solve, got n0 = {n0} and count = {count}"
            ) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("potential, count, n0", [
    # x has no critical point in [-1, 1], so no well
    ({"dimension": 1, "form": "polynomial",
      "monomials": [{"exponents": [1], "coefficient": 1.0}]}, 5, 0),
    # two wells and two eigenvalues: none above the cluster
    (BASE_1D["potential"], 2, 2),
])
def test_spectrum_checks_n0_against_count_before_solving(
        tmp_path, monkeypatch, capsys, potential, count, n0):
    def no_solve(*args, **kwargs):
        raise AssertionError("an operator was solved")

    monkeypatch.setattr(pipeline, "run_spectrum", no_solve)
    box = [[-1.0, 1.0]] if n0 == 0 else BASE_1D["box"]
    doc = dict(BASE_1D, potential=potential, box=box, count=count)
    out = tmp_path / "out"
    rc = cli.main(["spectrum", write_cfg(tmp_path, doc), "--output-dir",
                   str(out)])
    assert rc == 2
    assert (f"config error: spectrum needs n0 >= 1 minima and count > n0 "
            f"eigenvalues, got n0 = {n0} and count = {count}"
            ) in capsys.readouterr().err
    assert not out.exists()


def test_start_well_outside_landscape_fails(tmp_path):
    # simulate_1d labels two wells; a start in well 7 would sample from an
    # empty set of cells
    doc = shipped_config("simulate_1d.json")
    doc["walk"]["start"] = {"well": 7}
    cfgp = write_cfg(tmp_path, doc)
    r = run_cli(["simulate", cfgp, "--output-dir", str(tmp_path / "out")])
    assert r.returncode == 2, r.stderr
    assert "config error: walk.start.well must be a well in 1..2" in r.stderr
    assert "Warning" not in r.stderr
    assert not (tmp_path / "out").exists()


# on [-4.5, 2] the tilted double well reaches phi = 369 at the left end, and
# at h = 0.3 e^(-(phi - min phi)/h) underflows to 0 over whole balls there
_UNDERFLOW_1D = dict(BASE_1D, box=[[-4.5, 2.0]], h=0.3)


@pytest.mark.parametrize("command", ["spectrum", "sweep"])
def test_gibbs_underflow_exits_2_before_the_solve(tmp_path, monkeypatch,
                                                  capsys, command):
    def never(*args, **kwargs):
        raise AssertionError("an operator was solved")

    monkeypatch.setattr(eigen, "smallest_eigs", never)
    doc = dict(_UNDERFLOW_1D)
    if command == "sweep":
        # sweep refuses its smallest h before it labels the landscape
        def no_labeling(*args, **kwargs):
            raise AssertionError("the landscape was labeled")

        monkeypatch.setattr(landscape, "label_potential", no_labeling)
        doc.pop("h")
        doc["h_list"] = [0.5, 0.4, 0.35, 0.3]
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([command, write_cfg(tmp_path, doc), "--output-dir",
                       str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "config error: at h = 0.3 the Gibbs sum")
    assert not out.exists()


def test_gibbs_underflow_leaves_simulate_alone(tmp_path):
    # simulate reads only the stationary law, which is 0 on those cells
    doc = dict(_UNDERFLOW_1D)
    doc["walk"] = {"h": 0.3, "n_steps": 20, "n_chains": 100,
                   "start": {"well": 2}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["simulate", write_cfg(tmp_path, doc),
                         "--output-dir", str(tmp_path / "out")]) == 0


def test_every_numerical_failure_exits_3():
    # an exception class of a numerical module that main does not map to
    # exit 3 escapes as a traceback
    for mod in (asympt, eigen, gridop, landscape, symbols, walk):
        for obj in vars(mod).values():
            if (isinstance(obj, type) and issubclass(obj, Exception)
                    and not issubclass(obj, Warning)
                    and obj.__module__ == mod.__name__):
                assert obj in cli.NUMERICAL_FAILURES, obj


def test_rejection_stall_in_forked_block_exits_3(tmp_path, monkeypatch,
                                                 capsys):
    # a stall in the second of two sampler processes ends the run as a
    # numerical failure, with no output and no process left behind
    monkeypatch.setattr(walk, "_MIN_CHAINS_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    advance = walk._advance_all

    def stall_in_second_block(spec, h, pos, seed, step_index, lower,
                              active=None, first_chain=0):
        if first_chain:
            raise walk.RejectionStall(f"chain {first_chain} stuck",
                                      step=step_index)
        return advance(spec, h, pos, seed, step_index, lower, active,
                       first_chain)

    monkeypatch.setattr(walk, "_advance_all", stall_in_second_block)
    doc = shipped_config("simulate_1d.json")
    doc["walk"].update(n_chains=200, n_steps=20)
    out = tmp_path / "out"
    rc = cli.main(["simulate", write_cfg(tmp_path, doc),
                   "--output-dir", str(out)])
    assert rc == 3
    assert "numerical failure: RejectionStall: chain 100 stuck" in (
        capsys.readouterr().err)
    assert not out.exists()


SPECTRUM_2D = {
    "schema_version": 1,
    "potential": {"dimension": 2, "form": "builtin", "name": "three_well"},
    "box": [[-1.8, 1.8], [-1.8, 1.8]],
    "dx": 0.045,
    "h": 0.4,
    "count": 5,
    "landscape": {"coarse_spacing": 0.06},
}


def _force_split(monkeypatch):
    """Make every 2D walk solve split its applies over two processes."""
    monkeypatch.setattr(gridop, "SPLIT_MIN_CELLS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_split_spectrum_outputs_equal_one_process(tmp_path, monkeypatch):
    # the two-process run writes the same bytes, says so in its sidecar,
    # and leaves no process behind (the autouse no_unreaped_child fixture)
    cfg = write_cfg(tmp_path, SPECTRUM_2D)
    outs = {}
    for processes in (1, 2):
        if processes == 2:
            _force_split(monkeypatch)
        outs[processes] = tmp_path / f"out{processes}"
        assert cli.main(["spectrum", cfg, "--output-dir",
                         str(outs[processes])]) == 0
        meta = json.loads(
            (outs[processes] / "spectrum_metadata.json").read_text())
        assert meta["matvec_processes"] == processes
    assert ((outs[1] / "spectrum.json").read_bytes()
            == (outs[2] / "spectrum.json").read_bytes())


def test_killed_matvec_helper_exits_3(tmp_path, monkeypatch, capsys):
    # a helper that dies mid-solve ends the run as a numerical failure,
    # promptly, with no output and no process left behind
    _force_split(monkeypatch)
    matvec = gridop.GridOperator.matvec
    applies = []

    def kill_before_third(self, u):
        if self.helper is not None:
            applies.append(1)
            if len(applies) == 3:
                os.kill(self.helper.pid, signal.SIGKILL)
        return matvec(self, u)

    monkeypatch.setattr(gridop.GridOperator, "matvec", kill_before_third)
    out = tmp_path / "out"
    rc = cli.main(["spectrum", write_cfg(tmp_path, SPECTRUM_2D),
                   "--output-dir", str(out)])
    assert rc == 3
    assert "numerical failure: MatvecHelperLost: " in capsys.readouterr().err
    assert len(applies) == 3
    assert not out.exists()


def test_loss_of_orthogonality_exits_3(tmp_path, monkeypatch, capsys):
    # a failure ARPACK reports (-9999: no Lanczos factorization could be
    # built) ends the run as a numerical failure, not a traceback
    import scipy.sparse.linalg

    def fail(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackError(-9999)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)
    out = tmp_path / "out"
    rc = cli.main(["spectrum", write_cfg(tmp_path, BASE_1D),
                   "--output-dir", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure: NoConvergence" in err
    assert "ARPACK error -9999" in err
    assert not out.exists()
