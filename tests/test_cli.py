"""End-to-end tests of the command-line interface and file round-trips."""

import argparse
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from soft_irl import RATE_METRICS, DimensionError, cli
from soft_irl import io as pio
from soft_irl.cli import build_parser, main
from soft_irl.experiments import RateConfig
from soft_irl.mdp import Mdp, Policy, sample_trajectories, uniform_policy
from soft_irl.opt import FitConfig

from test_mdp import random_mdp, random_policy


TINY_INSTANCE = {"S": 3, "A": 2, "T": 3, "d": 3, "beta": 0.7, "seed": 1}
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
RATES_SECTION = {"instance": TINY_INSTANCE, "n_grid": [64, 128], "replicates": 1, "data_seed": 2}
FIT_SECTION = {"instance": TINY_INSTANCE, "n": 16, "data_seed": 1}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# solve


def test_solve_builtin_zero_reward(tmp_path, capsys):
    cfg = write_config(tmp_path, {"output_dir": str(tmp_path / "out"), "solve": {"builtin": "zero-reward", "beta": 1.0}})
    assert main(["solve", "--config", cfg]) == 0
    out = capsys.readouterr().out
    solution = json.loads((tmp_path / "out" / "solution.json").read_text())
    # uniform two-action chain: J* = T * beta * log(A)
    T = len(solution["V"]) - 1
    A = len(solution["pi_star"]["probs"][0][0])
    assert math.isclose(solution["J_star"], T * math.log(A), rel_tol=1e-12)
    assert f"J_star = {solution['J_star']:.12g}" in out


def test_solve_from_files_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    mdp = random_mdp(rng, S=3, A=2, T=2)
    reward = rng.normal(size=(2, 3, 2))
    mdp_path = tmp_path / "mdp.json"
    pio.dump_json(mdp, mdp_path)
    reward_path = tmp_path / "reward.json"
    pio.dump_json(reward.tolist(), reward_path)
    cfg = write_config(
        tmp_path,
        {
            "output_dir": str(tmp_path / "out"),
            "solve": {"mdp": str(mdp_path), "reward": str(reward_path), "beta": 0.5},
        },
    )
    assert main(["solve", "--config", cfg]) == 0
    first = (tmp_path / "out" / "solution.json").read_bytes()
    assert main(["solve", "--config", cfg]) == 0
    assert (tmp_path / "out" / "solution.json").read_bytes() == first  # idempotent

    # the solution file itself passes policy validation when re-read
    solution = json.loads(first)
    probs = np.asarray(solution["pi_star"]["probs"])
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)


def test_solve_unknown_builtin_is_input_error(tmp_path):
    cfg = write_config(tmp_path, {"solve": {"builtin": "no-such-instance"}})
    assert main(["solve", "--config", cfg]) == 2


def test_solve_missing_files_is_input_error(tmp_path):
    cfg = write_config(tmp_path, {"output_dir": str(tmp_path / "out"), "solve": {"beta": 1.0}})
    assert main(["solve", "--config", cfg]) == 2


# ---------------------------------------------------------------------------
# fit


def test_fit_from_instance(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "output_dir": str(tmp_path / "out"),
            "fit": {"instance": TINY_INSTANCE, "n": 128, "data_seed": 0},
        },
    )
    assert main(["fit", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "theta_hat = [" in out and "converged = True" in out
    assert "status = converged" in out and "separation_margin" not in out
    payload = json.loads((tmp_path / "out" / "fit.json").read_text())
    assert payload["converged"] is True and payload["status"] == "converged"
    assert "separating_direction" not in payload and "separation_margin" not in payload
    assert len(payload["theta_hat"]) == TINY_INSTANCE["d"]
    assert payload["iterations"] == len(payload["trace"]) - 1 or payload["iterations"] <= len(payload["trace"])


def test_fit_draws_its_default_data_with_seed_plus_one(tmp_path, capsys):
    """Without ``data_seed``, ``fit`` samples with ``seed + 1``, as
    ``equivalence``, ``rates`` and ``concentration`` do."""
    section = {"instance": {k: v for k, v in TINY_INSTANCE.items() if k != "seed"}, "n": 64}
    written = []
    for fit in (section, dict(section, data_seed=4), dict(section, data_seed=3)):
        out = tmp_path / str(len(written))
        cfg = write_config(tmp_path, {"seed": 3, "output_dir": str(out), "fit": fit})
        assert main(["fit", "--config", cfg]) == 0
        written.append((out / "fit.json").read_bytes())
    assert written[0] == written[1]
    assert written[0] != written[2]


# the configs/rates.json instance; 20 is the smallest data seed whose n = 64
# sample has a target outside the moment set
RATES_INSTANCE = {"S": 5, "A": 3, "T": 4, "d": 6, "beta": 0.5, "seed": 5}
OUTSIDE_SEED = 20


def test_fit_reports_an_infeasible_target(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "output_dir": str(tmp_path / "out"),
            "fit": {"instance": RATES_INSTANCE, "n": 64, "data_seed": OUTSIDE_SEED},
        },
    )
    assert main(["fit", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "converged = False" in out and "status = infeasible" in out
    margin = float(re.search(r"separation_margin = (\S+)", out).group(1))
    payload = json.loads((tmp_path / "out" / "fit.json").read_text())
    assert payload["status"] == "infeasible" and payload["converged"] is False
    assert payload["iterations"] < 100
    assert payload["separation_margin"] > 0.0
    assert margin == pytest.approx(payload["separation_margin"], rel=1e-5)
    u = np.asarray(payload["separating_direction"])
    assert u.shape == (RATES_INSTANCE["d"],)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)


def test_fit_unknown_key_rejected(tmp_path):
    cfg = write_config(tmp_path, {"fit": {"instance": TINY_INSTANCE, "bogus": 1}})
    assert main(["fit", "--config", cfg]) == 2


@pytest.mark.parametrize("key", ["ridge", "ridge_threshold", "line_search_factor", "line_search_accept"])
@pytest.mark.parametrize("command, section", [("fit", FIT_SECTION), ("rates", RATES_SECTION)])
def test_solver_constants_are_not_config_fields(tmp_path, capsys, command, section, key):
    """The ridge and line-search constants are the solver's own, not options."""
    payload = {"output_dir": str(tmp_path / "out"), command: dict(section, fit={key: 0.5})}
    assert main([command, "--config", write_config(tmp_path, payload)]) == 2
    assert f"config.{command}.fit: unknown field(s) ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fit_unknown_instance_key_rejected(tmp_path):
    bad = dict(TINY_INSTANCE, horizon=4)
    cfg = write_config(tmp_path, {"fit": {"instance": bad}})
    assert main(["fit", "--config", cfg]) == 2


@pytest.mark.parametrize(
    "command, section",
    [
        ("fit", {"instance": TINY_INSTANCE, "n": 16, "data_seed": -1}),
        ("fit", {"instance": dict(TINY_INSTANCE, seed=-1), "n": 16, "data_seed": 1}),
        ("rates", {"instance": TINY_INSTANCE, "n_grid": [64, 128], "replicates": 1, "data_seed": -1}),
    ],
)
def test_negative_seed_is_input_error(tmp_path, capsys, command, section):
    cfg = write_config(tmp_path, {"output_dir": str(tmp_path / "out"), command: section})
    assert main([command, "--config", cfg]) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, section",
    [
        ("fit", {"instance": TINY_INSTANCE, "n": 16, "data_seed": 2.7}),
        ("rates", {"instance": TINY_INSTANCE, "n_grid": [64, 128], "replicates": 1, "data_seed": 2.7}),
        ("equivalence", {"instance": TINY_INSTANCE, "n": 16, "data_seed": 2.7}),
        ("concentration", {"instance": TINY_INSTANCE, "n": 16, "trials": 2, "data_seed": 2.7}),
    ],
)
def test_fractional_data_seed_is_input_error(tmp_path, capsys, command, section):
    cfg = write_config(tmp_path, {"output_dir": str(tmp_path / "out"), command: section})
    assert main([command, "--config", cfg]) == 2
    assert "seed must be a non-negative integer, got 2.7" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fit_oversized_n_is_input_error(tmp_path):
    cfg = write_config(tmp_path, {"fit": {"instance": TINY_INSTANCE, "n": 2**32, "data_seed": 1}})
    assert main(["fit", "--config", cfg]) == 2


def test_seed_env_override_changes_instance(tmp_path, monkeypatch, capsys):
    spec = {k: v for k, v in TINY_INSTANCE.items() if k != "seed"}
    payload = {
        "output_dir": str(tmp_path / "out"),
        "seed": 1,
        "fit": {"instance": spec, "n": 64, "data_seed": 3},
    }
    cfg = write_config(tmp_path, payload)
    assert main(["fit", "--config", cfg]) == 0
    base = (tmp_path / "out" / "fit.json").read_bytes()
    capsys.readouterr()

    monkeypatch.setenv("SOFT_IRL_SEED", "2")
    assert main(["fit", "--config", cfg]) == 0
    overridden = (tmp_path / "out" / "fit.json").read_bytes()
    assert overridden != base

    monkeypatch.setenv("SOFT_IRL_SEED", "1")
    assert main(["fit", "--config", cfg]) == 0
    assert (tmp_path / "out" / "fit.json").read_bytes() == base

    monkeypatch.setenv("SOFT_IRL_SEED", "one")
    assert main(["fit", "--config", cfg]) == 2


@pytest.mark.parametrize("command", ["geometry", "fit", "rates", "concentration"])
def test_negative_seed_env_is_input_error(tmp_path, monkeypatch, capsys, command):
    """``SOFT_IRL_SEED`` passes the same check as a config seed, before any work."""
    path = CONFIGS / f"{command}.json"
    monkeypatch.setenv("SOFT_IRL_SEED", "-1")
    assert main([command, "--config", str(path), "--output", str(tmp_path / "out")]) == 2
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# rates


def test_rates_writes_json_csv_and_plots(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "output_dir": str(tmp_path / "out"),
            "emit_plots": True,
            "rates": {
                "instance": TINY_INSTANCE,
                "n_grid": [64, 128, 256],
                "replicates": 3,
                "data_seed": 2,
            },
        },
    )
    assert main(["rates", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "slope[param_err_hess] =" in out and "non_converged =" in out

    report = json.loads((tmp_path / "out" / "rates.json").read_text())
    assert set(report["slopes"]) >= {"expert_kl", "param_err_hess"}
    csv_text = (tmp_path / "out" / "rates.csv").read_text()
    header, *rows = csv_text.strip().splitlines()
    assert header == "metric,n,replicate,value,converged,slope,status"
    # one row per cell of the JSON grid, in (n, replicate, metric) order
    expected = [
        ",".join([
            metric, str(n), str(rep), repr(report["values"][metric][i][rep]),
            str(status == "converged"), str(report["slopes"].get(metric, "")), status,
        ])
        for i, n in enumerate(report["config"]["n_grid"])
        for rep, status in enumerate(report["statuses"][i])
        for metric in RATE_METRICS
    ]
    assert rows == expected
    svg = (tmp_path / "out" / "rates_param_err_hess.svg").read_text()
    assert svg.startswith("<svg") and "slope" in svg


def test_rates_reports_fit_statuses(tmp_path, capsys):
    """Four of these 16 cells (n = 16, replicate 0; n = 32, replicates 4, 5
    and 7) sample a target outside the moment set; each counts as infeasible
    and as non-converged."""
    payload = {
        "output_dir": str(tmp_path / "out"),
        "rates": {"instance": RATES_INSTANCE, "n_grid": [16, 32], "replicates": 8, "data_seed": 1},
    }
    assert main(["rates", "--config", write_config(tmp_path, payload)]) == 0
    out = capsys.readouterr().out
    for line in ("non_converged = 4", "fits[converged] = 12", "fits[infeasible] = 4",
                 "fits[max_iters] = 0", "fits[stalled] = 0"):
        assert line in out.splitlines()
    report = json.loads((tmp_path / "out" / "rates.json").read_text())
    assert report["non_converged"] == 4
    assert report["fit_statuses"] == {"converged": 12, "infeasible": 4, "max_iters": 0, "stalled": 0}
    infeasible = {
        (n, rep)
        for n, row in zip(report["config"]["n_grid"], report["statuses"])
        for rep, status in enumerate(row)
        if status == "infeasible"
    }
    assert infeasible == {(16, 0), (32, 4), (32, 5), (32, 7)}
    rows = (tmp_path / "out" / "rates.csv").read_text().strip().splitlines()[1:]
    assert all(row.split(",")[4] == str(row.endswith(",converged")) for row in rows)
    assert sum(1 for row in rows if row.endswith(",infeasible")) == 4 * len(RATE_METRICS)


def test_rates_rerun_is_byte_identical(tmp_path, capsys):
    payload = {
        "output_dir": str(tmp_path / "a"),
        "rates": {"instance": TINY_INSTANCE, "n_grid": [64, 128], "replicates": 2, "data_seed": 2},
    }
    cfg = write_config(tmp_path, payload)
    assert main(["rates", "--config", cfg]) == 0
    assert main(["rates", "--config", cfg, "--output", str(tmp_path / "b")]) == 0
    a, b = (
        {file.name: file.read_bytes() for file in sorted((tmp_path / run).iterdir())}
        for run in ("a", "b")
    )
    assert set(a) == {"rates.json", "rates.csv"} and a == b
    capsys.readouterr()


def test_rates_runs_where_the_hessian_at_theta_star_has_a_kernel(tmp_path, capsys):
    """With the kernel left in, eight features on a 2x2x2 instance give a
    Hessian at theta* with a kernel, so lambda* is 0.  The burn-in is then
    undefined, as d* is: both are written as NaN, and the slope window is the
    grid's last ``min_slope_points`` sizes."""
    instance = {"S": 2, "A": 2, "T": 2, "d": 8, "seed": 0, "exclude_kernel": False}
    payload = {
        "output_dir": str(tmp_path / "out"),
        "rates": {"instance": instance, "n_grid": [32, 64, 128, 256, 512], "replicates": 2},
    }
    assert main(["rates", "--config", write_config(tmp_path, payload)]) == 0
    assert "fits[converged] =" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "rates.json").read_text())
    assert report["lambda_star"] == 0.0
    assert math.isnan(report["burn_in_n"]) and math.isnan(report["d_star"])
    assert report["slope_window"] == [64, 128, 256, 512]
    assert sum(report["fit_statuses"].values()) == 10


# configs/rates.json runs in test_acceptance.py; these are the other shipped configs
OTHER_SHIPPED_CONFIGS = [
    "geometry", "concentration", "fit", "equivalence_deterministic", "solve_zero_reward"
]


@pytest.mark.parametrize("name", OTHER_SHIPPED_CONFIGS)
def test_shipped_config_runs_and_reruns_byte_identical(tmp_path, capsys, name):
    path = CONFIGS / f"{name}.json"
    (command,) = set(json.loads(path.read_text())) & set(cli._COMMANDS)
    runs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main([command, "--config", str(path), "--output", str(out)]) == 0
        runs.append({file.name: file.read_bytes() for file in sorted(out.iterdir())})
    assert runs[0] and runs[0] == runs[1]
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        [command, "--config", str(path)]
        for path in sorted(CONFIGS.glob("*.json"))
        for command in sorted(set(json.loads(path.read_text())) & set(cli._COMMANDS))
    ]
    + [["rates", "--config", str(CONFIGS / "rates.json"), "--emit-plots"], ["counterexample"]],
    ids=lambda argv: " ".join(Path(arg).name for arg in argv if arg != "--config"),
)
def test_the_wrote_lines_name_exactly_the_files_written(tmp_path, capsys, argv):
    """Every file a command writes is announced once, and every announced file exists."""
    out = tmp_path / "out"
    assert main([*argv, "--output", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    wrote = [line.removeprefix("wrote ") for line in lines if line.startswith("wrote ")]
    assert sorted(wrote) == sorted(str(file) for file in out.iterdir())
    assert lines[-len(wrote):] == [f"wrote {path}" for path in wrote]  # after the summary


@pytest.mark.parametrize("name", ["fit", "geometry", "concentration", "rates"])
def test_shipped_config_is_byte_identical_across_blas_thread_counts(tmp_path, name):
    """The successor products and Hessians run in BLAS; on the shipped configs
    one and two OpenBLAS threads must write the same bytes."""
    path = CONFIGS / f"{name}.json"
    (command,) = set(json.loads(path.read_text())) & set(cli._COMMANDS)
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = [command, "--config", str(path), "--output", str(out)]
        subprocess.run(
            [sys.executable, "-m", "soft_irl.cli", *argv], env=env, check=True, capture_output=True
        )
        runs.append({file.name: file.read_bytes() for file in sorted(out.iterdir())})
    assert runs[0] and runs[0] == runs[1]


def test_importing_the_package_and_cli_leaves_scipy_unloaded():
    """The package and its CLI import no scipy."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, soft_irl, soft_irl.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    assert done.stdout.strip() == "[]"


def test_a_fit_that_ends_on_the_ball_leaves_scipy_unloaded():
    """The package imports no scipy, and its fitter on the ball's sphere
    makes no exception: a fresh interpreter runs a ball-constrained
    ``fit_population`` that ends on the sphere and lists no scipy module."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys; from soft_irl import *; "
        "inst = generate_instance(InstanceSpec(S=4, A=3, T=3, d=5, seed=0)); "
        "fit = fit_population(inst.mdp, inst.features, inst.expert, "
        "FitConfig(beta=inst.spec.beta, B_theta=0.1)); "
        "print(fit.converged, fit.active_ball_constraint, "
        "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    assert done.stdout.strip() == "True True []"


@pytest.mark.parametrize(
    "argv",
    [
        [command, "--config", str(path)]
        for path in sorted(CONFIGS.glob("*.json"))
        for command in sorted(set(json.loads(path.read_text())) & set(cli._COMMANDS))
    ]
    + [["counterexample"]],
    ids=lambda argv: argv[-1].rsplit("/", 1)[-1],
)
def test_each_shipped_command_runs_with_scipy_unimportable(tmp_path, argv):
    """Every shipped config, and ``counterexample`` without one, exits 0 in a
    fresh interpreter where ``import scipy`` fails: the package needs numpy alone."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys; sys.modules['scipy'] = None; "
        "from soft_irl import cli; sys.exit(cli.main(sys.argv[1:]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *argv, "--output", str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# equivalence / counterexample


def test_equivalence_deterministic_instance_exact(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "output_dir": str(tmp_path / "out"),
            "equivalence": {
                "instance": dict(TINY_INSTANCE, deterministic=True),
                "n": 64,
                "data_seed": 5,
            },
        },
    )
    assert main(["equivalence", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "equivalence_gap" in out
    payload = json.loads((tmp_path / "out" / "equivalence.json").read_text())
    assert payload["residual_term"] == 0.0  # deterministic dynamics
    assert abs(payload["equivalence_gap"]) <= 1e-9


def test_equivalence_stochastic_instance(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "output_dir": str(tmp_path / "out"),
            "equivalence": {"instance": TINY_INSTANCE, "n": 64, "data_seed": 5},
        },
    )
    assert main(["equivalence", "--config", cfg]) == 0
    payload = json.loads((tmp_path / "out" / "equivalence.json").read_text())
    assert payload["residual_term"] != 0.0
    assert abs(payload["equivalence_gap"]) <= 1e-9


def test_counterexample_prints_published_values(tmp_path, capsys):
    cfg = write_config(tmp_path, {"output_dir": str(tmp_path / "out")})
    assert main(["counterexample", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "loss(theta_a)  = 1.2919" in out
    assert "loss(theta_b)  = 1.4802" in out
    assert "loss(midpoint) = 1.6431" in out
    assert "not quasiconvex" in out
    payload = json.loads((tmp_path / "out" / "counterexample.json").read_text())
    assert payload["quasiconvexity_violated"] is True


def test_counterexample_without_config(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["counterexample"]) == 0
    assert (tmp_path / "out" / "counterexample.json").exists()
    capsys.readouterr()


def test_counterexample_benign_pair_returns_one(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "output_dir": str(tmp_path / "out"),
            "counterexample": {"theta_a": [1.0, 1.0], "theta_b": [1.0, 1.0]},
        },
    )
    assert main(["counterexample", "--config", cfg]) == 1
    assert "no violation observed" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# geometry / concentration


def test_geometry_boundary_pairs_pass(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "output_dir": str(tmp_path / "out"),
            "seed": 1,
            "geometry": {"instance": TINY_INSTANCE, "pairs": 3},
        },
    )
    assert main(["geometry", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.count("mode=local") == 3 and "FAIL" not in out
    payload = json.loads((tmp_path / "out" / "geometry.json").read_text())
    assert len(payload["pairs"]) == 3


def test_geometry_runs_above_the_old_enumeration_cap(tmp_path, capsys):
    """S8 A4 T6 has ``(S*A)**T`` about 1.07e9 paths, far above the 2e6 that
    path enumeration could hold; the max-plus constants need none of them."""
    instance = {"S": 8, "A": 4, "T": 6, "d": 4, "beta": 0.5, "seed": 1}
    assert (8 * 4) ** 6 > 10**9
    section = {"instance": instance, "pairs": 3}
    cfg = write_config(
        tmp_path, {"output_dir": str(tmp_path / "out"), "seed": 1, "geometry": section}
    )
    assert main(["geometry", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.count("-> pass") == 3 and "FAIL" not in out
    pairs = json.loads((tmp_path / "out" / "geometry.json").read_text())["pairs"]
    assert len(pairs) == 3 and all(pair["all_passed"] for pair in pairs)


def test_geometry_far_pairs_use_global_mode(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "output_dir": str(tmp_path / "out"),
            "seed": 1,
            "geometry": {"instance": TINY_INSTANCE, "pairs": 2, "boundary_factor": 10.0},
        },
    )
    assert main(["geometry", "--config", cfg]) == 0
    assert capsys.readouterr().out.count("mode=global") == 2


def test_geometry_far_pairs_past_the_float_range_pass(tmp_path, capsys):
    """Deviation bounds above 709.8 give infinite upper bounds, not an OverflowError."""
    geometry = json.loads((CONFIGS / "geometry.json").read_text())["geometry"]
    geometry.update(pairs=2, boundary_factor=2000.0)
    cfg = write_config(
        tmp_path, {"output_dir": str(tmp_path / "out"), "seed": 1, "geometry": geometry}
    )
    assert main(["geometry", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.count("mode=global") == 2 and "FAIL" not in out
    pairs = json.loads((tmp_path / "out" / "geometry.json").read_text())["pairs"]
    for pair in pairs:
        ratio = pair["checks"][0]
        assert ratio["name"] == "density_ratio" and ratio["passed"]
        assert 500.0 < ratio["value"] <= pair["deviation_bound"]


def test_geometry_bad_boundary_factor_rejected(tmp_path, capsys):
    message = "config.geometry.boundary_factor must be a number in (0, inf)"
    for factor in ("far", True, 0.0, -1.0):
        section = {"instance": TINY_INSTANCE, "boundary_factor": factor}
        cfg = write_config(tmp_path, {"output_dir": str(tmp_path / "out"), "geometry": section})
        assert main(["geometry", "--config", cfg]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_concentration_passes(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "output_dir": str(tmp_path / "out"),
            "concentration": {"instance": TINY_INSTANCE, "n": 128, "trials": 100, "data_seed": 3},
        },
    )
    assert main(["concentration", "--config", cfg]) == 0
    assert "violation_frequency" in capsys.readouterr().out
    payload = json.loads((tmp_path / "out" / "concentration.json").read_text())
    assert payload["violation_frequency"] <= payload["frequency_threshold"]


@pytest.mark.parametrize("section", [{"n": 0}, {"n": -3}, {"n": 2.5}, {"trials": 0}])
def test_concentration_bad_counts_are_input_errors(tmp_path, capsys, section):
    payload = dict({"instance": TINY_INSTANCE, "n": 64, "trials": 10}, **section)
    cfg = write_config(tmp_path, {"output_dir": str(tmp_path / "out"), "concentration": payload})
    assert main(["concentration", "--config", cfg]) == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["x", None, True])
def test_concentration_non_numeric_delta_is_input_error(tmp_path, capsys, delta):
    payload = {"instance": TINY_INSTANCE, "n": 64, "trials": 10, "delta": delta}
    cfg = write_config(tmp_path, {"output_dir": str(tmp_path / "out"), "concentration": payload})
    assert main(["concentration", "--config", cfg]) == 2
    assert "delta must be a number" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config values reach typed checks unconverted


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("fit", {"seed": 2.7, "fit": FIT_SECTION}, "seed must be a non-negative integer, got 2.7"),
        ("counterexample", {"output_dir": 5}, "output_dir must be a string, got 5"),
        ("rates", {"emit_plots": "false", "rates": RATES_SECTION}, "emit_plots must be true or false"),
        ("rates", {"rates": dict(RATES_SECTION, replicates=1.9)}, "replicates must be a positive integer"),
        ("rates", {"rates": dict(RATES_SECTION, n_grid=[64.7, 128])}, "n_grid entry must be a positive integer"),
        ("rates", {"rates": dict(RATES_SECTION, burn_in_delta="x")}, "burn_in_delta must be a number in (0, 1)"),
        ("rates", {"rates": dict(RATES_SECTION, min_slope_points=2.5)}, "min_slope_points must be a positive"),
        ("rates", {"rates": dict(RATES_SECTION, fit={"max_iters": "x"})}, "max_iters must be a positive integer"),
        ("fit", {"fit": dict(FIT_SECTION, instance=dict(TINY_INSTANCE, S=2.5))}, "InstanceSpec.S must be"),
        ("equivalence", {"equivalence": {"instance": TINY_INSTANCE, "theta": "abc"}}, "theta: expected a nested array of numbers"),
        ("counterexample", {"counterexample": {"theta_a": ["x", 1.0]}}, "theta_a: expected a nested array"),
        ("geometry", {"geometry": {"instance": TINY_INSTANCE, "pairs": 2.5}}, "pairs must be a positive integer"),
        ("geometry", {"geometry": {"instance": TINY_INSTANCE, "theta_scale": "x"}}, "theta_scale must be a number"),
        (
            "geometry",
            {"geometry": {"instance": TINY_INSTANCE, "boundary_factor": "x"}},
            "geometry.boundary_factor must be a number in (0, inf)",
        ),
        ("solve", {"solve": {"builtin": "zero-reward", "beta": "x"}}, "beta must be a number in (0, inf)"),
        ("solve", {"solve": {"mdp": 5, "reward": "reward.json"}}, "expected a file path, got 5"),
    ],
)
def test_config_values_are_checked_before_conversion(tmp_path, capsys, command, payload, message):
    cfg = write_config(tmp_path, dict({"output_dir": str(tmp_path / "out")}, **payload))
    assert main([command, "--config", cfg]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fit_out_of_range_data_is_input_error(tmp_path, capsys):
    rng = np.random.default_rng(4)
    paths = {name: tmp_path / f"{name}.json" for name in ("mdp", "features", "data")}
    pio.dump_json(random_mdp(rng, S=5, A=2, T=3), paths["mdp"])
    pio.dump_json(rng.normal(size=(3, 5, 2, 2)).tolist(), paths["features"])
    trajectories = [{"states": [0, 1, 2], "actions": [0, 1, 0]}, {"states": [4, 7, 1], "actions": [1, 0, 0]}]
    pio.dump_json({"seed": 0, "generator_label": "", "trajectories": trajectories}, paths["data"])
    section = {name: str(path) for name, path in paths.items()}
    cfg = write_config(tmp_path, {"output_dir": str(tmp_path / "out"), "fit": section})
    assert main(["fit", "--config", cfg]) == 2
    assert "dataset state index out of range (S=5)" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# parser


def test_each_command_accepts_exactly_the_options_its_handler_reads():
    """An option that a command's handler ignores is not on its parser."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == {
        "solve", "fit", "rates", "equivalence", "counterexample", "geometry", "concentration", "validate"
    }
    for name, sub in commands.items():
        accepted = {action.dest for action in sub._actions if action.dest != "help"}
        handler = sub.get_default("handler")
        source = inspect.getsource(getattr(handler, "func", handler))  # a config command's is the runner
        if name in cli._COMMANDS:
            source += inspect.getsource(cli._COMMANDS[name][0])
        assert accepted == set(re.findall(r"\bargs\.(\w+)", source)), name
    assert {a.dest for a in commands["solve"]._actions} >= {"builtin"}
    assert {a.dest for a in commands["rates"]._actions} >= {"emit_plots"}


@pytest.mark.parametrize(
    "argv",
    [["fit", "--builtin", "zero-reward"], ["rates", "--builtin", "zero-reward"], ["solve", "--emit-plots"],
     ["geometry", "--emit-plots"]],
)
def test_unread_options_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validate + io round-trips


def _tiny_mdp():
    rng = np.random.default_rng(3)
    return random_mdp(rng, S=2, A=2, T=2)


def test_validate_mdp_auto_detect(tmp_path, capsys):
    path = tmp_path / "mdp.json"
    pio.dump_json(_tiny_mdp(), path)
    assert main(["validate", str(path)]) == 0
    assert "valid mdp" in capsys.readouterr().out


def test_validate_dataset_and_policy(tmp_path, capsys):
    mdp = _tiny_mdp()
    data = sample_trajectories(mdp, uniform_policy(mdp), 5, seed=0)
    data_path = tmp_path / "data.json"
    pio.dump_json(pio.dataset_to_dict(data), data_path)
    assert main(["validate", str(data_path), "--kind", "dataset"]) == 0

    policy_path = tmp_path / "policy.json"
    pio.dump_json(uniform_policy(mdp), policy_path)
    assert main(["validate", str(policy_path)]) == 0
    capsys.readouterr()


def test_validate_rejects_corrupted_mdp(tmp_path):
    obj = json.loads(pio.to_json_text(_tiny_mdp()))
    obj["initial_dist"] = [0.9, 0.9]  # does not sum to one
    path = tmp_path / "bad.json"
    pio.dump_json(obj, path)
    assert main(["validate", str(path)]) == 2


def test_validate_rejects_fractional_mdp_size(tmp_path, capsys):
    obj = json.loads(pio.to_json_text(_tiny_mdp()))
    obj["T"] = 2.7  # the kernels still fit T = 2
    path = tmp_path / "mdp.json"
    pio.dump_json(obj, path)
    assert main(["validate", str(path)]) == 2
    assert "T must be a positive integer, got 2.7" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, obj",
    [
        (None, [[["x"]]]),
        ("reward", [[["x"]]]),
        ("reward", [[[True]]]),
        ("features", [[[["1.5"]]]]),
        (None, {"probs": [[["x"]]]}),
        (None, {"T": 2, "S": 1, "A": 1, "initial_dist": ["1"], "kernels": [[[[1.0]]]], "ref_measure": [1.0]}),
    ],
)
def test_validate_rejects_non_numeric_arrays(tmp_path, capsys, kind, obj):
    path = tmp_path / "input.json"
    pio.dump_json(obj, path)
    assert main(["validate", str(path)] + (["--kind", kind] if kind else [])) == 2
    assert "expected a nested array of numbers" in capsys.readouterr().err


@pytest.mark.parametrize("kind, obj", [("reward", [[1.0]]), ("features", [[[1.0]]])])
def test_validate_reports_the_rank_of_a_table_file(tmp_path, capsys, kind, obj):
    """A reward or feature file of the wrong rank is a ``DimensionError`` that
    names the file and the named axes of its shape, exit code 2."""
    path = tmp_path / "table.json"
    pio.dump_json(obj, path)
    assert main(["validate", str(path), "--kind", kind]) == 2
    assert f"{path}: expected shape ('T', 'S', 'A'" in capsys.readouterr().err
    with pytest.raises(DimensionError):
        pio.FILE_KINDS[kind](obj, str(path))


def test_validate_takes_its_kinds_from_the_readers_table():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    kind = next(a for a in commands["validate"]._actions if a.dest == "kind")
    assert list(kind.choices) == list(pio.FILE_KINDS)


def test_validate_kind_mismatch(tmp_path):
    path = tmp_path / "mdp.json"
    pio.dump_json(_tiny_mdp(), path)
    assert main(["validate", str(path), "--kind", "dataset"]) == 2


def test_validate_rejects_ragged_dataset(tmp_path):
    path = tmp_path / "ragged.json"
    trajectories = [{"states": [0, 1], "actions": [0, 1]}, {"states": [0], "actions": [1]}]
    pio.dump_json({"seed": 0, "generator_label": "", "trajectories": trajectories}, path)
    assert main(["validate", str(path), "--kind", "dataset"]) == 2


@pytest.mark.parametrize("seed", ["abc", 2.7, -1])
def test_validate_rejects_bad_dataset_seed(tmp_path, capsys, seed):
    path = tmp_path / "data.json"
    trajectories = [{"states": [0, 1], "actions": [0, 1]}]
    pio.dump_json({"seed": seed, "generator_label": "", "trajectories": trajectories}, path)
    assert main(["validate", str(path), "--kind", "dataset"]) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err


def test_validate_missing_file(tmp_path):
    assert main(["validate", str(tmp_path / "absent.json")]) == 2


def test_mdp_json_round_trip():
    mdp = _tiny_mdp()
    clone = pio.mdp_from_dict(json.loads(pio.to_json_text(mdp)))
    np.testing.assert_array_equal(clone.kernels, mdp.kernels)
    np.testing.assert_array_equal(clone.initial_dist, mdp.initial_dist)
    np.testing.assert_array_equal(clone.ref_measure, mdp.ref_measure)


@pytest.mark.parametrize("T", [1, 3])
def test_mdp_json_round_trip_at_every_horizon(tmp_path, capsys, T):
    """A T = 1 MDP has an empty kernel list, which must read back as (0, S, A, S)."""
    mdp = random_mdp(np.random.default_rng(4), S=2, A=2, T=T)
    path = tmp_path / "mdp.json"
    pio.dump_json(mdp, path)
    clone = pio.mdp_from_dict(pio.load_json(path))
    assert clone.kernels.shape == (T - 1, 2, 2, 2)
    np.testing.assert_array_equal(clone.kernels, mdp.kernels)
    np.testing.assert_array_equal(clone.initial_dist, mdp.initial_dist)
    assert main(["validate", str(path)]) == 0
    assert "valid mdp" in capsys.readouterr().out


@pytest.mark.parametrize("T", [1, 3])
def test_policy_json_round_trip_at_every_horizon(tmp_path, capsys, T):
    policy = random_policy(np.random.default_rng(5), random_mdp(np.random.default_rng(4), S=2, A=3, T=T))
    path = tmp_path / "policy.json"
    pio.dump_json(policy, path)
    clone = pio.policy_from_dict(pio.load_json(path))
    np.testing.assert_array_equal(clone.probs, policy.probs)
    assert clone.label == policy.label
    assert main(["validate", str(path)]) == 0
    assert "valid policy" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# report files


# The values each report type derives from its fields and writes next to them.
DERIVED = {
    "IrlFitResult": {"converged"},
    "RiskReport": {"equivalence_gap"},
    "NonconvexityReport": {"quasiconvexity_violated"},
    "GeometryCheck": {"passed"},
    "GeometryCheckReport": {"all_passed"},
    "ConcentrationReport": {"passed"},
    "RateReport": {"fit_statuses", "non_converged"},
}

# One config section per command, the fit twice: converged, and infeasible
# with its certificate set; geometry once inside the trust region and once
# far outside it.
REPORT_RUNS = [
    ("solve", {"builtin": "zero-reward"}),
    ("fit", {"instance": TINY_INSTANCE, "n": 32, "data_seed": 1}),
    ("fit", {"instance": RATES_INSTANCE, "n": 64, "data_seed": OUTSIDE_SEED}),
    ("rates", RATES_SECTION),
    ("equivalence", {"instance": TINY_INSTANCE, "n": 16}),
    ("counterexample", {}),
    ("geometry", {"instance": TINY_INSTANCE, "pairs": 1}),
    ("geometry", {"instance": TINY_INSTANCE, "pairs": 1, "boundary_factor": 10.0}),
    ("concentration", {"instance": TINY_INSTANCE, "n": 16, "trials": 4}),
]


def assert_written_as_fields(obj, data, where, seen):
    """``data`` is the JSON of ``obj``: each dataclass as exactly its fields,
    minus an optional one still at its ``None`` default, plus its derived values."""
    if dataclasses.is_dataclass(obj):
        name = type(obj).__name__
        seen.add(name)
        fields = {
            f.name for f in dataclasses.fields(obj)
            if getattr(obj, f.name) is not None or f.default is not None
        }
        assert set(data) == fields | DERIVED.get(name, set()), where
        for key in fields | DERIVED.get(name, set()):
            assert_written_as_fields(getattr(obj, key), data[key], f"{where}.{key}", seen)
    elif isinstance(obj, dict):
        assert set(data) == set(obj), where
        for key, value in obj.items():
            assert_written_as_fields(value, data[key], f"{where}.{key}", seen)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        assert len(data) == len(obj), where
        for i, (value, item) in enumerate(zip(obj, data)):
            assert_written_as_fields(value, item, f"{where}[{i}]", seen)
    else:
        assert data == obj or (data != data and obj != obj), where  # NaN reads back as NaN


def test_each_report_file_is_its_dataclass(tmp_path, monkeypatch, capsys):
    """Every report the CLI writes has exactly its type's fields and derived
    values as keys, so a field added to a report reaches its file by itself."""
    written = []
    dump_json = pio.dump_json
    monkeypatch.setattr(pio, "dump_json", lambda obj, path: (written.append((obj, path)), dump_json(obj, path)))
    for k, (command, section) in enumerate(REPORT_RUNS):
        main([command, "--config", write_config(tmp_path, {command: section}), "--output", str(tmp_path / str(k))])
    capsys.readouterr()
    assert len(written) == len(REPORT_RUNS)
    seen = set()
    for obj, path in written:
        assert_written_as_fields(obj, json.loads(Path(path).read_text()), path.name, seen)
    assert seen == set(DERIVED) | {
        "SoftSolution", "Policy", "IterationRecord", "RateConfig", "InstanceSpec", "FitConfig"
    }
    fits = [json.loads(Path(path).read_text()) for _, path in written if path.name == "fit.json"]
    assert ["separating_direction" in fit for fit in fits] == [False, True]


def test_an_unset_optional_field_is_left_out():
    """A ``RateConfig`` without a fit config writes no ``fit`` key; the CLI always sets one."""
    assert "fit" not in json.loads(pio.to_json_text(RateConfig()))
    assert json.loads(pio.to_json_text(RateConfig(fit=FitConfig(beta=0.5))))["fit"]["beta"] == 0.5


def test_dataset_json_round_trip():
    mdp = _tiny_mdp()
    data = sample_trajectories(mdp, uniform_policy(mdp), 4, seed=9)
    clone = pio.dataset_from_dict(json.loads(pio.to_json_text(pio.dataset_to_dict(data))))
    assert clone.seed == data.seed
    np.testing.assert_array_equal(clone.states, data.states)
    np.testing.assert_array_equal(clone.actions, data.actions)


def test_check_keys_reports_unknown_and_missing():
    from soft_irl import InputError

    with pytest.raises(InputError, match="unknown"):
        pio.check_keys({"a": 1, "z": 2}, {"a"}, set(), "here")
    with pytest.raises(InputError, match="missing"):
        pio.check_keys({}, {"a"}, set(), "here")


def test_detect_kind():
    mdp = _tiny_mdp()
    assert pio.detect_kind(json.loads(pio.to_json_text(mdp))) == "mdp"
    data = sample_trajectories(mdp, uniform_policy(mdp), 2, seed=0)
    assert pio.detect_kind(pio.dataset_to_dict(data)) == "dataset"
    assert pio.detect_kind(json.loads(pio.to_json_text(uniform_policy(mdp)))) == "policy"


def test_unknown_top_level_config_key_rejected(tmp_path):
    cfg = write_config(tmp_path, {"solve": {"builtin": "zero-reward"}, "mystery": 1})
    assert main(["solve", "--config", cfg]) == 2
