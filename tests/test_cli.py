"""End-to-end tests of the command-line interface and file round-trips."""

import argparse
import inspect
import json
import math
import re

import numpy as np
import pytest

from soft_irl import cli
from soft_irl import io as pio
from soft_irl.cli import build_parser, main
from soft_irl.mdp import Mdp, Policy, sample_trajectories, uniform_policy

from test_mdp import random_mdp


TINY_INSTANCE = {"S": 3, "A": 2, "T": 3, "d": 3, "beta": 0.7, "seed": 1}


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
    pio.dump_json(pio.mdp_to_dict(mdp), mdp_path)
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
            "fit": {"instance": TINY_INSTANCE, "n": 128, "data_seed": 3},
        },
    )
    assert main(["fit", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "theta_hat = [" in out and "converged = True" in out
    payload = json.loads((tmp_path / "out" / "fit.json").read_text())
    assert payload["converged"] is True
    assert len(payload["theta_hat"]) == TINY_INSTANCE["d"]
    assert payload["iterations"] == len(payload["trace"]) - 1 or payload["iterations"] <= len(payload["trace"])


def test_fit_unknown_key_rejected(tmp_path):
    cfg = write_config(tmp_path, {"fit": {"instance": TINY_INSTANCE, "bogus": 1}})
    assert main(["fit", "--config", cfg]) == 2


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
    assert header == "metric,n,replicate,value,converged,slope"
    assert len(rows) == len(report["records"])
    svg = (tmp_path / "out" / "rates_param_err_hess.svg").read_text()
    assert svg.startswith("<svg") and "slope" in svg


def test_rates_rerun_is_byte_identical(tmp_path, capsys):
    payload = {
        "output_dir": str(tmp_path / "a"),
        "rates": {"instance": TINY_INSTANCE, "n_grid": [64, 128], "replicates": 2, "data_seed": 2},
    }
    cfg = write_config(tmp_path, payload)
    assert main(["rates", "--config", cfg]) == 0
    a = (tmp_path / "a" / "rates.json").read_bytes()
    assert main(["rates", "--config", cfg, "--output", str(tmp_path / "b")]) == 0
    b = (tmp_path / "b" / "rates.json").read_bytes()
    assert a == b
    capsys.readouterr()


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


def test_geometry_far_pairs_use_global_mode(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "output_dir": str(tmp_path / "out"),
            "seed": 1,
            "geometry": {"instance": TINY_INSTANCE, "pairs": 2, "placement": "far"},
        },
    )
    assert main(["geometry", "--config", cfg]) == 0
    assert capsys.readouterr().out.count("mode=global") == 2


def test_geometry_bad_placement_rejected(tmp_path):
    cfg = write_config(tmp_path, {"geometry": {"instance": TINY_INSTANCE, "placement": "near"}})
    assert main(["geometry", "--config", cfg]) == 2


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


RATES_SECTION = {"instance": TINY_INSTANCE, "n_grid": [64, 128], "replicates": 1, "data_seed": 2}
FIT_SECTION = {"instance": TINY_INSTANCE, "n": 16, "data_seed": 1}


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
            {"geometry": {"instance": TINY_INSTANCE, "placement": "far", "far_factor": "x"}},
            "far_factor must be a number in (0, inf)",
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
    pio.dump_json(pio.mdp_to_dict(random_mdp(rng, S=5, A=2, T=3)), paths["mdp"])
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
        source = inspect.getsource(handler)
        if "_out_dir(args" in source:
            source += inspect.getsource(cli._out_dir)
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
    pio.dump_json(pio.mdp_to_dict(_tiny_mdp()), path)
    assert main(["validate", str(path)]) == 0
    assert "valid mdp" in capsys.readouterr().out


def test_validate_dataset_and_policy(tmp_path, capsys):
    mdp = _tiny_mdp()
    data = sample_trajectories(mdp, uniform_policy(mdp), 5, seed=0)
    data_path = tmp_path / "data.json"
    pio.dump_json(pio.dataset_to_dict(data), data_path)
    assert main(["validate", str(data_path), "--kind", "dataset"]) == 0

    policy_path = tmp_path / "policy.json"
    pio.dump_json(pio.policy_to_dict(uniform_policy(mdp)), policy_path)
    assert main(["validate", str(policy_path)]) == 0
    capsys.readouterr()


def test_validate_rejects_corrupted_mdp(tmp_path):
    obj = pio.mdp_to_dict(_tiny_mdp())
    obj["initial_dist"] = [0.9, 0.9]  # does not sum to one
    path = tmp_path / "bad.json"
    pio.dump_json(obj, path)
    assert main(["validate", str(path)]) == 2


def test_validate_rejects_fractional_mdp_size(tmp_path, capsys):
    obj = pio.mdp_to_dict(_tiny_mdp())
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


def test_validate_kind_mismatch(tmp_path):
    path = tmp_path / "mdp.json"
    pio.dump_json(pio.mdp_to_dict(_tiny_mdp()), path)
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
    clone = pio.mdp_from_dict(json.loads(pio.to_json_text(pio.mdp_to_dict(mdp))))
    np.testing.assert_array_equal(clone.kernels, mdp.kernels)
    np.testing.assert_array_equal(clone.initial_dist, mdp.initial_dist)
    np.testing.assert_array_equal(clone.ref_measure, mdp.ref_measure)


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
    assert pio.detect_kind(pio.mdp_to_dict(mdp)) == "mdp"
    data = sample_trajectories(mdp, uniform_policy(mdp), 2, seed=0)
    assert pio.detect_kind(pio.dataset_to_dict(data)) == "dataset"
    assert pio.detect_kind(pio.policy_to_dict(uniform_policy(mdp))) == "policy"


def test_unknown_top_level_config_key_rejected(tmp_path):
    cfg = write_config(tmp_path, {"solve": {"builtin": "zero-reward"}, "mystery": 1})
    assert main(["solve", "--config", cfg]) == 2
