"""Command-line interface.

Subcommands::

    solve           backward induction on an MDP + reward (--builtin NAME)
    fit             fit a linear reward to demonstrations
    rates           convergence-rate experiment (JSON + CSV, SVG with --emit-plots)
    equivalence     loss-equivalence report at one parameter
    counterexample  non-quasiconvexity probe of the likelihood loss
    geometry        trust-region inequality checks on random parameter pairs
    concentration   coverage check of the feature-deviation bound
    validate        check an input file against its type invariants

Exit codes: 0 on success (and all checks passing), 1 when a numerical
assertion fails, 2 on bad input.  The environment variable ``SOFT_IRL_SEED``
overrides the config seed.  Outputs are deterministic: re-running a command
with the same config produces byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import io as pio
from .errors import InputError, SoftIrlError
from .experiments import (
    InstanceSpec,
    RateConfig,
    _spawn_rng,
    check_concentration,
    check_local_geometry,
    dikin_boundary_pair,
    generate_instance,
    run_rate_experiment,
)
from .instances import BUILTIN_NAMES, builtin_mdp_reward
from .linear_reward import LinearRewardModel
from .losses import equivalence_report, nonconvexity_probe
from .mdp import _check_count, _check_flag, _check_real, _check_seed, sample_trajectories
from .opt import FitConfig, fit_empirical
from .soft_dp import soft_backward
from .svg import loglog_chart

_TOP_LEVEL_KEYS = {"seed", "output_dir", "emit_plots"}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Parsed top-level run configuration plus raw per-command sections."""

    seed: int = 0
    output_dir: str = "out"
    emit_plots: bool = False
    sections: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_seed(self.seed)
        if not isinstance(self.output_dir, str):
            raise InputError(f"output_dir must be a string, got {self.output_dir!r}")
        _check_flag(self.emit_plots, "emit_plots")


def _load_run_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    obj = pio.load_json(path)
    pio.check_keys(obj, set(), _TOP_LEVEL_KEYS | set(_COMMANDS), str(path))
    sections = {name: obj[name] for name in _COMMANDS if name in obj}
    top = {key: obj[key] for key in _TOP_LEVEL_KEYS if key in obj}
    return RunConfig(sections=sections, **top)


def _effective_seed(config: RunConfig) -> int:
    env = os.environ.get("SOFT_IRL_SEED")
    if env is None:
        return config.seed
    try:
        seed = int(env)
    except ValueError as exc:
        raise InputError(f"SOFT_IRL_SEED must be an integer, got {env!r}") from exc
    return _check_seed(seed)


def _read_section(cls, section: dict, where: str, **defaults):
    """The dataclass ``cls`` from a config section whose keys name its fields;
    ``defaults`` fill the fields it leaves out."""
    pio.check_keys(section, set(), {f.name for f in dataclasses.fields(cls)}, where)
    return cls(**(defaults | section))


def _read_instance(section: dict, where: str, seed: int) -> InstanceSpec:
    """The ``instance`` entry of the section at ``where``; ``seed`` fills its seed."""
    return _read_section(InstanceSpec, section.get("instance", {}), f"{where}.instance", seed=seed)


def _run(name: str, args) -> int:
    """Run a config command: load the run config, check the command's section
    against its keys, run the command, and once it has returned make the
    output directory, write its report and the other files it hands back,
    and announce each one.  An output path that cannot be made or written
    (a file, or a path under one) is an ``InputError`` naming it."""
    command, keys, report_name = _COMMANDS[name]
    config = _load_run_config(args.config)
    section = config.sections.get(name, {})
    pio.check_keys(section, set(), keys, f"config.{name}")
    code, report, files = command(args, config, section)
    out = Path(args.output) if args.output else Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        pio.dump_json(report, out / report_name)
        for file, write in files.items():
            write(out / file)
    except OSError as exc:
        raise InputError(f"output directory {out}: cannot write there ({exc})") from exc
    for file in [report_name, *files]:
        print(f"wrote {out / file}")
    return code


# --------------------------------------------------------------------------
# subcommands: each reads its options and section, runs its study, prints its
# summary and returns (exit code, report, {other file name: writer})


def cmd_solve(args, config: RunConfig, section: dict):
    beta = _check_real(section.get("beta", 1.0), "config.solve.beta", 0.0)
    builtin = args.builtin or section.get("builtin")
    if builtin is not None:
        mdp, reward = builtin_mdp_reward(builtin)
    else:
        if "mdp" not in section or "reward" not in section:
            raise InputError("config.solve needs either 'builtin' or both 'mdp' and 'reward'")
        mdp = pio.mdp_from_dict(pio.load_json(section["mdp"]), section["mdp"])
        reward = pio.reward_from_obj(pio.load_json(section["reward"]), section["reward"])
    solution = soft_backward(mdp, reward, beta)
    print(f"J_star = {solution.J_star:.12g}")
    return 0, solution, {}


def cmd_fit(args, config: RunConfig, section: dict):
    seed = _effective_seed(config)
    if "instance" in section:
        spec = _read_instance(section, "config.fit", seed)
        instance = generate_instance(spec)
        mdp, features, beta, expert = instance.mdp, instance.features, spec.beta, instance.expert
    else:
        if "mdp" not in section or "features" not in section:
            raise InputError("config.fit needs either 'instance' or 'mdp' + 'features'")
        mdp = pio.mdp_from_dict(pio.load_json(section["mdp"]), section["mdp"])
        features = pio.features_from_obj(pio.load_json(section["features"]), section["features"])
        beta, expert = 1.0, None

    fit_cfg = _read_section(FitConfig, section.get("fit", {}), "config.fit.fit", beta=beta)
    if "data" in section:
        data = pio.dataset_from_dict(pio.load_json(section["data"]), section["data"])
    else:
        if expert is None:
            raise InputError("config.fit: sampling demonstrations requires 'instance'")
        n, data_seed = section.get("n", 1024), section.get("data_seed", seed + 1)
        data = sample_trajectories(mdp, expert, n, data_seed)

    result = fit_empirical(mdp, features, data, fit_cfg)
    theta = ", ".join(f"{x:.6g}" for x in result.theta_hat)
    print(f"theta_hat = [{theta}]")
    print(f"converged = {result.converged} after {result.iterations} iterations")
    print(f"status = {result.status}")
    if result.separation_margin is not None:
        print(f"separation_margin = {result.separation_margin:.6g}")
    return 0, result, {}


def cmd_rates(args, config: RunConfig, section: dict):
    seed = _effective_seed(config)
    spec = _read_instance(section, "config.rates", seed)
    fit = _read_section(FitConfig, section.get("fit", {}), "config.rates.fit", beta=spec.beta)
    report = run_rate_experiment(
        RateConfig(**({"data_seed": seed + 1} | section | {"instance": spec, "fit": fit}))
    )

    files = {"rates.csv": functools.partial(pio.rate_report_to_csv, report)}
    if args.emit_plots or config.emit_plots:
        for metric, slope in report.slopes.items():
            chart = loglog_chart(
                report.config.n_grid,
                report.medians[metric],
                title=f"{metric} vs sample size",
                slope=slope,
                intercept=report.intercepts.get(metric),
                y_label=f"median {metric}",
            )
            files[f"rates_{metric}.svg"] = functools.partial(Path.write_text, data=chart)
    for metric, slope in sorted(report.slopes.items()):
        print(f"slope[{metric}] = {slope:.4f}")
    print(f"non_converged = {report.non_converged}")
    for status, count in report.fit_statuses.items():
        print(f"fits[{status}] = {count}")
    return 0, report, files


def cmd_equivalence(args, config: RunConfig, section: dict):
    seed = _effective_seed(config)
    spec = _read_instance(section, "config.equivalence", seed)
    instance = generate_instance(spec)
    if "theta" in section:
        theta = section["theta"]
    elif instance.theta_expert is not None:
        theta = instance.theta_expert
    else:
        theta = np.zeros(instance.features.d)
    model = LinearRewardModel(features=instance.features, theta=theta)
    data = sample_trajectories(
        instance.mdp, instance.expert, section.get("n", 1024), section.get("data_seed", seed + 1)
    )
    report = equivalence_report(instance.mdp, model, spec.beta, data, instance.expert)
    print(f"irl_empirical  = {report.irl_empirical:.12g}")
    print(f"mle_empirical  = {report.mle_empirical:.12g}")
    print(f"residual_term  = {report.residual_term:.12g}")
    print(f"equivalence_gap = {report.equivalence_gap:.3e}")
    return (0 if abs(report.equivalence_gap) <= 1e-9 else 1), report, {}


def cmd_counterexample(args, config: RunConfig, section: dict):
    report = nonconvexity_probe(**section)
    print(f"loss(theta_a)  = {report.loss_a:.4f}")
    print(f"loss(theta_b)  = {report.loss_b:.4f}")
    print(f"loss(midpoint) = {report.loss_mid:.4f}")
    if report.quasiconvexity_violated:
        print("midpoint exceeds both endpoints: the likelihood loss is not quasiconvex")
        return 0, report, {}
    print("no violation observed")
    return 1, report, {}


def cmd_geometry(args, config: RunConfig, section: dict):
    seed = _effective_seed(config)
    spec = _read_instance(section, "config.geometry", seed)
    pairs = _check_count(section.get("pairs", 5), "config.geometry.pairs")
    scale = _check_real(section.get("theta_scale", 0.5), "config.geometry.theta_scale")
    factor = section.get("boundary_factor", 1.0)
    factor = _check_real(factor, "config.geometry.boundary_factor", 0.0)
    instance = generate_instance(spec)

    rng = _spawn_rng(seed, 7)
    reports = []
    for k in range(pairs):
        theta0 = scale * rng.normal(size=instance.features.d)
        direction = rng.normal(size=instance.features.d)
        theta1 = dikin_boundary_pair(
            instance.mdp, instance.features, spec.beta, theta0, direction, boundary_factor=factor
        )
        report = check_local_geometry(instance.mdp, instance.features, spec.beta, theta0, theta1)
        reports.append(report)
        print(
            f"pair {k}: mode={report.mode} |delta|_H0={report.delta_h0_norm:.4g} "
            f"dikin={report.dikin_radius:.4g} -> {'pass' if report.all_passed else 'FAIL'}"
        )
    return (0 if all(r.all_passed for r in reports) else 1), {"pairs": reports}, {}


def cmd_concentration(args, config: RunConfig, section: dict):
    seed = _effective_seed(config)
    spec = _read_instance(section, "config.concentration", seed)
    instance = generate_instance(spec)
    report = check_concentration(
        instance.mdp,
        instance.features,
        spec.beta,
        instance.expert,
        n=section.get("n", 256),
        delta=section.get("delta", 0.1),
        trials=section.get("trials", 500),
        seed=section.get("data_seed", seed + 1),
    )
    print(
        f"violation_frequency = {report.violation_frequency:.4f} "
        f"(threshold {report.frequency_threshold:.4f})"
    )
    return (0 if report.passed else 1), report, {}


def cmd_validate(args) -> int:
    kind = pio.validate_file(args.path, args.kind)
    print(f"OK: {args.path} is a valid {kind}")
    return 0


# The commands that run from a config section of the same name, through
# _run: the handler, the keys its section may hold, and its report file.
_COMMANDS = {
    "solve": (cmd_solve, {"beta", "mdp", "reward", "builtin"}, "solution.json"),
    "fit": (cmd_fit, {"instance", "mdp", "features", "data", "n", "data_seed", "fit"}, "fit.json"),
    "rates": (cmd_rates, {f.name for f in dataclasses.fields(RateConfig)}, "rates.json"),
    "equivalence": (cmd_equivalence, {"instance", "theta", "n", "data_seed"}, "equivalence.json"),
    "counterexample": (cmd_counterexample, {"theta_a", "theta_b"}, "counterexample.json"),
    "geometry": (
        cmd_geometry,
        {"instance", "pairs", "theta_scale", "boundary_factor"},
        "geometry.json",
    ),
    "concentration": (
        cmd_concentration,
        {"instance", "n", "delta", "trials", "data_seed"},
        "concentration.json",
    ),
}


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soft-irl",
        description="Entropy-regularized inverse RL on tabular finite-horizon MDPs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name in _COMMANDS:
        sp = commands[name] = sub.add_parser(name, help=f"run the {name} command")
        sp.add_argument("--config", metavar="PATH", help="JSON run configuration")
        sp.add_argument("--output", metavar="DIR", help="output directory (overrides config)")
        sp.set_defaults(handler=functools.partial(_run, name))
    commands["solve"].add_argument(
        "--builtin", metavar="NAME", help=f"builtin instance ({', '.join(BUILTIN_NAMES)})"
    )
    commands["rates"].add_argument("--emit-plots", action="store_true", help="also write SVG charts")
    vp = sub.add_parser("validate", help="validate an input file")
    vp.add_argument("path", help="JSON file to check")
    vp.add_argument(
        "--kind",
        choices=list(pio.FILE_KINDS),
        help="expected kind (auto-detected when omitted)",
    )
    vp.set_defaults(handler=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except SoftIrlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
