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
import os
import sys
from pathlib import Path

import numpy as np

from . import io as pio
from .errors import InputError, SoftIrlError
from .experiments import (
    InstanceSpec,
    RateConfig,
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
_COMMANDS = (
    "solve",
    "fit",
    "rates",
    "equivalence",
    "counterexample",
    "geometry",
    "concentration",
)


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
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"SOFT_IRL_SEED must be an integer, got {env!r}") from exc
    return config.seed


def _instance_spec(section: dict, seed: int, where: str) -> InstanceSpec:
    allowed = {f.name for f in dataclasses.fields(InstanceSpec)}
    pio.check_keys(section, set(), allowed, where)
    return InstanceSpec(**{"seed": seed, **section})


def _fit_config(section: dict, beta: float, where: str) -> FitConfig:
    allowed = {f.name for f in dataclasses.fields(FitConfig)}
    pio.check_keys(section, set(), allowed, where)
    return FitConfig(**{"beta": beta, **section})


def _out_dir(args, config: RunConfig) -> Path:
    out = Path(args.output) if args.output else Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    config = _load_run_config(args.config)
    section = config.sections.get("solve", {})
    pio.check_keys(section, set(), {"beta", "mdp", "reward", "builtin"}, "config.solve")
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
    out = _out_dir(args, config)
    pio.dump_json(pio.solution_to_dict(solution), out / "solution.json")
    print(f"J_star = {solution.J_star:.12g}")
    print(f"wrote {out / 'solution.json'}")
    return 0


def cmd_fit(args) -> int:
    config = _load_run_config(args.config)
    section = config.sections.get("fit", {})
    pio.check_keys(
        section,
        set(),
        {"instance", "mdp", "features", "data", "n", "data_seed", "fit"},
        "config.fit",
    )
    seed = _effective_seed(config)
    if "instance" in section:
        instance = generate_instance(_instance_spec(section["instance"], seed, "config.fit.instance"))
        mdp, features = instance.mdp, instance.features
        beta = instance.spec.beta
        expert = instance.expert
    else:
        if "mdp" not in section or "features" not in section:
            raise InputError("config.fit needs either 'instance' or 'mdp' + 'features'")
        mdp = pio.mdp_from_dict(pio.load_json(section["mdp"]), section["mdp"])
        features = pio.features_from_obj(pio.load_json(section["features"]), section["features"])
        beta = 1.0
        expert = None

    fit_cfg = _fit_config(section.get("fit", {}), beta, "config.fit.fit")
    if "data" in section:
        data = pio.dataset_from_dict(pio.load_json(section["data"]), section["data"])
    else:
        if expert is None:
            raise InputError("config.fit: sampling demonstrations requires 'instance'")
        n, data_seed = section.get("n", 1024), section.get("data_seed", seed)
        data = sample_trajectories(mdp, expert, n, data_seed)

    result = fit_empirical(mdp, features, data, fit_cfg)
    out = _out_dir(args, config)
    pio.dump_json(pio.fit_result_to_dict(result), out / "fit.json")
    theta = ", ".join(f"{x:.6g}" for x in result.theta_hat)
    print(f"theta_hat = [{theta}]")
    print(f"converged = {result.converged} after {result.iterations} iterations")
    print(f"wrote {out / 'fit.json'}")
    return 0


def cmd_rates(args) -> int:
    config = _load_run_config(args.config)
    section = config.sections.get("rates", {})
    options = {"n_grid", "replicates", "burn_in_delta", "min_slope_points"}
    pio.check_keys(section, set(), options | {"instance", "data_seed", "fit"}, "config.rates")
    seed = _effective_seed(config)
    spec = _instance_spec(section.get("instance", {}), seed, "config.rates.instance")
    rate_cfg = RateConfig(
        instance=spec,
        data_seed=section.get("data_seed", seed + 1),
        fit=_fit_config(section.get("fit", {}), spec.beta, "config.rates.fit"),
        **{key: section[key] for key in options & section.keys()},
    )
    report = run_rate_experiment(rate_cfg)

    out = _out_dir(args, config)
    pio.dump_json(pio.rate_report_to_dict(report), out / "rates.json")
    pio.rate_report_to_csv(report, out / "rates.csv")
    written = [out / "rates.json", out / "rates.csv"]
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
            path = out / f"rates_{metric}.svg"
            path.write_text(chart)
            written.append(path)
    for metric, slope in sorted(report.slopes.items()):
        print(f"slope[{metric}] = {slope:.4f}")
    print(f"non_converged = {report.non_converged}")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_equivalence(args) -> int:
    config = _load_run_config(args.config)
    section = config.sections.get("equivalence", {})
    pio.check_keys(section, set(), {"instance", "theta", "n", "data_seed"}, "config.equivalence")
    seed = _effective_seed(config)
    spec = _instance_spec(section.get("instance", {}), seed, "config.equivalence.instance")
    instance = generate_instance(spec)
    if "theta" in section:
        theta = pio.number_array(section["theta"], "config.equivalence.theta")
    elif instance.theta_expert is not None:
        theta = instance.theta_expert
    else:
        theta = np.zeros(instance.features.d)
    model = LinearRewardModel(features=instance.features, theta=theta)
    data = sample_trajectories(
        instance.mdp, instance.expert, section.get("n", 1024), section.get("data_seed", seed + 1)
    )
    report = equivalence_report(instance.mdp, model, spec.beta, data, instance.expert)
    out = _out_dir(args, config)
    pio.dump_json(pio.risk_report_to_dict(report), out / "equivalence.json")
    print(f"irl_empirical  = {report.irl_empirical:.12g}")
    print(f"mle_empirical  = {report.mle_empirical:.12g}")
    print(f"residual_term  = {report.residual_term:.12g}")
    print(f"equivalence_gap = {report.equivalence_gap:.3e}")
    print(f"wrote {out / 'equivalence.json'}")
    return 0 if abs(report.equivalence_gap) <= 1e-9 else 1


def cmd_counterexample(args) -> int:
    config = _load_run_config(args.config)
    section = config.sections.get("counterexample", {})
    pio.check_keys(section, set(), {"theta_a", "theta_b"}, "config.counterexample")
    report = nonconvexity_probe(
        **{k: tuple(pio.number_array(v, f"config.counterexample.{k}")) for k, v in section.items()}
    )
    out = _out_dir(args, config)
    pio.dump_json(pio.nonconvexity_to_dict(report), out / "counterexample.json")
    print(f"loss(theta_a)  = {report.loss_a:.4f}")
    print(f"loss(theta_b)  = {report.loss_b:.4f}")
    print(f"loss(midpoint) = {report.loss_mid:.4f}")
    if report.quasiconvexity_violated:
        print("midpoint exceeds both endpoints: the likelihood loss is not quasiconvex")
        return 0
    print("no violation observed")
    return 1


def cmd_geometry(args) -> int:
    config = _load_run_config(args.config)
    section = config.sections.get("geometry", {})
    allowed = {"instance", "pairs", "theta_scale", "placement", "far_factor"}
    pio.check_keys(section, set(), allowed, "config.geometry")
    seed = _effective_seed(config)
    spec = _instance_spec(section.get("instance", {}), seed, "config.geometry.instance")
    pairs = _check_count(section.get("pairs", 5), "config.geometry.pairs")
    scale = _check_real(section.get("theta_scale", 0.5), "config.geometry.theta_scale")
    far_factor = _check_real(section.get("far_factor", 10.0), "config.geometry.far_factor", 0.0)
    placement = section.get("placement", "boundary")
    if placement not in ("boundary", "far"):
        raise InputError("config.geometry.placement must be 'boundary' or 'far'")
    factor = far_factor if placement == "far" else 1.0
    instance = generate_instance(spec)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(7,))))
    reports = []
    failures = 0
    for k in range(pairs):
        theta0 = scale * rng.normal(size=instance.features.d)
        direction = rng.normal(size=instance.features.d)
        theta1 = dikin_boundary_pair(
            instance.mdp, instance.features, spec.beta, theta0, direction, boundary_factor=factor
        )
        report = check_local_geometry(instance.mdp, instance.features, spec.beta, theta0, theta1)
        reports.append(pio.geometry_report_to_dict(report))
        status = "pass" if report.all_passed else "FAIL"
        if not report.all_passed:
            failures += 1
        print(
            f"pair {k}: mode={report.mode} |delta|_H0={report.delta_h0_norm:.4g} "
            f"dikin={report.dikin_radius:.4g} -> {status}"
        )
    out = _out_dir(args, config)
    pio.dump_json({"pairs": reports}, out / "geometry.json")
    print(f"wrote {out / 'geometry.json'}")
    return 0 if failures == 0 else 1


def cmd_concentration(args) -> int:
    config = _load_run_config(args.config)
    section = config.sections.get("concentration", {})
    pio.check_keys(section, set(), {"instance", "n", "delta", "trials", "data_seed"}, "config.concentration")
    seed = _effective_seed(config)
    spec = _instance_spec(section.get("instance", {}), seed, "config.concentration.instance")
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
    out = _out_dir(args, config)
    pio.dump_json(pio.concentration_to_dict(report), out / "concentration.json")
    print(
        f"violation_frequency = {report.violation_frequency:.4f} "
        f"(threshold {report.frequency_threshold:.4f})"
    )
    print(f"wrote {out / 'concentration.json'}")
    return 0 if report.passed else 1


def cmd_validate(args) -> int:
    kind = pio.validate_file(args.path, args.kind)
    print(f"OK: {args.path} is a valid {kind}")
    return 0


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soft-irl",
        description="Entropy-regularized inverse RL on tabular finite-horizon MDPs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "solve": cmd_solve,
        "fit": cmd_fit,
        "rates": cmd_rates,
        "equivalence": cmd_equivalence,
        "counterexample": cmd_counterexample,
        "geometry": cmd_geometry,
        "concentration": cmd_concentration,
    }
    commands = {}
    for name, handler in handlers.items():
        sp = commands[name] = sub.add_parser(name, help=f"run the {name} command")
        sp.add_argument("--config", metavar="PATH", help="JSON run configuration")
        sp.add_argument("--output", metavar="DIR", help="output directory (overrides config)")
        sp.set_defaults(handler=handler)
    commands["solve"].add_argument(
        "--builtin", metavar="NAME", help=f"builtin instance ({', '.join(BUILTIN_NAMES)})"
    )
    commands["rates"].add_argument("--emit-plots", action="store_true", help="also write SVG charts")
    vp = sub.add_parser("validate", help="validate an input file")
    vp.add_argument("path", help="JSON file to check")
    vp.add_argument(
        "--kind",
        choices=["mdp", "dataset", "policy", "reward", "features"],
        help="expected kind (auto-detected when omitted)",
    )
    vp.set_defaults(handler=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
