"""JSON/CSV serialization of the public types.

All writers are deterministic (sorted keys, fixed separators, trailing
newline) so identical runs produce byte-identical files.  Readers validate
eagerly and raise :class:`~soft_irl.errors.InputError` with the offending
path and field.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Any

import numpy as np

from .errors import InputError
from .experiments import (
    ConcentrationReport,
    GeometryCheckReport,
    RateConfig,
    RateReport,
)
from .linear_reward import FeatureMap
from .losses import NonconvexityReport, RiskReport
from .mdp import Dataset, Mdp, Policy
from .opt import IrlFitResult
from .soft_dp import RewardTable, SoftSolution


def to_json_text(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def dump_json(obj: Any, path: str | Path) -> None:
    Path(path).write_text(to_json_text(obj))


def load_json(path: str | Path) -> Any:
    if not isinstance(path, (str, Path)):
        raise InputError(f"expected a file path, got {path!r}")
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"{path}: cannot read file ({exc})") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc


def number_array(obj: Any, where: str) -> np.ndarray:
    """``obj`` as a float64 array: an ``InputError`` unless it nests numbers only."""
    try:
        arr = np.asarray(obj)
    except ValueError as exc:  # ragged nesting
        raise InputError(f"{where}: {exc}") from exc
    if arr.dtype.kind not in "iuf":
        raise InputError(f"{where}: expected a nested array of numbers")
    return arr.astype(np.float64)


def check_keys(obj: dict, required: set[str], optional: set[str], where: str) -> None:
    """Reject missing required keys and any unknown key."""
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    missing = required - obj.keys()
    if missing:
        raise InputError(f"{where}: missing required field(s) {sorted(missing)}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise InputError(f"{where}: unknown field(s) {sorted(unknown)}")


# --------------------------------------------------------------------------
# core types


def mdp_to_dict(mdp: Mdp) -> dict:
    return {
        "T": mdp.T,
        "S": mdp.S,
        "A": mdp.A,
        "initial_dist": mdp.initial_dist.tolist(),
        "kernels": mdp.kernels.tolist(),
        "ref_measure": mdp.ref_measure.tolist(),
    }


def mdp_from_dict(obj: dict, where: str = "mdp") -> Mdp:
    check_keys(obj, {"T", "S", "A", "initial_dist", "kernels", "ref_measure"}, set(), where)
    return Mdp(
        T=obj["T"],
        S=obj["S"],
        A=obj["A"],
        initial_dist=number_array(obj["initial_dist"], f"{where}.initial_dist"),
        kernels=number_array(obj["kernels"], f"{where}.kernels"),
        ref_measure=number_array(obj["ref_measure"], f"{where}.ref_measure"),
    )


def dataset_to_dict(data: Dataset) -> dict:
    return {
        "seed": data.seed,
        "generator_label": data.generator_label,
        "trajectories": [
            {"states": s, "actions": a}
            for s, a in zip(data.states.tolist(), data.actions.tolist())
        ],
    }


def dataset_from_dict(obj: dict, where: str = "dataset") -> Dataset:
    check_keys(obj, {"seed", "generator_label", "trajectories"}, set(), where)
    if not isinstance(obj["trajectories"], list):
        raise InputError(f"{where}.trajectories: expected a list")
    for i, item in enumerate(obj["trajectories"]):
        check_keys(item, {"states", "actions"}, set(), f"{where}.trajectories[{i}]")
    return Dataset(
        states=[item["states"] for item in obj["trajectories"]],
        actions=[item["actions"] for item in obj["trajectories"]],
        seed=obj["seed"],
        generator_label=str(obj["generator_label"]),
    )


def reward_from_obj(obj: Any, where: str = "reward") -> RewardTable:
    arr = number_array(obj, where)
    if arr.ndim != 3:
        raise InputError(f"{where}: expected a [t][s][a] nested array, got ndim={arr.ndim}")
    return RewardTable(r=arr)


def features_from_obj(obj: Any, where: str = "features") -> FeatureMap:
    arr = number_array(obj, where)
    if arr.ndim != 4:
        raise InputError(f"{where}: expected a [t][s][a][d] nested array, got ndim={arr.ndim}")
    return FeatureMap(phi=arr)


def policy_to_dict(policy: Policy) -> dict:
    return {"probs": policy.probs.tolist(), "label": policy.label}


def policy_from_dict(obj: dict, where: str = "policy") -> Policy:
    check_keys(obj, {"probs"}, {"label"}, where)
    return Policy(
        probs=number_array(obj["probs"], f"{where}.probs"), label=str(obj.get("label", ""))
    )


# --------------------------------------------------------------------------
# result types (write-only)


def solution_to_dict(solution: SoftSolution) -> dict:
    return {
        "beta": solution.beta,
        "V": solution.V.tolist(),
        "Q": solution.Q.tolist(),
        "pi_star": policy_to_dict(solution.pi_star),
        "J_star": solution.J_star,
    }


def fit_result_to_dict(result: IrlFitResult) -> dict:
    return {
        "theta_hat": np.asarray(result.theta_hat).tolist(),
        "final_loss": result.final_loss,
        "iterations": result.iterations,
        "final_decrement": result.final_decrement,
        "gradient_norm": result.gradient_norm,
        "hessian_at_solution": np.asarray(result.hessian_at_solution).tolist(),
        "active_ball_constraint": result.active_ball_constraint,
        "converged": result.converged,
        "trace": [dataclasses.asdict(rec) | {"theta": list(rec.theta)} for rec in result.trace],
    }


def risk_report_to_dict(report: RiskReport) -> dict:
    return dataclasses.asdict(report) | {
        "theta": list(report.theta),
        "equivalence_gap": report.equivalence_gap,
    }


def nonconvexity_to_dict(report: NonconvexityReport) -> dict:
    return dataclasses.asdict(report) | {
        "theta_a": list(report.theta_a),
        "theta_b": list(report.theta_b),
        "quasiconvexity_violated": report.quasiconvexity_violated,
    }


def geometry_report_to_dict(report: GeometryCheckReport) -> dict:
    return {
        "mode": report.mode,
        "delta_h0_norm": report.delta_h0_norm,
        "dikin_radius": report.dikin_radius,
        "deviation_bound": report.deviation_bound,
        "B_A_phi": report.B_A_phi,
        "all_passed": report.all_passed,
        "checks": [dataclasses.asdict(c) | {"passed": c.passed} for c in report.checks],
    }


def concentration_to_dict(report: ConcentrationReport) -> dict:
    out = dataclasses.asdict(report)
    out["etas"] = list(report.etas)
    out["passed"] = report.passed
    return out


def rate_config_to_dict(config: RateConfig) -> dict:
    out = dataclasses.asdict(config)
    out["instance"] = dataclasses.asdict(config.instance)
    out["n_grid"] = list(config.n_grid)
    out["fit"] = dataclasses.asdict(config.fit) if config.fit is not None else None
    return out


def rate_report_to_dict(report: RateReport) -> dict:
    return {
        "config": rate_config_to_dict(report.config),
        "theta_star": list(report.theta_star),
        "lambda_star": report.lambda_star,
        "d_star": report.d_star,
        "B_phi": report.B_phi,
        "B_A_phi": report.B_A_phi,
        "rho_star": report.rho_star,
        "burn_in_n": report.burn_in_n,
        "slope_window": list(report.slope_window),
        "approx_floor_kl": report.approx_floor_kl,
        "medians": {k: list(v) for k, v in report.medians.items()},
        "slopes": dict(report.slopes),
        "intercepts": dict(report.intercepts),
        "non_converged": report.non_converged,
        "d_star_beta_d_gap": report.d_star_beta_d_gap,
        "records": [dataclasses.asdict(r) for r in report.records],
    }


def rate_report_to_csv(report: RateReport, path: str | Path) -> None:
    """One row per (metric, n, replicate); the fitted slope is repeated per metric."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["metric", "n", "replicate", "value", "converged", "slope"])
        for rec in report.records:
            slope = report.slopes.get(rec.metric, "")
            writer.writerow([rec.metric, rec.n, rec.replicate, repr(rec.value), rec.converged, slope])


# --------------------------------------------------------------------------
# validation entry point


def detect_kind(obj: Any) -> str:
    if isinstance(obj, dict):
        if "kernels" in obj:
            return "mdp"
        if "trajectories" in obj:
            return "dataset"
        if "probs" in obj:
            return "policy"
        raise InputError("cannot detect input kind from object keys")
    arr = number_array(obj, "input")
    if arr.ndim == 3:
        return "reward"
    if arr.ndim == 4:
        return "features"
    raise InputError("cannot detect input kind (not an object, [t][s][a] or [t][s][a][d] array)")


def validate_file(path: str | Path, kind: str | None = None) -> str:
    """Check ``path`` against the invariants of its (detected) kind."""
    obj = load_json(path)
    kind = kind or detect_kind(obj)
    where = str(path)
    if kind == "mdp":
        mdp_from_dict(obj, where)
    elif kind == "dataset":
        dataset_from_dict(obj, where)
    elif kind == "policy":
        policy_from_dict(obj, where)
    elif kind == "reward":
        reward_from_obj(obj, where)
    elif kind == "features":
        features_from_obj(obj, where)
    else:
        raise InputError(f"unknown kind {kind!r}")
    return kind
