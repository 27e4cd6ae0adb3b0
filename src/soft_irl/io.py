"""JSON/CSV serialization of the public types.

A type's JSON is its dataclass: :func:`to_json_text` writes its fields and
the values it derives, so a field added to a report reaches its file with no
edit here.  Only a dataset has a layout of its own (:func:`dataset_to_dict`).
All writers are deterministic (sorted keys, fixed separators, trailing
newline) so identical runs produce byte-identical files.  Readers validate
eagerly and raise :class:`~soft_irl.errors.InputError` with the offending
path and field.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any

import numpy as np

from .errors import InputError
from .experiments import (
    ConcentrationReport,
    GeometryCheck,
    GeometryCheckReport,
    RateReport,
)
from .linear_reward import FeatureMap
from .losses import NonconvexityReport, RiskReport
from .mdp import Dataset, Mdp, Policy, _as_float_array, _as_numbers
from .opt import IrlFitResult
from .soft_dp import RewardTable


# Values a report type derives from its fields, written next to them.
_DERIVED = {
    IrlFitResult: ("converged",),
    RiskReport: ("equivalence_gap",),
    NonconvexityReport: ("quasiconvexity_violated",),
    GeometryCheck: ("passed",),
    GeometryCheckReport: ("all_passed",),
    ConcentrationReport: ("passed",),
    RateReport: ("fit_statuses", "non_converged"),
}


def _to_json(obj: Any) -> Any:
    """The ``json`` form of an object the encoder cannot write as it is.

    An array is its nested lists.  A dataclass is its fields, without an
    optional field still at its ``None`` default, plus its derived values.
    """
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        out = {}
        for field in dataclasses.fields(obj):
            value = getattr(obj, field.name)
            if value is not None or field.default is not None:
                out[field.name] = value
        for name in _DERIVED.get(type(obj), ()):
            out[name] = getattr(obj, name)
        return out
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def to_json_text(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_to_json) + "\n"


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


def mdp_from_dict(obj: dict, where: str = "mdp") -> Mdp:
    check_keys(obj, {"T", "S", "A", "initial_dist", "kernels", "ref_measure"}, set(), where)
    return Mdp(
        T=obj["T"],
        S=obj["S"],
        A=obj["A"],
        initial_dist=_as_numbers(obj["initial_dist"], f"{where}.initial_dist"),
        kernels=_as_numbers(obj["kernels"], f"{where}.kernels"),
        ref_measure=_as_numbers(obj["ref_measure"], f"{where}.ref_measure"),
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
    return RewardTable(r=_as_float_array(obj, where, ("T", "S", "A")))


def features_from_obj(obj: Any, where: str = "features") -> FeatureMap:
    return FeatureMap(phi=_as_float_array(obj, where, ("T", "S", "A", "d")))


def policy_from_dict(obj: dict, where: str = "policy") -> Policy:
    check_keys(obj, {"probs"}, {"label"}, where)
    return Policy(
        probs=_as_numbers(obj["probs"], f"{where}.probs"), label=str(obj.get("label", ""))
    )


# --------------------------------------------------------------------------
# the rate report as a table


def rate_report_to_csv(report: RateReport, path: str | Path) -> None:
    """One row per (metric, n, replicate), in (n, replicate, metric) order;
    the fitted slope is repeated per metric.  The lines are those
    ``csv.writer`` writes, ``\r\n``-terminated (no field holds a comma, a
    quote or a line break, so none is quoted), joined and written at once."""
    slopes = {metric: str(report.slopes.get(metric, "")) for metric in report.values}
    lines = ["metric,n,replicate,value,converged,slope,status"]
    for i, n in enumerate(report.config.n_grid):
        for rep, status in enumerate(report.statuses[i]):
            converged = status == "converged"
            for metric, grid in report.values.items():
                value, slope = grid[i][rep], slopes[metric]
                lines.append(f"{metric},{n},{rep},{value!r},{converged},{slope},{status}")
    lines.append("")
    Path(path).write_text("\r\n".join(lines), newline="")


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
    rank = _as_numbers(obj, "input").ndim
    if rank == 3:
        return "reward"
    if rank == 4:
        return "features"
    raise InputError("cannot detect input kind (not an object, [t][s][a] or [t][s][a][d] array)")


# The reader of each kind of input file.
FILE_KINDS = {
    "mdp": mdp_from_dict,
    "dataset": dataset_from_dict,
    "policy": policy_from_dict,
    "reward": reward_from_obj,
    "features": features_from_obj,
}


def validate_file(path: str | Path, kind: str | None = None) -> str:
    """Check ``path`` against the invariants of its (detected) kind."""
    obj = load_json(path)
    kind = kind or detect_kind(obj)
    if kind not in FILE_KINDS:
        raise InputError(f"unknown kind {kind!r}")
    FILE_KINDS[kind](obj, str(path))
    return kind
