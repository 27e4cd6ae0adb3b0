"""Damped Newton minimization of the convex feature-matching loss.

The loss ``L(theta) = J*(theta) - <theta, target>`` is smooth and convex with
an explicit Hessian, so a guarded Newton iteration with backtracking line
search converges in a handful of steps.  Three practical complications are
handled explicitly:

* The Hessian may be singular along directions that do not move the
  trajectory law (shaping directions).  Steps are restricted to the numerical
  image of the initial Hessian, so such coordinates simply stay at their
  initialization; a small ridge guards the retained spectrum when curvature
  later collapses along the run.
* An optional norm ball constrains the parameter.  Trial points are projected
  onto the ball inside the line search, and an active constraint at
  termination triggers a Newton polish on the sphere.
* Without the ball, a target outside the moment set ``M`` of feature
  expectations has no minimizer, and the iterates run off to infinity.  The
  support function of ``M`` is a max-plus (hard) DP, so each iterate's
  direction ``u = theta / |theta|`` is tested for separation,
  ``<u, target> > h_M(u)``; once it holds the loss is unbounded below along
  ``u`` and the fit stops as ``"infeasible"`` with ``u`` as its certificate.

The interior loop and the polish share one Newton step
(:func:`_restricted_newton_step`), one Armijo search (:func:`_line_search`)
and one way to a derivative bundle: a value-only soft pass, whose tables
become the bundle once the point is accepted.

Everything is deterministic: same inputs produce bitwise-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvariantError
from .mdp import (
    Dataset,
    Mdp,
    Policy,
    empirical_feature_expectation,
    feature_expectation,
    _check_count,
    _check_real,
)
from .linear_reward import FeatureMap, _eigen_split, _solution_bundle
from .soft_dp import _gibbs_solution, _optimal_value, _optimal_values

_RELATIVE_KERNEL_CUT = 1e-10  # eigenvalues below this fraction of the top one are "kernel"
# Separation margins up to this fraction of sum_t max |<u, phi_t>| (which bounds
# both <u, target> and h_M(u)) are taken for rounding, not for a certificate.
_RELATIVE_SEPARATION_CUT = 1e-9
# The ridge added to the restricted Hessian's spectrum once its smallest
# eigenvalue drops below the threshold.
_RIDGE = 1e-9
_RIDGE_THRESHOLD = 1e-10
# Armijo search: step sizes 1, 1/2, 1/4, ... above the floor; a step must
# achieve this fraction of the first-order decrease it predicts.
_LINE_SEARCH_FACTOR = 0.5
_LINE_SEARCH_FLOOR = 2.0**-60
_LINE_SEARCH_ACCEPT = 1e-4

FIT_STATUSES = ("converged", "infeasible", "max_iters", "stalled")


@dataclass(frozen=True)
class FitConfig:
    """Solver settings; defaults suit the desk-scale instances."""

    beta: float
    B_theta: float = float("inf")
    tol_decrement: float = 1e-10
    max_iters: int = 100

    def __post_init__(self) -> None:
        if self.B_theta != float("inf"):
            _check_real(self.B_theta, "FitConfig.B_theta", 0.0)
        for name in ("beta", "tol_decrement"):
            _check_real(getattr(self, name), f"FitConfig.{name}", 0.0)
        _check_count(self.max_iters, "FitConfig.max_iters")


@dataclass(frozen=True)
class IterationRecord:
    """One accepted Newton iteration (values at the iterate before the step)."""

    iteration: int
    loss: float
    decrement: float
    step_size: float
    ridge_used: bool
    theta: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class IrlFitResult:
    """Solution report of a fit.

    ``status`` is one of ``FIT_STATUSES``: ``"converged"`` when the Newton
    decrement (or, on an active ball, the projected-gradient gap) reached the
    tolerance; ``"infeasible"`` when the target lies outside the moment set,
    with ``separating_direction`` ``u`` and ``separation_margin`` ``m > 0``
    such that ``L(theta + s u) <= L(theta) - s m`` for every ``s >= 0``;
    ``"max_iters"`` when the iteration budget ran out; ``"stalled"`` when no
    step could decrease the loss.  A fit that did not converge is returned
    rather than raised.  ``trace`` records every iterate.
    """

    theta_hat: np.ndarray
    final_loss: float
    iterations: int
    final_decrement: float
    gradient_norm: float
    hessian_at_solution: np.ndarray
    active_ball_constraint: bool
    status: str
    trace: tuple[IterationRecord, ...]
    separating_direction: np.ndarray | None = None
    separation_margin: float | None = None

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _project_ball(theta: np.ndarray, radius: float) -> np.ndarray:
    norm = float(np.linalg.norm(theta))
    if norm <= radius:
        return theta
    return theta * (radius / norm)


def _restricted_newton_step(
    grad: np.ndarray, hessian: np.ndarray, image: np.ndarray
) -> tuple[np.ndarray, float, bool]:
    """Newton direction confined to the span of the orthonormal columns of ``image``.

    Returns ``(step, decrement, ridge_used)``, with ``<grad, step> =
    -decrement**2``, so the step is a descent direction.  The ridge kicks in
    whenever the curvature restricted to the image drops below
    ``_RIDGE_THRESHOLD`` — for example when the iterates run off toward a
    face of the feasible moment set — which keeps the decrement honest: it
    stays large as long as the restricted gradient is large, so divergent
    runs are reported as not converged rather than silently reclassified as
    flat.
    """
    if image.shape[1] == 0:
        return np.zeros_like(grad), 0.0, False
    w, V = np.linalg.eigh(image.T @ hessian @ image)
    ridge_used = bool(float(w[0]) < _RIDGE_THRESHOLD)
    if ridge_used:
        w = w + _RIDGE
    g_proj = V.T @ (image.T @ grad)
    step = -image @ (V @ (g_proj / w))
    decrement = float(np.sqrt((g_proj**2 / w).sum()))
    return step, decrement, ridge_used


def _loss_and_values(
    mdp: Mdp, phi: np.ndarray, target: np.ndarray, beta: float, theta: np.ndarray
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """``L(theta) = J*(theta) - <theta, target>`` from one value-only soft pass,
    with that pass's soft-optimal ``(Q, V)``.

    The checks of the public types stay at the boundary; the one that remains
    here keeps a non-finite trial reward from becoming a silent NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        r = phi @ theta
    if not np.isfinite(r).all():
        raise InvariantError("loss: the reward at the trial parameter is not finite")
    Q, V = _optimal_values(mdp, r, beta)
    return float(mdp.initial_dist @ V[0]) - float(theta @ target), (Q, V)


def _separation(
    mdp: Mdp, phi: np.ndarray, target: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, float] | None:
    """``(u, margin)`` if ``u = theta / |theta|`` separates ``target`` from the moment set.

    ``margin = <u, target> - h_M(u)``, where the support function ``h_M(u)``
    is the max-plus optimal value of the reward ``<u, phi>``.  ``None`` unless
    the margin exceeds the rounding cut.
    """
    norm = float(np.linalg.norm(theta))
    if norm == 0.0:
        return None
    u = theta / norm
    r = phi @ u
    margin = float(u @ target) - _optimal_value(mdp, r, 0.0)
    if margin <= _RELATIVE_SEPARATION_CUT * float(np.abs(r).max(axis=(1, 2)).sum()):
        return None
    return u, margin


def _line_search(value_pass, loss: float, directional: float, point_at):
    """Armijo backtracking along the curve ``point_at(alpha)``.

    Tries ``alpha = 1, 1/2, 1/4, ...`` above ``_LINE_SEARCH_FLOOR``.  Returns
    ``(found, full)``: ``found`` is ``(alpha, point, point_loss, values)`` for
    the first point whose value pass (``value_pass(point) = (loss, values)``)
    decreases ``loss`` by at least ``_LINE_SEARCH_ACCEPT * alpha *
    directional``, or ``None`` if no step size does; ``full`` is the first
    trial's ``(point, point_loss, values)``, at ``alpha = 1``.
    """
    alpha = 1.0
    full = None
    while alpha > _LINE_SEARCH_FLOOR:
        point = point_at(alpha)
        point_loss, values = value_pass(point)
        if full is None:
            full = point, point_loss, values
        if point_loss <= loss + _LINE_SEARCH_ACCEPT * alpha * directional:
            return (alpha, point, point_loss, values), full
        alpha *= _LINE_SEARCH_FACTOR
    return None, full


def _fit(mdp: Mdp, features: FeatureMap, target: np.ndarray, config: FitConfig) -> IrlFitResult:
    beta, phi, radius = config.beta, features.phi, config.B_theta
    bounded = radius != float("inf")  # a ball-constrained problem always has a minimizer

    def value_pass(theta: np.ndarray):
        return _loss_and_values(mdp, phi, target, beta, theta)

    def bundle_from(values):
        # the derivative bundle from a value pass already made: no second soft pass
        return _solution_bundle(mdp, features, _gibbs_solution(mdp, beta, *values))

    def newton_step(bundle):
        return _restricted_newton_step(bundle.grad - target, bundle.hessian, image)

    theta = np.zeros(features.d)
    loss, values = value_pass(theta)
    bundle = bundle_from(values)
    # the identifiable subspace, fixed at the start
    image = _eigen_split(bundle.hessian, _RELATIVE_KERNEL_CUT)[1]
    trace: list[IterationRecord] = []
    status = "max_iters"
    separation = None
    decrement = float("nan")
    iterations = 0

    for it in range(config.max_iters):
        grad = bundle.grad - target
        step, decrement, ridge_used = newton_step(bundle)
        trace.append(
            IterationRecord(
                iteration=it,
                loss=loss,
                decrement=decrement,
                step_size=0.0,
                ridge_used=ridge_used,
                theta=tuple(float(x) for x in theta),
            )
        )
        if decrement <= config.tol_decrement:
            status = "converged"
            break
        if not bounded:
            separation = _separation(mdp, phi, target, theta)
            if separation is not None:
                status = "infeasible"
                break

        found, full = _line_search(
            value_pass, loss, float(grad @ step), lambda a: _project_ball(theta + a * step, radius)
        )
        if found is not None and found[2] < loss:
            alpha, theta, loss, values = found
            bundle = bundle_from(values)
        elif not ridge_used and decrement <= 0.25:
            # The loss is flat to float resolution around the iterate, which is
            # exactly what the bottom of a well-conditioned quadratic bowl looks
            # like once the true descent per step drops below one ulp, so loss
            # differences can no longer judge a step.  The full Newton step
            # still refines the iterate (the decrement contracts quadratically):
            # take it when it shrinks the decrement.  The search's first trial
            # already solved that point.
            full_point, full_loss, full_values = full
            full_bundle = bundle_from(full_values)
            if not newton_step(full_bundle)[1] < decrement:
                status = "stalled"
                break
            alpha, theta, loss, bundle = 1.0, full_point, full_loss, full_bundle
        else:
            status = "stalled"  # cannot make progress (flat to machine precision)
            break
        trace[-1] = replace(trace[-1], step_size=alpha)
        iterations = it + 1

    active = float(np.linalg.norm(theta)) >= radius * (1.0 - 1e-9)
    if active:
        theta, loss, bundle = _polish_on_ball(value_pass, bundle_from, target, radius, theta)
    grad = bundle.grad - target
    if status != "converged" and active:
        # on the boundary the Newton decrement is not the right certificate;
        # report the projected-gradient stationarity gap (which equals the
        # Lagrangian gradient norm at a KKT point) instead
        step_vec = _project_ball(theta - grad, radius) - theta
        decrement = float(np.linalg.norm(step_vec))
        if decrement <= max(config.tol_decrement, 1e-8):
            status = "converged"

    return IrlFitResult(
        theta_hat=theta,
        final_loss=loss,
        iterations=iterations,
        final_decrement=float(decrement),
        gradient_norm=float(np.linalg.norm(grad)),
        hessian_at_solution=bundle.hessian,
        active_ball_constraint=bool(active),
        status=status,
        trace=tuple(trace),
        separating_direction=None if separation is None else separation[0],
        separation_margin=None if separation is None else separation[1],
    )


def _polish_on_ball(value_pass, bundle_from, target: np.ndarray, radius: float, theta: np.ndarray):
    """Newton refinement on the sphere once the ball constraint is active.

    The constrained minimizer sits on the boundary.  Each step is the
    restricted Newton step of the Lagrangian Hessian (loss curvature plus the
    constraint term) on the tangent space at the current point, and
    :func:`_line_search` runs along its retraction back onto the sphere.
    ``value_pass`` and ``bundle_from`` are the fit's.  Returns the final
    point, its loss and its derivative bundle.
    """
    import scipy.linalg

    def retract(point: np.ndarray) -> np.ndarray:
        return point * (radius / float(np.linalg.norm(point)))

    theta = retract(theta)
    loss, values = value_pass(theta)
    bundle = bundle_from(values)
    for _ in range(100):
        grad = bundle.grad - target
        tangent = scipy.linalg.null_space(theta[None, :] / radius)
        if tangent.shape[1] == 0:
            break  # d = 1: the sphere is a point pair, nothing to refine
        if float(np.linalg.norm(tangent.T @ grad)) <= 1e-12:
            break
        multiplier = max(-float(grad @ theta) / (radius * radius), 0.0)
        lagrangian = bundle.hessian + multiplier * np.eye(theta.shape[0])
        step = _restricted_newton_step(grad, lagrangian, tangent)[0]
        found = _line_search(
            value_pass, loss, float(grad @ step), lambda a: retract(theta + a * step)
        )[0]
        if found is None:
            break
        _, theta, loss, values = found
        bundle = bundle_from(values)
    return theta, loss, bundle


def fit_empirical(
    mdp: Mdp, features: FeatureMap, data: Dataset, config: FitConfig
) -> IrlFitResult:
    """Minimize the empirical feature-matching loss over the parameter ball."""
    target = empirical_feature_expectation(data, features)
    return _fit(mdp, features, target, config)


def fit_population(
    mdp: Mdp, features: FeatureMap, expert: Policy, config: FitConfig
) -> IrlFitResult:
    """Minimize the population loss; its minimizer is the projection target
    that empirical fits converge to as the sample grows."""
    target = feature_expectation(mdp, expert, features)
    return _fit(mdp, features, target, config)
