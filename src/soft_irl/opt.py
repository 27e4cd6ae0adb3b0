"""Damped Newton minimization of the convex feature-matching loss.

The loss ``L(theta) = J*(theta) - <theta, target>`` is smooth and convex with
an explicit Hessian, so a guarded Newton iteration with backtracking line
search converges in a handful of steps.  Two practical complications are
handled explicitly:

* The Hessian may be singular along directions that do not move the
  trajectory law (shaping directions).  Steps are restricted to the numerical
  image of the initial Hessian, so such coordinates simply stay at their
  initialization; a small ridge guards the retained spectrum when curvature
  later collapses along the run.
* An optional norm ball constrains the parameter.  Trial points are projected
  onto the ball inside the line search, and an active constraint at
  termination triggers a projected-gradient polish.
* Without the ball, a target outside the moment set ``M`` of feature
  expectations has no minimizer, and the iterates run off to infinity.  The
  support function of ``M`` is a max-plus (hard) DP, so each iterate's
  direction ``u = theta / |theta|`` is tested for separation,
  ``<u, target> > h_M(u)``; once it holds the loss is unbounded below along
  ``u`` and the fit stops as ``"infeasible"`` with ``u`` as its certificate.

Everything is deterministic: same inputs produce bitwise-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
from .linear_reward import FeatureMap, LinearRewardModel, derivative_bundle, _solution_bundle
from .soft_dp import _gibbs_solution, _optimal_value, _optimal_values

_RELATIVE_KERNEL_CUT = 1e-10  # eigenvalues below this fraction of the top one are "kernel"
# Separation margins up to this fraction of sum_t max |<u, phi_t>| (which bounds
# both <u, target> and h_M(u)) are taken for rounding, not for a certificate.
_RELATIVE_SEPARATION_CUT = 1e-9

FIT_STATUSES = ("converged", "infeasible", "max_iters", "stalled")


@dataclass(frozen=True)
class FitConfig:
    """Solver settings; defaults suit the desk-scale instances."""

    beta: float
    B_theta: float = float("inf")
    tol_decrement: float = 1e-10
    max_iters: int = 100
    ridge: float = 1e-9
    ridge_threshold: float = 1e-10
    line_search_factor: float = 0.5
    line_search_accept: float = 1e-4

    def __post_init__(self) -> None:
        if self.B_theta != float("inf"):
            _check_real(self.B_theta, "FitConfig.B_theta", 0.0)
        for name in ("beta", "tol_decrement", "ridge", "ridge_threshold"):
            _check_real(getattr(self, name), f"FitConfig.{name}", 0.0)
        for name in ("line_search_factor", "line_search_accept"):
            _check_real(getattr(self, name), f"FitConfig.{name}", 0.0, 1.0)
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


def _image_basis(hessian: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the numerical image of a PSD matrix.

    Eigenvalues that are a negligible fraction of the largest mark flat
    (shaping) directions of the loss.  The basis is computed once, at the
    initial Hessian, and the iteration never moves along the excluded
    directions.
    """
    eigvals, eigvecs = np.linalg.eigh(hessian)
    top = float(eigvals[-1])
    if top <= 0.0:
        return eigvecs[:, :0]
    return eigvecs[:, eigvals > _RELATIVE_KERNEL_CUT * top]


def _restricted_newton_step(
    grad: np.ndarray, hessian: np.ndarray, image: np.ndarray, ridge: float, ridge_threshold: float
) -> tuple[np.ndarray, float, bool]:
    """Newton direction confined to the fixed image subspace.

    Returns ``(step, decrement, ridge_used)``.  The ridge kicks in whenever
    the curvature restricted to the image drops below ``ridge_threshold`` —
    for example when the iterates run off toward a face of the feasible
    moment set — which keeps the decrement honest: it stays large as long as
    the restricted gradient is large, so divergent runs are reported as not
    converged rather than silently reclassified as flat.
    """
    if image.shape[1] == 0:
        return np.zeros_like(grad), 0.0, False
    w, V = np.linalg.eigh(image.T @ hessian @ image)
    ridge_used = bool(float(w[0]) < ridge_threshold)
    if ridge_used:
        w = w + ridge
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


def _loss(mdp: Mdp, phi: np.ndarray, target: np.ndarray, beta: float, theta: np.ndarray) -> float:
    """``L(theta)`` alone, as :func:`_loss_and_values` computes it."""
    return _loss_and_values(mdp, phi, target, beta, theta)[0]


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


def _fit(mdp: Mdp, features: FeatureMap, target: np.ndarray, config: FitConfig) -> IrlFitResult:
    beta = config.beta
    phi = features.phi
    model0 = LinearRewardModel(features=features, theta=np.zeros(features.d), B_theta=config.B_theta)
    bounded = config.B_theta != float("inf")  # a ball-constrained problem always has a minimizer

    def loss_at(theta: np.ndarray) -> float:
        return _loss(mdp, phi, target, beta, theta)

    def bundle_at(theta: np.ndarray):
        return derivative_bundle(mdp, model0.with_theta(theta), beta)

    def bundle_from(theta: np.ndarray, values):
        # the line search already solved the accepted point: no second soft pass
        solution = _gibbs_solution(mdp, beta, *values)
        return _solution_bundle(mdp, model0.with_theta(theta), solution)

    def newton_step(bundle):
        return _restricted_newton_step(
            bundle.grad - target, bundle.hessian, image, config.ridge, config.ridge_threshold
        )

    theta = np.zeros(features.d)
    bundle = bundle_at(theta)
    loss = bundle.J_star
    image = _image_basis(bundle.hessian)  # the identifiable subspace, fixed at the start
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

        # backtracking line search on the (ball-projected) Newton step
        directional = float(grad @ step)  # = -decrement**2
        alpha = 1.0
        accepted = False
        while alpha > 2.0**-60:
            candidate = _project_ball(theta + alpha * step, config.B_theta)
            candidate_loss, candidate_values = _loss_and_values(mdp, phi, target, beta, candidate)
            if candidate_loss <= loss + config.line_search_accept * alpha * directional:
                accepted = True
                break
            alpha *= config.line_search_factor

        next_bundle = None
        stalled = (not accepted) or candidate_loss >= loss
        if stalled and not ridge_used and decrement <= 0.25:
            # The loss is flat to float resolution around the iterate, which is
            # exactly what the bottom of a well-conditioned quadratic bowl looks
            # like once the true descent per step drops below one ulp, so loss
            # differences can no longer judge a step.  The full Newton step
            # still refines the iterate (the decrement contracts quadratically):
            # take it when it shrinks the decrement.
            full = _project_ball(theta + step, config.B_theta)
            full_bundle = bundle_at(full)
            if newton_step(full_bundle)[1] < decrement:
                candidate, alpha = full, 1.0
                candidate_loss = full_bundle.J_star - float(full @ target)
                next_bundle = full_bundle
                stalled = False
        if stalled:
            status = "stalled"  # cannot make progress (flat to machine precision)
            break
        trace[-1] = replace(trace[-1], step_size=alpha)
        theta, loss = candidate, candidate_loss
        bundle = next_bundle if next_bundle is not None else bundle_from(theta, candidate_values)
        iterations = it + 1

    active = float(np.linalg.norm(theta)) >= config.B_theta * (1.0 - 1e-9)
    if active:
        theta, loss = _polish_on_ball(loss_at, mdp, features, target, config, theta)
        bundle = bundle_at(theta)
    grad = bundle.grad - target
    if status != "converged" and active:
        # on the boundary the Newton decrement is not the right certificate;
        # report the projected-gradient stationarity gap (which equals the
        # Lagrangian gradient norm at a KKT point) instead
        step_vec = _project_ball(theta - grad, config.B_theta) - theta
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


def _polish_on_ball(loss_at, mdp, features, target, config: FitConfig, theta: np.ndarray):
    """Newton refinement on the sphere once the ball constraint is active.

    The constrained minimizer sits on the boundary, so the iteration runs in
    an orthonormal basis of the tangent space at the current point, using the
    Lagrangian Hessian (loss curvature plus the constraint term), and retracts
    each step back onto the sphere under a backtracking guard.
    """
    import scipy.linalg

    B = config.B_theta
    d = theta.shape[0]
    model0 = LinearRewardModel(features=features, theta=np.zeros(d), B_theta=B)
    theta = theta * (B / float(np.linalg.norm(theta)))
    loss = loss_at(theta)
    for _ in range(100):
        bundle = derivative_bundle(mdp, model0.with_theta(theta), config.beta)
        grad = bundle.grad - target
        tangent = scipy.linalg.null_space(theta[None, :] / B)
        if tangent.shape[1] == 0:
            break  # d = 1: the sphere is a point pair, nothing to refine
        g_t = tangent.T @ grad
        if float(np.linalg.norm(g_t)) <= 1e-12:
            break
        multiplier = max(-float(grad @ theta) / (B * B), 0.0)
        H_t = tangent.T @ (bundle.hessian + multiplier * np.eye(d)) @ tangent
        try:
            step = np.linalg.solve(H_t, -g_t)
        except np.linalg.LinAlgError:
            step = -g_t
        if float(g_t @ step) >= 0.0:  # not a descent direction; fall back
            step = -g_t
        alpha, accepted = 1.0, False
        while alpha > 2.0**-40:
            candidate = theta + tangent @ (alpha * step)
            candidate *= B / float(np.linalg.norm(candidate))
            candidate_loss = loss_at(candidate)
            if candidate_loss <= loss + 1e-4 * alpha * float(g_t @ step):
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        theta, loss = candidate, candidate_loss
    return theta, loss


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
