"""Linearly parameterized rewards and the geometry of the soft value.

With ``r_theta = <theta, phi>`` the soft-optimal value ``J*(theta)`` is smooth
and convex in ``theta``; its derivatives have closed tabular forms:

* gradient: the feature expectation under the Gibbs policy of ``r_theta``;
* Hessian: ``1/beta`` times the summed second moments of per-step feature
  advantages under that policy (also ``beta`` times the Fisher information of
  the trajectory law);
* third derivative: a scaled third moment of the trajectory score, from two
  more policy-weighted backward passes.

The Hessian's kernel consists of directions that do not move the trajectory
law at all (potential-shaping combinations plus never-visited entries), which
is what :func:`kernel_basis` extracts and :func:`shaping_projector` removes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, InvariantError
from .mdp import (
    Dataset,
    Mdp,
    Policy,
    forward_occupancy,
    _as_float_array,
    _as_numbers,
    _as_paths,
    _check_real,
    _freeze,
    _occupancy,
    gather_table,
)
from .soft_dp import (
    RewardTable,
    SoftSolution,
    _advantage_sweep,
    _batch_optimal_values,
    _check_in_range,
    _expected_next,
    _gibbs_probs,
    _martingale_covariance,
    _path_max,
    feature_advantage,
    feature_values,
    policy_evaluate,
    soft_backward,
)

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Per-step feature vectors ``phi[t, s, a] in R^d``, finite; ``phi`` is
    stored as :class:`~soft_irl.mdp.Mdp` stores its arrays."""

    phi: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, "phi", ("T", "S", "A", "d"))

    @property
    def T(self) -> int:
        return self.phi.shape[0]

    @property
    def d(self) -> int:
        return self.phi.shape[3]


@dataclass(frozen=True, eq=False)
class LinearRewardModel:
    """A feature map together with a parameter vector inside a norm ball;
    ``theta`` is stored as :class:`~soft_irl.mdp.Mdp` stores its arrays.
    ``B_theta`` is a number above 0 (not a flag), ``inf`` for no ball."""

    features: FeatureMap
    theta: np.ndarray
    B_theta: float = float("inf")

    def __post_init__(self) -> None:
        _freeze(self, "theta", (self.features.d,))
        if self.B_theta != float("inf"):
            _check_real(self.B_theta, "LinearRewardModel.B_theta", 0.0)
        # finite for any finite theta; a float product rounds to inf past the
        # float range, where a numpy one warns
        if math.hypot(*self.theta) > float(self.B_theta) * (1.0 + 1e-12):
            raise InvariantError("theta lies outside the parameter ball")

    def with_theta(self, theta: np.ndarray) -> "LinearRewardModel":
        return LinearRewardModel(features=self.features, theta=theta, B_theta=self.B_theta)


@dataclass(frozen=True, eq=False)
class DerivativeBundle:
    """Value, gradient and Hessian of ``J*`` at one parameter.

    The Hessian is a sum over steps of Grams ``W_t.T @ W_t / beta`` (see
    :func:`_batch_derivatives`), exactly symmetric and positive semidefinite
    by construction.  The tests check both; this constructor, which runs on
    every accepted Newton iterate, does not.
    """

    J_star: float
    grad: np.ndarray
    hessian: np.ndarray


@dataclass(frozen=True)
class GeometryConstants:
    """Problem constants controlling the local geometry of ``J*``.

    ``B_phi`` bounds cumulative feature norms from any start time, ``B_A_phi``
    bounds trajectory score norms, ``lambda_star`` is the smallest Hessian
    eigenvalue at the reference parameter, ``d_star`` the effective dimension
    and ``rho_star`` the trust-region (Dikin) radius
    ``beta * sqrt(lambda_star) / B_A_phi``.  The two bounds are upper ends,
    path maxima of per-step norms, not exact maxima of the summed vectors.
    """

    B_phi: float
    B_A_phi: float
    lambda_star: float
    d_star: float
    rho_star: float

    def __post_init__(self) -> None:
        for name in ("B_phi", "B_A_phi", "lambda_star", "d_star", "rho_star"):
            if getattr(self, name) < 0.0:
                raise InvariantError(f"{name} must be non-negative")


@dataclass(frozen=True, eq=False)
class EffectiveDimension:
    """Feature-return covariance, its source decomposition and ``d_star``."""

    d_star: float
    Sigma_E: np.ndarray
    action_part: np.ndarray
    dynamics_part: np.ndarray


def reward_of(model: LinearRewardModel) -> RewardTable:
    """Materialize ``r_theta[t, s, a] = <theta, phi[t, s, a]>``."""
    return RewardTable(r=model.features.phi @ model.theta)


def solve_model(mdp: Mdp, model: LinearRewardModel, beta: float) -> SoftSolution:
    """Soft-optimal solution of the model's reward (convenience wrapper)."""
    return soft_backward(mdp, reward_of(model), beta)


def derivative_bundle(mdp: Mdp, model: LinearRewardModel, beta: float) -> DerivativeBundle:
    """Value, gradient and Hessian of ``J*`` at ``model.theta`` from one soft solve.

    The gradient is the feature expectation of the Gibbs policy; the Hessian
    is its occupancy-weighted second moment of per-step feature advantages,
    divided by ``beta``: a sum of per-step Grams of the advantages scaled by
    the root of the occupancy, taken one step at a time in one step's memory.
    """
    solution = solve_model(mdp, model, beta)
    probs = solution.pi_star.probs[:, None]
    grad, hessian = _batch_derivatives(mdp, model.features.phi, solution.beta, probs)
    return DerivativeBundle(J_star=solution.J_star, grad=grad[0], hessian=hessian[0])


def _batch_rewards(phi: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """``r_theta = <theta, phi>`` for each row of ``thetas``: shape ``(K, T, S, A)``.

    One ``gemv`` per parameter and ``(t, s)``, the calls ``phi @ theta`` makes
    for one parameter, so each table is bit for bit :func:`reward_of`'s (a
    single ``gemv`` over the flattened table would not be).
    """
    return (phi[None] @ thetas[:, None, None, :, None])[..., 0]


def _batch_soft_values(
    mdp: Mdp, phi: np.ndarray, beta: float, thetas: np.ndarray, trial: bool = False
) -> tuple:
    """Soft-optimal ``Q`` ``(T, K, S, A)`` and ``V`` ``(T+1, K, S)`` at each row
    of ``thetas`` ``(K, d)`` from one value pass, each bit for bit that of
    :func:`solve_model`.  A reward that overflows is an ``InvariantError``,
    and values that leave the float range are :func:`soft_backward`'s
    ``DomainError`` naming ``beta``, with no warning; a line-search ``trial``
    pass returns such values as they come instead, for its loss to reject."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = _batch_rewards(phi, thetas)
    if not np.isfinite(r).all():
        raise InvariantError("the reward at a parameter is not finite")
    if trial:
        return _batch_optimal_values(mdp, r, beta)
    with np.errstate(over="ignore", invalid="ignore"):
        Q, V = _batch_optimal_values(mdp, r, beta)
    _check_in_range(beta, Q, V)
    return Q, V


def _batch_derivatives(
    mdp: Mdp, phi: np.ndarray, beta: float, probs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients ``(K, d)`` and Hessians ``(K, d, d)`` of ``J*`` at ``K``
    parameters from their Gibbs policy tables ``probs`` of shape ``(T, K, S,
    A)``.

    The Hessian is the occupancy-weighted second moment of per-step feature
    advantages, divided by ``beta``.  One feature sweep
    (:func:`~soft_irl.soft_dp._advantage_sweep`) hands over each step's
    advantages ``(K, S, A, d)`` in turn, from ``t = T-1`` down to 0; they are
    scaled by the root of that step's occupancy in place, and the step's Gram
    ``W_t^T W_t``, one ``syrk`` per parameter, is added to the Hessian, so it
    is exactly symmetric and no ``(T, K, S, A, d)`` table is made.  The
    gradient, the feature expectation of the Gibbs policy, is ``<rho_0,
    V_0>`` of the sweep's last step.  Every product is a stacked matmul that
    makes, for each parameter, the BLAS call of a batch of one, so a
    parameter's derivatives do not depend on the batch it is in.
    """
    K, d = probs.shape[1], phi.shape[-1]
    root_mu = np.sqrt(_occupancy(mdp, probs))[..., None]
    H = np.zeros((K, d, d))
    for t, W, v in _advantage_sweep(mdp, phi, probs):
        W *= root_mu[t]
        W = W.reshape(K, -1, d)
        H += W.transpose(0, 2, 1) @ W
    return mdp.initial_dist @ v, H / beta


def batch_scores(adv: np.ndarray, states, actions) -> np.ndarray:
    """Trajectory scores ``Z[i] = sum_t adv[t, s_t, a_t]`` for index arrays:
    the gathered per-step advantages summed over the step axis."""
    return gather_table(adv, states, actions).sum(axis=1)


def score(mdp: Mdp, model: LinearRewardModel, beta: float, data: Dataset) -> np.ndarray:
    """Cumulative feature advantage of each trajectory of ``data`` under the
    model's Gibbs policy, shape ``(n, d)``.

    Dividing by ``beta`` gives the gradient of the trajectory log-likelihood
    with respect to ``theta``.
    """
    adv = feature_advantage(mdp, model.features, solve_model(mdp, model, beta).pi_star)
    _as_paths(data.states, data.actions, "dataset", adv.shape)
    return batch_scores(adv, data.states, data.actions)


def third_derivative(
    mdp: Mdp,
    model: LinearRewardModel,
    beta: float,
    xi: np.ndarray,
    zeta: np.ndarray,
    omega: np.ndarray,
) -> float:
    """Directional third derivative of ``J*``, exact at every size.

    Equals the third moment ``E[Z_xi Z_zeta Z_omega] / beta**2`` of projected
    trajectory scores under the Gibbs policy; symmetric in its directions.
    ``Z_u`` sums the per-step advantages ``x^u_t`` of the feature ``<u, phi>``,
    which have zero mean given ``s_t``, so every suffix sum ``R_t = x_t +
    R_{t+1}`` has zero mean given ``(s_t, a_t)`` and the cross terms with a
    single suffix factor vanish.  Two policy-weighted backward passes remain:
    one for the mixed second moments ``E[R^j_t R^k_t | s_t]`` of the three
    direction pairs, one for the third moment with local term
    ``x^xi x^zeta x^omega + sum_j x^j P_t E[R^k_{t+1} R^l_{t+1} | s_{t+1}]``.
    """
    named = {"xi": xi, "zeta": zeta, "omega": omega}
    d = model.features.d
    directions = np.stack([_as_float_array(u, name, (d,)) for name, u in named.items()], axis=1)
    pi = solve_model(mdp, model, beta).pi_star
    x = feature_advantage(mdp, model.features.phi @ directions, pi)  # (T, S, A, 3)
    pairs = ((1, 2), (0, 2), (0, 1))  # the other two directions of each one
    _, M2 = feature_values(mdp, np.stack([x[..., j] * x[..., k] for j, k in pairs], axis=-1), pi)
    next_M2 = np.zeros(x.shape)  # P_t M2_{t+1} of every step, 0 at the last
    _expected_next(mdp.kernels, M2[1:-1], next_M2[:-1])
    local = x[..., 0] * x[..., 1] * x[..., 2] + (x * next_M2).sum(axis=-1)
    _, M3 = feature_values(mdp, local[..., None], pi)
    return float(mdp.initial_dist @ M3[0, :, 0]) / beta**2


def _identifiable_split(
    mdp: Mdp, phi: np.ndarray, H: np.ndarray, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Bases (columns) ``(kernel, image)`` of a Hessian ``H`` of ``J*`` at
    temperature ``beta``, in the units of the features ``phi``: their
    deviations over the entries that the uniform (so every Gibbs) policy
    reaches; a feature of one value there is in the kernel.  Over the units,
    ``H`` is the same however the features are scaled, and its eigenvalues up
    to 1e-10 of the largest, or up to the rounding floor, are the kernel's (an
    orthonormal basis); the rest, over the units and off the kernel, span the
    image.  A deviation, unlike a range, does not grow with the table size.

    The floor is the most rounding can put in an eigenvalue, so that a kernel
    that is the whole space, where ``H`` is rounding alone, is seen.  A
    constant cancels from every advantage, so take each feature about its
    mean over the reached entries, and let ``M`` be the largest deviation
    there in the units.  A feature's values are then at most ``T M``, and a
    step of the backward sweep rounds them by at most ``(S + A + 2) eps T M``
    (a successor sum over ``S`` states, a policy sum over ``A`` actions, the
    advantage); so a kernel direction's advantages round to at most ``e =
    (S + A + 2) eps T**2 M``.  ``H`` sums their squares under occupancy
    weights of total 1 per step, over ``T`` steps, divided by ``beta``, and
    its ``d`` eigenvalues sum to its trace: none rounds above ``d T e**2 /
    beta``.  (A mean far above the deviation rounds the advantages more; that
    is left to the relative cut.)"""
    rows = phi[_occupancy(mdp, np.full((mdp.T, mdp.S, mdp.A), 1.0 / mdp.A)) > 0.0]  # a copy
    spread = np.ptp(rows, axis=0) > 0.0  # exact, where a constant's deviation can round above 0
    rows -= rows.mean(axis=0)  # the deviations, in the copy's own memory
    peak = np.maximum(rows.max(axis=0), -rows.min(axis=0))  # the largest |deviation|, no copy
    rows *= rows
    unit = np.where(spread, np.sqrt(rows.mean(axis=0)), 1.0)
    M = np.max(peak / unit, where=spread, initial=0.0)
    floor = phi.shape[-1] * mdp.T * ((mdp.S + mdp.A + 2) * _EPS * mdp.T**2 * M) ** 2 / beta
    w, V = np.linalg.eigh(np.where(spread & spread[:, None], H, 0.0) / np.outer(unit, unit))
    in_kernel = w <= max(1e-10 * w[-1], floor)
    kernel = np.linalg.qr(V[:, in_kernel] / unit[:, None])[0]
    image = V[:, ~in_kernel] / unit[:, None]
    return kernel, image - kernel @ (kernel.T @ image)


def kernel_basis(mdp: Mdp, features: FeatureMap) -> np.ndarray:
    """Orthonormal basis ``(d, k)`` of the Hessian's kernel, the directions that
    do not move the trajectory law: the same at every parameter and temperature,
    so read at ``theta = 0``, in feature units (:func:`_identifiable_split`)."""
    model = LinearRewardModel(features=features, theta=np.zeros(features.d))
    H = derivative_bundle(mdp, model, 1.0).hessian
    return _identifiable_split(mdp, features.phi, H, 1.0)[0]


def shaping_projector(
    mdp: Mdp, reward: RewardTable, policy: Policy, beta: float
) -> RewardTable:
    """Remove the potential-shaping component of ``reward`` relative to ``policy``.

    Subtracts the evaluated value and adds back its expected successor value,
    ``r_t - V_t + P_t V_{t+1}``.  The output evaluates to identically zero
    values under ``policy``, has no dynamics-noise variance, and is the
    minimum-variance representative of the input's shaping equivalence class.
    """
    evaluation = policy_evaluate(mdp, reward, policy, beta)
    return RewardTable(r=evaluation.Q - evaluation.V[:-1, :, None])


def effective_dimension(
    mdp: Mdp, features: FeatureMap, expert: Policy, H_star: np.ndarray
) -> EffectiveDimension:
    """Effective dimension ``tr(Sigma_E H_star^{-1})`` and its source split.

    ``Sigma_E`` is the covariance of the per-trajectory feature return under
    ``expert``.  The return minus its mean is a sum of martingale differences,
    the per-step feature advantages and dynamics-noise terms, so ``Sigma_E``
    is exactly their summed second moments: an action part and a dynamics
    part, both computed from occupancies.  Exact at every size, with no
    enumeration or sampling.  A singular ``H_star`` is a ``DomainError``.
    """
    H_star = _as_float_array(H_star, "H_star", (features.d, features.d))
    mu = forward_occupancy(mdp, expert)
    Qfeat, Vfeat = feature_values(mdp, features, expert)
    adv = Qfeat - Vfeat[:-1, :, None, :]
    action_part, dynamics_part = _martingale_covariance(mdp, mu, adv, Vfeat)
    Sigma_E = action_part + dynamics_part
    try:
        d_star = float(np.trace(np.linalg.solve(H_star, Sigma_E)))
    except np.linalg.LinAlgError as err:
        raise DomainError(f"H_star: d_star needs an invertible matrix ({err})") from None
    return EffectiveDimension(
        d_star=d_star,
        Sigma_E=Sigma_E,
        action_part=action_part,
        dynamics_part=dynamics_part,
    )


def _score_bound(mdp: Mdp, phi: np.ndarray, probs: np.ndarray) -> float:
    """Upper bound on the trajectory-score norm ``||sum_t adv_t(s_t, a_t)||``
    over every path and the ``K >= 1`` Gibbs policy tables ``probs`` ``(T, K,
    S, A)`` of the features ``phi``, from the caller's value pass.

    By the triangle inequality a score norm is at most the path's sum of
    per-step advantage norms ``||adv_t(s, a)||``; one feature sweep (each
    step's norms taken as the step comes) and one max-plus pass take the
    largest such sum for all at once.
    """
    norms = np.empty(probs.shape)
    for t, adv, _ in _advantage_sweep(mdp, phi, probs):
        # np.linalg.norm's sum of squares, in the sweep's buffer
        np.square(adv, out=adv).sum(axis=-1, out=norms[t])
    return float(_path_max(mdp, np.sqrt(norms, out=norms)).max())


def _dikin_radius(beta: float, lambda_min: float, B_A_phi: float) -> float:
    """Trust-region (Dikin) radius ``beta * sqrt(lambda_min) / B_A_phi``;
    ``inf`` when the score bound ``B_A_phi`` is 0."""
    return beta * math.sqrt(max(lambda_min, 0.0)) / B_A_phi if B_A_phi > 0 else float("inf")


def geometry_constants(
    mdp: Mdp,
    features: FeatureMap,
    model: LinearRewardModel,
    beta: float,
    theta_grid: np.ndarray | None = None,
    expert: Policy | None = None,
) -> GeometryConstants:
    """Compute the geometry constants of a linear-reward instance, at any size.

    The sup constants are path maxima over every dynamics-consistent
    trajectory, one max-plus pass each: ``B_phi`` of the per-step feature
    norms ``||phi_t(s, a)||``, ``B_A_phi`` of the per-step advantage norms
    (see :func:`_score_bound`) at the model's own parameter and over
    ``theta_grid``.  The one soft solve at ``model.theta`` gives the Hessian
    (``lambda_star``, ``rho_star``), ``d_star``'s default ``expert`` (the
    model's Gibbs policy) and the bound's first policy; a grid with rows takes
    one value pass more.  ``model`` must be on ``features`` (an ``InputError``
    otherwise), and ``theta_grid`` is read, before any solve, as a ``(K, d)``
    float array (a single row may be flat).
    """
    if not np.array_equal(model.features.phi, features.phi):
        raise InputError("model.features: its phi must equal features.phi")
    phi, d = features.phi, features.d
    grid = np.zeros((0, d)) if theta_grid is None else _as_float_array(
        np.atleast_2d(_as_numbers(theta_grid, "theta_grid")), "theta_grid", ("K", d)
    )
    solution = solve_model(mdp, model, beta)
    beta, pi = solution.beta, solution.pi_star
    probs = pi.probs[:, None]
    H = _batch_derivatives(mdp, phi, beta, probs)[1][0]
    B_phi = float(_path_max(mdp, np.linalg.norm(phi, axis=-1)[:, None])[0])
    if len(grid):
        grid_probs = _gibbs_probs(mdp, beta, _batch_soft_values(mdp, phi, beta, grid)[0])
        probs = np.concatenate([probs, grid_probs], axis=1)
    B_A_phi = _score_bound(mdp, phi, probs)

    # the Hessian is a Gram, so an eigenvalue below 0 is rounding
    lambda_star = max(float(np.linalg.eigvalsh(H).min()), 0.0)
    if _identifiable_split(mdp, features.phi, H, beta)[0].shape[1]:
        d_star = float("nan")  # undefined for a singular Hessian
    else:
        d_star = effective_dimension(mdp, features, pi if expert is None else expert, H).d_star
    return GeometryConstants(
        B_phi=B_phi,
        B_A_phi=B_A_phi,
        lambda_star=lambda_star,
        d_star=d_star,
        rho_star=_dikin_radius(beta, lambda_star, B_A_phi),
    )
