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

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvariantError
from .mdp import (
    DEFAULT_ENUMERATION_CAP,
    Dataset,
    Mdp,
    Policy,
    enumerate_support,
    forward_occupancy,
    gather_table,
    uniform_policy,
    _check_dataset,
    _occupancy_average,
    _path_rows,
    _path_sum,
)
from .soft_dp import (
    RewardTable,
    SoftSolution,
    _expected_next,
    _martingale_covariance,
    _weighted_second_moment,
    feature_advantage,
    feature_values,
    policy_evaluate,
    soft_backward,
)


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Per-step feature vectors ``phi[t, s, a] in R^d``."""

    phi: np.ndarray

    def __post_init__(self) -> None:
        phi = np.asarray(self.phi, dtype=np.float64)
        if phi.ndim != 4:
            raise DimensionError("phi", "(T, S, A, d)", phi.shape)
        if not np.all(np.isfinite(phi)):
            raise InvariantError("phi: feature entries must be finite")
        phi = np.ascontiguousarray(phi)
        phi.flags.writeable = False
        object.__setattr__(self, "phi", phi)

    @property
    def T(self) -> int:
        return self.phi.shape[0]

    @property
    def d(self) -> int:
        return self.phi.shape[3]


@dataclass(frozen=True, eq=False)
class LinearRewardModel:
    """A feature map together with a parameter vector inside a norm ball."""

    features: FeatureMap
    theta: np.ndarray
    B_theta: float = float("inf")

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.shape != (self.features.d,):
            raise DimensionError("theta", (self.features.d,), theta.shape)
        if not np.all(np.isfinite(theta)):
            raise InvariantError("theta: entries must be finite")
        theta = np.ascontiguousarray(theta)
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        if not self.B_theta > 0.0:
            raise InvariantError("B_theta must be positive")
        if float(np.linalg.norm(theta)) > self.B_theta * (1.0 + 1e-12):
            raise InvariantError("theta lies outside the parameter ball")

    def with_theta(self, theta: np.ndarray) -> "LinearRewardModel":
        return LinearRewardModel(features=self.features, theta=theta, B_theta=self.B_theta)


@dataclass(frozen=True, eq=False)
class DerivativeBundle:
    """Value, gradient and Hessian of ``J*`` at one parameter."""

    J_star: float
    grad: np.ndarray
    hessian: np.ndarray

    def __post_init__(self) -> None:
        hessian = np.asarray(self.hessian, dtype=np.float64)
        asym = float(np.max(np.abs(hessian - hessian.T))) if hessian.size else 0.0
        if asym > 1e-12:
            raise InvariantError(f"hessian asymmetry {asym:.3e} exceeds 1e-12")
        if float(np.linalg.eigvalsh(hessian).min()) < -1e-9:
            raise InvariantError("hessian has an eigenvalue below -1e-9")


@dataclass(frozen=True)
class GeometryConstants:
    """Problem constants controlling the local geometry of ``J*``.

    ``B_phi`` bounds cumulative feature norms from any start time, ``B_A_phi``
    bounds trajectory score norms, ``lambda_star`` is the smallest Hessian
    eigenvalue at the reference parameter, ``d_star`` the effective dimension
    and ``rho_star`` the trust-region (Dikin) radius
    ``beta * sqrt(lambda_star) / B_A_phi``.  ``mode`` records whether the sup
    constants came from exact enumeration or from conservative bounds.
    """

    B_phi: float
    B_A_phi: float
    lambda_star: float
    d_star: float
    rho_star: float
    mode: str = "exact"

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


def _gibbs_advantage(mdp: Mdp, model: LinearRewardModel, beta: float):
    """Soft solution of the model's reward and its Gibbs policy's feature advantages."""
    solution = solve_model(mdp, model, beta)
    return solution, feature_advantage(mdp, model.features, solution.pi_star)


def derivative_bundle(mdp: Mdp, model: LinearRewardModel, beta: float) -> DerivativeBundle:
    """Value, gradient and Hessian of ``J*`` at ``model.theta`` from one soft solve.

    The gradient is the feature expectation of the Gibbs policy; the Hessian
    is its occupancy-weighted second moment of per-step feature advantages,
    divided by ``beta``.
    """
    return _solution_bundle(mdp, model, solve_model(mdp, model, beta))


def _solution_bundle(
    mdp: Mdp, model: LinearRewardModel, solution: SoftSolution
) -> DerivativeBundle:
    """:func:`derivative_bundle` at ``model.theta`` from the soft solution of
    the model's reward, for callers that already hold it."""
    adv = feature_advantage(mdp, model.features, solution.pi_star)
    mu = forward_occupancy(mdp, solution.pi_star)
    return DerivativeBundle(
        J_star=solution.J_star,
        grad=_occupancy_average(mu, model.features.phi),
        hessian=_weighted_second_moment(mu, adv) / solution.beta,
    )


def batch_scores(adv: np.ndarray, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Trajectory scores ``Z[i] = sum_t adv[t, s_t, a_t]`` for index arrays.

    Summed in ``t`` order without the ``(N, T, ...)`` gather, bit-identical to
    ``gather_table(adv, states, actions).sum(axis=1)``.
    """
    flat = adv.reshape((-1,) + adv.shape[3:])
    return _path_sum(flat, _path_rows(adv.shape, states, actions))


def score(mdp: Mdp, model: LinearRewardModel, beta: float, data: Dataset) -> np.ndarray:
    """Cumulative feature advantage of each trajectory of ``data`` under the
    model's Gibbs policy, shape ``(n, d)``.

    Dividing by ``beta`` gives the gradient of the trajectory log-likelihood
    with respect to ``theta``.
    """
    _, adv = _gibbs_advantage(mdp, model, beta)
    _check_dataset(data, adv)
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
    pi = solve_model(mdp, model, beta).pi_star
    directions = np.stack([xi, zeta, omega], axis=1)
    x = feature_advantage(mdp, model.features.phi @ directions, pi)  # (T, S, A, 3)
    pairs = ((1, 2), (0, 2), (0, 1))  # the other two directions of each one
    _, M2 = feature_values(mdp, np.stack([x[..., j] * x[..., k] for j, k in pairs], axis=-1), pi)
    next_M2 = np.zeros(x.shape)
    for t in range(mdp.T - 1):
        next_M2[t] = _expected_next(mdp.kernels[t], M2[t + 1])
    local = x[..., 0] * x[..., 1] * x[..., 2] + (x * next_M2).sum(axis=-1)
    _, M3 = feature_values(mdp, local[..., None], pi)
    return float(mdp.initial_dist @ M3[0, :, 0]) / beta**2


def kernel_basis(H: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of a PSD matrix.

    An eigenvalue is assigned to the kernel when it does not exceed ``tol``
    times the largest eigenvalue (relative threshold).  Shape ``(d, k)``;
    ``k = 0`` when the matrix is numerically positive definite.
    """
    H = np.asarray(H, dtype=np.float64)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (H + H.T))
    top = float(eigvals[-1])
    if top <= 0.0:
        return eigvecs  # the whole space
    return eigvecs[:, eigvals <= tol * top]


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
    enumeration or sampling.
    """
    mu = forward_occupancy(mdp, expert)
    Qfeat, Vfeat = feature_values(mdp, features, expert)
    adv = Qfeat - Vfeat[:-1, :, None, :]
    action_part, dynamics_part = _martingale_covariance(mdp, mu, adv, Vfeat)
    Sigma_E = action_part + dynamics_part
    return EffectiveDimension(
        d_star=float(np.trace(np.linalg.solve(H_star, Sigma_E))),
        Sigma_E=Sigma_E,
        action_part=action_part,
        dynamics_part=dynamics_part,
    )


def max_cumulative_feature_norm(
    features: FeatureMap, states: np.ndarray, actions: np.ndarray
) -> float:
    """Max over trajectories and start times of ``||sum_{k>=t} phi_k||``."""
    gathered = gather_table(features.phi, states, actions)  # (N, T, d)
    suffix = np.cumsum(gathered[:, ::-1, :], axis=1)[:, ::-1, :]
    return float(np.sqrt((suffix**2).sum(axis=2)).max())


def max_score_norm(
    mdp: Mdp,
    features: FeatureMap,
    beta: float,
    thetas,
    states: np.ndarray,
    actions: np.ndarray,
) -> float:
    """Max trajectory-score norm over the given trajectories and parameters.

    The trajectories' flat table rows are built once and reused for every
    parameter; each score is the :func:`batch_scores` path sum.
    """
    rows = _path_rows(features.phi.shape, states, actions)
    best = 0.0
    for theta in thetas:
        model = LinearRewardModel(features=features, theta=np.asarray(theta, dtype=np.float64))
        _, adv = _gibbs_advantage(mdp, model, beta)
        Z = _path_sum(adv.reshape(-1, features.d), rows)
        best = max(best, float(np.linalg.norm(Z, axis=1).max()))
    return best


def geometry_constants(
    mdp: Mdp,
    features: FeatureMap,
    model: LinearRewardModel,
    beta: float,
    theta_grid: np.ndarray | None = None,
    expert: Policy | None = None,
) -> GeometryConstants:
    """Compute the geometry constants of a linear-reward instance.

    When ``(S*A)**T`` is within ``DEFAULT_ENUMERATION_CAP`` the sup constants
    are exact maxima over every dynamics-consistent trajectory (``B_A_phi``
    additionally over ``theta_grid`` plus the model's own parameter);
    otherwise the conservative triangle bound for ``B_phi`` and ``2 T B_phi``
    for ``B_A_phi`` are used, and ``mode`` says which.  ``lambda_star`` and
    ``rho_star`` refer to the Hessian at ``model.theta``; ``d_star`` uses
    ``expert`` (the model's own Gibbs policy by default).
    """
    exact = (mdp.S * mdp.A) ** mdp.T <= DEFAULT_ENUMERATION_CAP
    thetas = [np.asarray(model.theta, dtype=np.float64)]
    if theta_grid is not None:
        thetas.extend(np.atleast_2d(np.asarray(theta_grid, dtype=np.float64)))

    if exact:
        states, actions, _ = enumerate_support(mdp, uniform_policy(mdp))
        B_phi = max_cumulative_feature_norm(features, states, actions)
        B_A_phi = max_score_norm(mdp, features, beta, thetas, states, actions)
    else:
        B_phi = float(np.sqrt((features.phi**2).sum(axis=3)).max(axis=(1, 2)).sum())
        B_A_phi = 2.0 * mdp.T * B_phi

    solution = solve_model(mdp, model, beta)
    H = _solution_bundle(mdp, model, solution).hessian
    lambda_star = float(np.linalg.eigvalsh(H).min())
    if expert is None:
        expert = solution.pi_star
    if lambda_star > 1e-10:
        d_star = effective_dimension(mdp, features, expert, H).d_star
    else:
        d_star = float("nan")  # undefined for a singular Hessian
    rho_star = beta * np.sqrt(max(lambda_star, 0.0)) / B_A_phi if B_A_phi > 0 else float("inf")
    return GeometryConstants(
        B_phi=B_phi,
        B_A_phi=B_A_phi,
        lambda_star=lambda_star,
        d_star=d_star,
        rho_star=rho_star,
        mode="exact" if exact else "conservative",
    )
