"""Linearly parameterized rewards and the geometry of the soft value.

With ``r_theta = <theta, phi>`` the soft-optimal value ``J*(theta)`` is smooth
and convex in ``theta``; its derivatives have closed tabular forms:

* gradient: the feature expectation under the Gibbs policy of ``r_theta``;
* Hessian: ``1/beta`` times the summed second moments of per-step feature
  advantages under that policy (also ``beta`` times the Fisher information of
  the trajectory law);
* third derivative: a scaled third moment of the trajectory score.

The Hessian's kernel consists of directions that do not move the trajectory
law at all (potential-shaping combinations plus never-visited entries), which
is what :func:`kernel_basis` extracts and :func:`shaping_projector` removes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, InvariantError
from .mdp import (
    DEFAULT_ENUMERATION_CAP,
    Mdp,
    Policy,
    Trajectory,
    enumerate_support,
    forward_occupancy,
    uniform_policy,
    _check_trajectory,
)
from .soft_dp import (
    RewardTable,
    SoftSolution,
    feature_advantage,
    feature_values,
    policy_evaluate,
    soft_backward,
)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def _weighted_second_moment(mu: np.ndarray, adv: np.ndarray) -> np.ndarray:
    """``sum_{t,s,a} mu[t,s,a] adv[t,s,a] adv[t,s,a]^T`` as one matmul, symmetrized."""
    flat = adv.reshape(-1, adv.shape[-1])
    M = (flat * mu.reshape(-1, 1)).T @ flat
    return 0.5 * (M + M.T)


def derivative_bundle(mdp: Mdp, model: LinearRewardModel, beta: float) -> DerivativeBundle:
    """Value, gradient and Hessian of ``J*`` at ``model.theta`` from one soft solve.

    The gradient is the feature expectation of the Gibbs policy; the Hessian
    is its occupancy-weighted second moment of per-step feature advantages,
    divided by ``beta``.
    """
    solution, adv = _gibbs_advantage(mdp, model, beta)
    mu = forward_occupancy(mdp, solution.pi_star).mu
    grad = mu.ravel() @ model.features.phi.reshape(-1, model.features.d)
    return DerivativeBundle(
        J_star=solution.J_star, grad=grad, hessian=_weighted_second_moment(mu, adv) / beta
    )


def batch_scores(adv: np.ndarray, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Trajectory scores ``Z[i] = sum_t adv[t, s_t, a_t]`` for index arrays."""
    T = states.shape[1]
    return adv[np.arange(T)[None, :], states, actions].sum(axis=1)


def score(mdp: Mdp, model: LinearRewardModel, beta: float, tau: Trajectory) -> np.ndarray:
    """Cumulative feature advantage of ``tau`` under the model's Gibbs policy.

    Dividing by ``beta`` gives the gradient of the trajectory log-likelihood
    with respect to ``theta``.
    """
    _check_trajectory(mdp, tau)
    _, adv = _gibbs_advantage(mdp, model, beta)
    states = np.asarray(tau.states, dtype=np.int64)[None, :]
    actions = np.asarray(tau.actions, dtype=np.int64)[None, :]
    return batch_scores(adv, states, actions)[0]


def third_derivative(
    mdp: Mdp,
    model: LinearRewardModel,
    beta: float,
    xi: np.ndarray,
    zeta: np.ndarray,
    omega: np.ndarray,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> float:
    """Directional third derivative of ``J*`` via exact trajectory enumeration.

    Equals the third moment ``E[Z_xi Z_zeta Z_omega] / beta**2`` of projected
    trajectory scores under the Gibbs policy; symmetric in its directions.
    """
    solution, adv = _gibbs_advantage(mdp, model, beta)
    states, actions, probs = enumerate_support(mdp, solution.pi_star, enumeration_cap)
    Z = batch_scores(adv, states, actions)
    return float(probs @ ((Z @ xi) * (Z @ zeta) * (Z @ omega))) / beta**2


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


def _feature_delta_covariance(mdp: Mdp, Vfeat: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """``sum_t E[delta_t,phi delta_t,phi^T]`` from occupancies (no enumeration).

    ``Vfeat`` is the ``(T+1, S, d)`` per-coordinate value table; each step's
    dynamics-noise covariance is the conditional covariance of the successor
    value under the kernel, averaged over the current occupancy.
    """
    d = Vfeat.shape[-1]
    M = np.zeros((d, d))
    # step 0: randomness of the initial state
    mean0 = mdp.initial_dist @ Vfeat[0]
    M += np.einsum("s,sd,se->de", mdp.initial_dist, Vfeat[0], Vfeat[0]) - np.outer(mean0, mean0)
    for k in range(1, mdp.T):
        kern = mdp.kernels[k - 1]  # (S, A, S)
        second = np.einsum("saz,zd,ze->sade", kern, Vfeat[k], Vfeat[k])
        mean = np.einsum("saz,zd->sad", kern, Vfeat[k])
        cond_cov = second - np.einsum("sad,sae->sade", mean, mean)
        M += np.einsum("sa,sade->de", mu[k - 1], cond_cov)
    return M


def effective_dimension(
    mdp: Mdp,
    features: FeatureMap,
    expert: Policy,
    H_star: np.ndarray,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
    mc_samples: int = 200_000,
    mc_seed: int = 2**32 - 59,
) -> EffectiveDimension:
    """Effective dimension ``tr(Sigma_E H_star^{-1})`` and its source split.

    ``Sigma_E`` is the covariance of the per-trajectory feature return under
    ``expert``, computed exactly by enumeration when ``(S*A)**T`` fits the
    cap and by seeded Monte Carlo otherwise.  It decomposes into an action
    part (summed feature-advantage second moments) and a dynamics part
    (summed dynamics-noise second moments), both computed from occupancies.
    """
    from .mdp import sample_trajectories

    phi = features.phi
    mu = forward_occupancy(mdp, expert).mu
    Qfeat, Vfeat = feature_values(mdp, features, expert)
    adv = Qfeat - Vfeat[:-1, :, None, :]
    action_part = _weighted_second_moment(mu, adv)
    dynamics_part = _feature_delta_covariance(mdp, Vfeat, mu)

    if (mdp.S * mdp.A) ** mdp.T <= enumeration_cap:
        states, actions, probs = enumerate_support(mdp, expert, enumeration_cap)
        F = phi[np.arange(mdp.T)[None, :], states, actions].sum(axis=1)
        mean = probs @ F
        centered = F - mean
        Sigma_E = np.einsum("n,nd,ne->de", probs, centered, centered)
    else:
        data = sample_trajectories(mdp, expert, mc_samples, mc_seed)
        states, actions = data.stacked()
        F = phi[np.arange(mdp.T)[None, :], states, actions].sum(axis=1)
        centered = F - F.mean(axis=0)
        Sigma_E = centered.T @ centered / len(data)

    Sigma_E = 0.5 * (Sigma_E + Sigma_E.T)
    d_star = float(np.trace(np.linalg.solve(H_star, Sigma_E)))
    return EffectiveDimension(
        d_star=d_star,
        Sigma_E=Sigma_E,
        action_part=action_part,
        dynamics_part=0.5 * (dynamics_part + dynamics_part.T),
    )


def max_cumulative_feature_norm(
    features: FeatureMap, states: np.ndarray, actions: np.ndarray
) -> float:
    """Max over trajectories and start times of ``||sum_{k>=t} phi_k||``."""
    phi = features.phi
    T = states.shape[1]
    gathered = phi[np.arange(T)[None, :], states, actions]  # (N, T, d)
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
    """Max trajectory-score norm over the given trajectories and parameters."""
    best = 0.0
    for theta in thetas:
        model = LinearRewardModel(features=features, theta=np.asarray(theta, dtype=np.float64))
        _, adv = _gibbs_advantage(mdp, model, beta)
        Z = batch_scores(adv, states, actions)
        best = max(best, float(np.linalg.norm(Z, axis=1).max()))
    return best


def geometry_constants(
    mdp: Mdp,
    features: FeatureMap,
    model: LinearRewardModel,
    beta: float,
    theta_grid: np.ndarray | None = None,
    expert: Policy | None = None,
    mode: str = "auto",
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> GeometryConstants:
    """Compute the geometry constants of a linear-reward instance.

    In exact mode the sup constants are maximized over every
    dynamics-consistent trajectory (``B_A_phi`` additionally over
    ``theta_grid`` plus the model's own parameter); in conservative mode the
    triangle bound for ``B_phi`` and ``2 T B_phi`` for ``B_A_phi`` are used.
    ``lambda_star`` and ``rho_star`` refer to the Hessian at ``model.theta``;
    ``d_star`` uses ``expert`` (the model's own Gibbs policy by default).
    """
    if mode not in ("auto", "exact", "conservative"):
        raise DomainError(f"unknown geometry mode {mode!r}")
    phi = features.phi
    fits_cap = (mdp.S * mdp.A) ** mdp.T <= enumeration_cap
    if mode == "exact" and not fits_cap:
        raise DomainError("exact geometry constants require (S*A)**T within the enumeration cap")
    use_exact = mode == "exact" or (mode == "auto" and fits_cap)

    thetas = [np.asarray(model.theta, dtype=np.float64)]
    if theta_grid is not None:
        thetas.extend(np.atleast_2d(np.asarray(theta_grid, dtype=np.float64)))

    if use_exact:
        states, actions, _ = enumerate_support(mdp, uniform_policy(mdp), enumeration_cap)
        B_phi = max_cumulative_feature_norm(features, states, actions)
        B_A_phi = max_score_norm(mdp, features, beta, thetas, states, actions)
    else:
        B_phi = float(np.sqrt((phi**2).sum(axis=3)).max(axis=(1, 2)).sum())
        B_A_phi = 2.0 * mdp.T * B_phi

    H = derivative_bundle(mdp, model, beta).hessian
    lambda_star = float(np.linalg.eigvalsh(H).min())
    if expert is None:
        expert = solve_model(mdp, model, beta).pi_star
    if lambda_star > 1e-10:
        d_star = effective_dimension(mdp, features, expert, H, enumeration_cap).d_star
    else:
        d_star = float("nan")  # undefined for a singular Hessian
    rho_star = beta * np.sqrt(max(lambda_star, 0.0)) / B_A_phi if B_A_phi > 0 else float("inf")
    return GeometryConstants(
        B_phi=B_phi,
        B_A_phi=B_A_phi,
        lambda_star=lambda_star,
        d_star=d_star,
        rho_star=rho_star,
        mode="exact" if use_exact else "conservative",
    )
