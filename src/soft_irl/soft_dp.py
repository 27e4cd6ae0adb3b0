"""Entropy-regularized backward induction, policy evaluation and diagnostics.

The regularizer is the entropy of each action distribution relative to the
MDP's per-action reference measure, scaled by a temperature ``beta``.  The
optimal policy is then a Gibbs distribution over the soft Q-values, and the
soft value recursion is a log-sum-exp backup.  ``beta = 0`` (no
regularization) is handled by :func:`hard_backward` with max backups.

All four value recursions (:func:`soft_backward`, :func:`hard_backward`,
:func:`policy_evaluate` and :func:`feature_values`) run one private backward
kernel, ``Q_t = r_t + P_t V_{t+1}`` then ``V_t = backup(t, Q_t)``; they differ
only in the backup: log-sum-exp, max, the policy-weighted regularized ``Q``,
or the policy-weighted ``Q`` of every feature coordinate at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, DimensionError, InvariantError
from .mdp import (
    DEFAULT_ENUMERATION_CAP,
    Mdp,
    Policy,
    Trajectory,
    enumerate_support,
    forward_occupancy,
    _check_compatible,
    _check_trajectory,
)


@dataclass(frozen=True)
class RewardTable:
    """Time-dependent tabular reward ``r[t, s, a]``."""

    r: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=np.float64)
        if r.ndim != 3:
            raise DimensionError("r", "(T, S, A)", r.shape)
        if not np.all(np.isfinite(r)):
            raise InvariantError("r: reward entries must be finite")
        r = np.ascontiguousarray(r)
        r.flags.writeable = False
        object.__setattr__(self, "r", r)

    @property
    def T(self) -> int:
        return self.r.shape[0]


@dataclass(frozen=True)
class SoftSolution:
    """Output of :func:`soft_backward`.

    ``V`` has shape ``(T+1, S)`` with an all-zero terminal row, ``Q`` has
    shape ``(T, S, A)``, ``pi_star`` is the Gibbs policy and ``J_star`` the
    soft-optimal objective value from the initial distribution.
    """

    beta: float
    V: np.ndarray
    Q: np.ndarray
    pi_star: Policy
    J_star: float


@dataclass(frozen=True)
class HardSolution:
    """Output of :func:`hard_backward` (unregularized max backups)."""

    V: np.ndarray
    Q: np.ndarray
    policy: Policy
    J: float


@dataclass(frozen=True)
class PolicyEvaluation:
    """Regularized evaluation of a fixed policy.

    ``advantage[t, s, a] = Q[t, s, a] - V[t, s] - beta * log density`` where
    the density is the policy probability divided by the reference weight; the
    entry is ``+inf`` where the policy places no mass (only meaningful on the
    policy's support when ``beta > 0``).
    """

    beta: float
    V: np.ndarray
    Q: np.ndarray
    J: float
    advantage: np.ndarray


@dataclass(frozen=True)
class ReturnDecomposition:
    """Pathwise split of ``G - J`` into advantage and dynamics-noise terms."""

    G: float
    J: float
    advantage_terms: np.ndarray
    delta_terms: np.ndarray

    @property
    def advantage_sum(self) -> float:
        return float(self.advantage_terms.sum())

    @property
    def delta_sum(self) -> float:
        return float(self.delta_terms.sum())

    @property
    def residual(self) -> float:
        return self.G - self.J - self.advantage_sum - self.delta_sum


@dataclass(frozen=True)
class VarianceDecomposition:
    """Exact return variance split into action and dynamics components."""

    total: float
    action: float
    dynamics: float
    mean_return: float


def _check_reward(mdp: Mdp, reward: RewardTable) -> None:
    if reward.r.shape != (mdp.T, mdp.S, mdp.A):
        raise DimensionError("reward.r", (mdp.T, mdp.S, mdp.A), reward.r.shape)


def _expected_next(kernel_t: np.ndarray, v_next: np.ndarray) -> np.ndarray:
    """(P_t v)(s, a) for a value vector or a batch of value columns."""
    return np.einsum("saz,z...->sa...", kernel_t, v_next)


def _backward(kernels: np.ndarray, r: np.ndarray, backup) -> tuple[np.ndarray, np.ndarray]:
    """The one backward-induction loop: ``Q_t = r_t + P_t V_{t+1}``, ``V_t = backup(t, Q_t)``.

    ``r`` has shape ``(T, S, A, ...)``; trailing axes ride along unchanged.
    Returns ``(Q, V)`` with ``V`` of shape ``(T+1, S, ...)`` and an all-zero
    terminal row.
    """
    T, S = r.shape[:2]
    V = np.zeros((T + 1, S) + r.shape[3:])
    Q = np.empty(r.shape)
    for t in reversed(range(T)):
        Q[t] = r[t]
        if t < T - 1:
            Q[t] += _expected_next(kernels[t], V[t + 1])
        V[t] = backup(t, Q[t])
    return Q, V


def soft_backward(mdp: Mdp, reward: RewardTable, beta: float) -> SoftSolution:
    """Solve the entropy-regularized control problem by backward induction.

    Backups are log-sum-exp with max subtraction, stable down to very small
    temperatures (``beta ~ 1e-3``).  Requires ``beta > 0``; for ``beta = 0``
    use :func:`hard_backward`.
    """
    _check_reward(mdp, reward)
    if not beta > 0.0:
        raise DomainError("soft_backward requires beta > 0; use hard_backward for beta = 0")
    log_nu = mdp.log_ref_measure

    def log_sum_exp(t, q):
        z = q / beta + log_nu
        top = z.max(axis=-1)
        return beta * (top + np.log(np.exp(z - top[:, None]).sum(axis=-1)))

    Q, V = _backward(mdp.kernels, reward.r, log_sum_exp)
    probs = np.exp((Q - V[:-1, :, None]) / beta + log_nu)
    # Rows sum to one analytically; renormalize away the last few ulps so
    # downstream validators can insist on tight stochasticity.
    probs /= probs.sum(axis=-1, keepdims=True)
    return SoftSolution(
        beta=float(beta),
        V=V,
        Q=Q,
        pi_star=Policy(probs=probs, label=f"gibbs(beta={beta:g})"),
        J_star=float(mdp.initial_dist @ V[0]),
    )


def hard_backward(mdp: Mdp, reward: RewardTable) -> HardSolution:
    """Unregularized backward induction; ties resolve to the lowest action index."""
    _check_reward(mdp, reward)
    Q, V = _backward(mdp.kernels, reward.r, lambda t, q: q.max(axis=-1))
    probs = np.zeros_like(Q)
    np.put_along_axis(probs, Q.argmax(axis=-1)[..., None], 1.0, axis=-1)
    policy = Policy(probs=probs, label="greedy")
    return HardSolution(V=V, Q=Q, policy=policy, J=float(mdp.initial_dist @ V[0]))


def log_policy_density(mdp: Mdp, policy: Policy) -> np.ndarray:
    """``log(probs / ref_measure)`` with ``-inf`` at zero-probability entries."""
    _check_compatible(mdp, policy)
    with np.errstate(divide="ignore"):
        return np.log(policy.probs) - mdp.log_ref_measure


def policy_evaluate(
    mdp: Mdp, reward: RewardTable, policy: Policy, beta: float
) -> PolicyEvaluation:
    """Evaluate a fixed policy under the entropy-regularized objective.

    Works for any ``beta >= 0``.  Zero-probability actions contribute nothing
    to the value (the usual ``0 log 0 = 0`` convention); their advantage
    entries are ``+inf`` when ``beta > 0``.
    """
    _check_reward(mdp, reward)
    _check_compatible(mdp, policy)
    if beta < 0.0:
        raise DomainError("policy_evaluate requires beta >= 0")
    probs = policy.probs
    log_density = log_policy_density(mdp, policy)

    def expected_regularized(t, q):
        return np.where(probs[t] > 0.0, probs[t] * (q - beta * log_density[t]), 0.0).sum(axis=-1)

    Q, V = _backward(mdp.kernels, reward.r, expected_regularized)
    return PolicyEvaluation(
        beta=float(beta),
        V=V,
        Q=Q,
        J=float(mdp.initial_dist @ V[0]),
        advantage=Q - V[:-1, :, None] - beta * log_density,
    )


def feature_values(mdp: Mdp, features, policy: Policy) -> tuple[np.ndarray, np.ndarray]:
    """Unregularized Q/V tables of each feature coordinate under ``policy``.

    One ``beta = 0`` evaluation per feature coordinate (the reward being that
    coordinate's table), fused into a single backward pass.  Returns
    ``(Q, V)`` with shapes ``(T, S, A, d)`` and ``(T+1, S, d)``.
    """
    phi = np.asarray(getattr(features, "phi", features), dtype=np.float64)
    if phi.ndim != 4 or phi.shape[:3] != (mdp.T, mdp.S, mdp.A):
        raise DimensionError("features", (mdp.T, mdp.S, mdp.A, "d"), phi.shape)
    _check_compatible(mdp, policy)
    probs = policy.probs
    return _backward(mdp.kernels, phi, lambda t, q: np.einsum("sa,sad->sd", probs[t], q))


def feature_advantage(mdp: Mdp, features, policy: Policy) -> np.ndarray:
    """Per-coordinate unregularized advantages ``Q - V``, shape ``(T, S, A, d)``."""
    Q, V = feature_values(mdp, features, policy)
    return Q - V[:-1, :, None, :]


def trajectory_kl(mdp: Mdp, p: Policy, q: Policy) -> float:
    """Exact KL divergence between the trajectory laws of two policies.

    Computed from occupancies as the state-marginal-weighted sum of per-step
    action KLs, so no enumeration is needed.  ``+inf`` when ``p`` puts mass
    where ``q`` does not on a reachable state.
    """
    _check_compatible(mdp, p)
    _check_compatible(mdp, q)
    marginals = forward_occupancy(mdp, p).state_marginals()  # (T, S)

    total = 0.0
    for t in range(mdp.T):
        pm, qm = p.probs[t], q.probs[t]
        support = pm > 0.0
        if np.any(support & (qm == 0.0) & (marginals[t][:, None] > 0.0)):
            return float("inf")
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(support, pm * (np.log(pm) - np.log(qm)), 0.0)
        total += float(marginals[t] @ np.nan_to_num(terms, nan=0.0, posinf=np.inf).sum(axis=-1))
    return total


def trajectory_hellinger(
    mdp: Mdp, p: Policy, q: Policy, enumeration_cap: int = DEFAULT_ENUMERATION_CAP
) -> float:
    """Squared Hellinger distance between trajectory laws, by enumeration.

    Enumerates the union support via the 50/50 policy mixture and sums
    ``(sqrt(P_p) - sqrt(P_q))**2`` exactly.  Always in ``[0, 2]``; equals 2
    for disjoint supports.
    """
    from .mdp import batch_trajectory_probs

    mixture = Policy(probs=0.5 * p.probs + 0.5 * q.probs, label="mixture")
    states, actions, _ = enumerate_support(mdp, mixture, enumeration_cap)
    pp = batch_trajectory_probs(mdp, p, states, actions)
    qp = batch_trajectory_probs(mdp, q, states, actions)
    return float(((np.sqrt(pp) - np.sqrt(qp)) ** 2).sum())


def gather_table(table: np.ndarray, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Read ``table[t, states[i, t], actions[i, t]]`` for a batch: shape ``(N, T)``."""
    T = states.shape[1]
    return table[np.arange(T)[None, :], states, actions]


def delta_terms(mdp: Mdp, V: np.ndarray, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Dynamics-noise terms ``V_{t+1}(s_{t+1}) - (P_t V_{t+1})(s_t, a_t)``.

    ``V`` is a ``(T+1, S)`` value array; the step-0 term measures the initial
    draw against the initial distribution.  Returns shape ``(N, T)``.
    """
    n, T = states.shape
    out = np.empty((n, T))
    out[:, 0] = V[0][states[:, 0]] - float(mdp.initial_dist @ V[0])
    for k in range(1, T):
        expected = _expected_next(mdp.kernels[k - 1], V[k])  # (S, A)
        out[:, k] = V[k][states[:, k]] - expected[states[:, k - 1], actions[:, k - 1]]
    return out


def _realized_returns(
    mdp: Mdp,
    reward: RewardTable,
    policy: Policy,
    beta: float,
    states: np.ndarray,
    actions: np.ndarray,
) -> np.ndarray:
    """Regularized return ``sum_t r - beta * log density`` along each trajectory."""
    log_density = log_policy_density(mdp, policy)
    r_terms = gather_table(reward.r, states, actions)
    ld_terms = gather_table(log_density, states, actions)
    return (r_terms - beta * ld_terms).sum(axis=1)


def return_decomposition(
    mdp: Mdp, reward: RewardTable, policy: Policy, beta: float, tau: Trajectory
) -> ReturnDecomposition:
    """Split the realized regularized return of ``tau`` around its expectation.

    ``G - J`` equals the sum of per-step advantages plus per-step dynamics
    noise; the residual of the returned object is numerically zero for
    trajectories in the policy's support.
    """
    _check_trajectory(mdp, tau)
    evaluation = policy_evaluate(mdp, reward, policy, beta)
    states = np.asarray(tau.states, dtype=np.int64)[None, :]
    actions = np.asarray(tau.actions, dtype=np.int64)[None, :]
    G = float(_realized_returns(mdp, reward, policy, beta, states, actions)[0])
    adv = gather_table(evaluation.advantage, states, actions)[0]
    deltas = delta_terms(mdp, evaluation.V, states, actions)[0]
    return ReturnDecomposition(
        G=G, J=evaluation.J, advantage_terms=adv, delta_terms=deltas
    )


def variance_decomposition(
    mdp: Mdp,
    reward: RewardTable,
    policy: Policy,
    beta: float,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> VarianceDecomposition:
    """Exact variance of the regularized return, split by noise source.

    Enumerates the policy's trajectory support; the action component is the
    second moment of summed advantages, the dynamics component that of summed
    dynamics-noise terms.  They add up to the total variance.
    """
    evaluation = policy_evaluate(mdp, reward, policy, beta)
    states, actions, probs = enumerate_support(mdp, policy, enumeration_cap)
    G = _realized_returns(mdp, reward, policy, beta, states, actions)
    adv_sums = gather_table(evaluation.advantage, states, actions).sum(axis=1)
    delta_sums = delta_terms(mdp, evaluation.V, states, actions).sum(axis=1)
    return VarianceDecomposition(
        total=float(probs @ (G - evaluation.J) ** 2),
        action=float(probs @ adv_sums**2),
        dynamics=float(probs @ delta_sums**2),
        mean_return=float(probs @ G),
    )
