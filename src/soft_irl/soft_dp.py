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
:func:`trajectory_hellinger` runs the same kernel on a zero reward with a
Hellinger-remainder backup, and :func:`variance_decomposition` reads the
return variance off one evaluation and the policy's occupancies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, DimensionError, InvariantError
from .mdp import (
    Dataset,
    Mdp,
    Policy,
    forward_occupancy,
    gather_table,
    _check_compatible,
    _check_dataset,
    _feature_table,
)


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class HardSolution:
    """Output of :func:`hard_backward` (unregularized max backups)."""

    V: np.ndarray
    Q: np.ndarray
    policy: Policy
    J: float


@dataclass(frozen=True, eq=False)
class PolicyEvaluation:
    """Regularized evaluation of a fixed policy.

    ``advantage[t, s, a] = Q[t, s, a] - V[t, s] - beta * log density`` where
    the density is the policy probability divided by the reference weight; the
    entry is ``+inf`` where the policy places no mass when ``beta > 0``, and
    ``Q - V`` there when ``beta = 0`` (``0 log 0 = 0``).
    """

    beta: float
    V: np.ndarray
    Q: np.ndarray
    J: float
    advantage: np.ndarray


@dataclass(frozen=True, eq=False)
class ReturnDecomposition:
    """Pathwise split of ``G - J`` into advantage and dynamics-noise terms.

    One row per trajectory: ``G`` has shape ``(n,)`` and the per-step terms
    ``(n, T)``; ``J`` is the common expectation.
    """

    G: np.ndarray
    J: float
    advantage_terms: np.ndarray
    delta_terms: np.ndarray

    @property
    def advantage_sum(self) -> np.ndarray:
        return self.advantage_terms.sum(axis=1)

    @property
    def delta_sum(self) -> np.ndarray:
        return self.delta_terms.sum(axis=1)

    @property
    def residual(self) -> np.ndarray:
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
    """``(P_t v)(s, a, ...)`` for a value vector or a batch of value columns.

    One matmul of the ``(S*A, S)`` kernel with ``v`` flattened to ``(S, -1)``,
    so the product runs in BLAS whatever the trailing shape of ``v``.
    """
    S, A, Z = kernel_t.shape
    flat = kernel_t.reshape(S * A, Z) @ v_next.reshape(Z, -1)
    return flat.reshape((S, A) + v_next.shape[1:])


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


def _backup(mdp: Mdp, beta: float):
    """The optimal-control backup: log-sum-exp for ``beta > 0``, max for ``beta = 0``."""
    if beta == 0.0:
        return lambda t, q: q.max(axis=-1)
    log_nu = mdp.log_ref_measure

    def log_sum_exp(t, q):
        z = q / beta + log_nu
        top = z.max(axis=-1)
        return beta * (top + np.log(np.exp(z - top[:, None]).sum(axis=-1)))

    return log_sum_exp


def _optimal_values(mdp: Mdp, r: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Optimal ``(Q, V)`` of the reward table ``r`` and nothing else: no policy, no checks.

    The tables :func:`soft_backward` (``beta > 0``) or :func:`hard_backward`
    (``beta = 0``) solve for, bit for bit.  For internal loops whose caller
    has already validated ``r`` and ``beta``.
    """
    return _backward(mdp.kernels, r, _backup(mdp, beta))


def _optimal_value(mdp: Mdp, r: np.ndarray, beta: float) -> float:
    """Optimal value of the reward table ``r``, as :func:`_optimal_values` computes it.

    Bit-identical to ``soft_backward(...).J_star`` for ``beta > 0`` and to
    ``hard_backward(...).J`` for ``beta = 0``.
    """
    _, V = _optimal_values(mdp, r, beta)
    return float(mdp.initial_dist @ V[0])


def _gibbs_solution(mdp: Mdp, beta: float, Q: np.ndarray, V: np.ndarray) -> SoftSolution:
    """The :class:`SoftSolution` of soft-optimal tables ``(Q, V)``: the Gibbs
    policy, checked as a :class:`Policy`, and ``J*``."""
    probs = np.exp((Q - V[:-1, :, None]) / beta + mdp.log_ref_measure)
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


def soft_backward(mdp: Mdp, reward: RewardTable, beta: float) -> SoftSolution:
    """Solve the entropy-regularized control problem by backward induction.

    Backups are log-sum-exp with max subtraction, stable down to very small
    temperatures (``beta ~ 1e-3``).  Requires ``beta > 0``; for ``beta = 0``
    use :func:`hard_backward`.
    """
    _check_reward(mdp, reward)
    if not beta > 0.0:
        raise DomainError("soft_backward requires beta > 0; use hard_backward for beta = 0")
    Q, V = _optimal_values(mdp, reward.r, beta)
    return _gibbs_solution(mdp, beta, Q, V)


def hard_backward(mdp: Mdp, reward: RewardTable) -> HardSolution:
    """Unregularized backward induction; ties resolve to the lowest action index."""
    _check_reward(mdp, reward)
    Q, V = _optimal_values(mdp, reward.r, 0.0)
    probs = np.zeros_like(Q)
    np.put_along_axis(probs, Q.argmax(axis=-1)[..., None], 1.0, axis=-1)
    policy = Policy(probs=probs, label="greedy")
    return HardSolution(V=V, Q=Q, policy=policy, J=float(mdp.initial_dist @ V[0]))


def log_policy_density(mdp: Mdp, policy: Policy) -> np.ndarray:
    """``log(probs / ref_measure)`` with ``-inf`` at zero-probability entries."""
    _check_compatible(mdp, policy)
    with np.errstate(divide="ignore"):
        return np.log(policy.probs) - mdp.log_ref_measure


def _regularizer(mdp: Mdp, policy: Policy, beta: float) -> np.ndarray:
    """``beta * log density`` with ``0 log 0 = 0``: all zero at ``beta = 0``.

    For ``beta > 0`` the entries are ``-inf`` where the policy has no mass.
    """
    if beta == 0.0:
        return np.zeros(policy.probs.shape)
    return beta * log_policy_density(mdp, policy)


def policy_evaluate(
    mdp: Mdp, reward: RewardTable, policy: Policy, beta: float
) -> PolicyEvaluation:
    """Evaluate a fixed policy under the entropy-regularized objective.

    Works for any ``beta >= 0``.  Zero-probability actions contribute nothing
    to the value (the usual ``0 log 0 = 0`` convention); their advantage
    entries are ``+inf`` when ``beta > 0`` and ``Q - V`` when ``beta = 0``.
    """
    _check_reward(mdp, reward)
    _check_compatible(mdp, policy)
    if beta < 0.0:
        raise DomainError("policy_evaluate requires beta >= 0")
    probs = policy.probs
    penalty = _regularizer(mdp, policy, beta)

    def expected_regularized(t, q):
        return (probs[t] * np.where(probs[t] > 0.0, q - penalty[t], 0.0)).sum(axis=-1)

    Q, V = _backward(mdp.kernels, reward.r, expected_regularized)
    return PolicyEvaluation(
        beta=float(beta),
        V=V,
        Q=Q,
        J=float(mdp.initial_dist @ V[0]),
        advantage=Q - V[:-1, :, None] - penalty,
    )


def feature_values(mdp: Mdp, features, policy: Policy) -> tuple[np.ndarray, np.ndarray]:
    """Unregularized Q/V tables of each feature coordinate under ``policy``.

    One ``beta = 0`` evaluation per feature coordinate (the reward being that
    coordinate's table), fused into a single backward pass.  Returns
    ``(Q, V)`` with shapes ``(T, S, A, d)`` and ``(T+1, S, d)``.
    """
    phi = _feature_table(features, mdp)
    _check_compatible(mdp, policy)
    probs = policy.probs
    return _backward(mdp.kernels, phi, lambda t, q: np.matmul(probs[t][:, None, :], q)[:, 0, :])


def feature_advantage(mdp: Mdp, features, policy: Policy) -> np.ndarray:
    """Per-coordinate unregularized advantages ``Q - V``, shape ``(T, S, A, d)``."""
    Q, V = feature_values(mdp, features, policy)
    return Q - V[:-1, :, None, :]


def trajectory_kl(mdp: Mdp, p: Policy, q: Policy) -> float:
    """Exact KL divergence between the trajectory laws of two policies.

    Computed from occupancies as the state-marginal-weighted sum of per-step
    action KLs, so no enumeration is needed.  ``+inf`` when ``p`` puts mass
    where ``q`` does not on a reachable state; states ``p`` never reaches
    contribute nothing.  Never negative: each action KL is clamped at 0, which
    it can undershoot only by rounding (Gibbs' inequality), so ``p == q``
    gives exactly 0.
    """
    _check_compatible(mdp, p)
    _check_compatible(mdp, q)
    marginals = forward_occupancy(mdp, p).sum(axis=2)  # (T, S)

    total = 0.0
    for t in range(mdp.T):
        pm, qm = p.probs[t], q.probs[t]
        support = pm > 0.0
        reachable = marginals[t] > 0.0
        if np.any(support & (qm == 0.0) & reachable[:, None]):
            return float("inf")
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(support, pm * (np.log(pm) - np.log(qm)), 0.0)
        action_kl = np.where(reachable, np.maximum(terms.sum(axis=-1), 0.0), 0.0)
        total += float(marginals[t] @ action_kl)
    return total


def trajectory_hellinger(mdp: Mdp, p: Policy, q: Policy) -> float:
    """Exact squared Hellinger distance between the trajectory laws of two policies.

    A backward recursion on the one kernel, with no enumeration: the
    remainder ``D_t = h_t + sum_a sqrt(p q)_t (P_t D_{t+1})`` accumulates the
    per-step distances ``h_t(s) = 1/2 sum_a (sqrt(p) - sqrt(q))**2``, and
    ``H**2 = 2 <rho_0, D_0>``.  Every term is non-negative, so the result is
    never negative; it is exactly 0 for ``p == q`` and 2 to rounding for
    disjoint supports.
    """
    _check_compatible(mdp, p)
    _check_compatible(mdp, q)
    root_p, root_q = np.sqrt(p.probs), np.sqrt(q.probs)
    affinity = root_p * root_q
    local = 0.5 * ((root_p - root_q) ** 2).sum(axis=-1)

    def remainder(t, expected_next):
        return local[t] + (affinity[t] * expected_next).sum(axis=-1)

    _, D = _backward(mdp.kernels, np.zeros(p.probs.shape), remainder)
    return float(2.0 * (mdp.initial_dist @ D[0]))


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


def return_decomposition(
    mdp: Mdp, reward: RewardTable, policy: Policy, beta: float, data: Dataset
) -> ReturnDecomposition:
    """Split the realized regularized return of each trajectory of ``data``
    around its expectation.

    ``G - J`` equals the sum of per-step advantages plus per-step dynamics
    noise; the residual of the returned object is numerically zero for
    trajectories in the policy's support.
    """
    evaluation = policy_evaluate(mdp, reward, policy, beta)
    _check_dataset(data, evaluation.Q)
    regularized = reward.r - _regularizer(mdp, policy, beta)
    return ReturnDecomposition(
        G=gather_table(regularized, data.states, data.actions).sum(axis=1),
        J=evaluation.J,
        advantage_terms=gather_table(evaluation.advantage, data.states, data.actions),
        delta_terms=delta_terms(mdp, evaluation.V, data.states, data.actions),
    )


def _weighted_second_moment(mu: np.ndarray, adv: np.ndarray) -> np.ndarray:
    """``sum_{t,s,a} mu[t,s,a] adv[t,s,a] adv[t,s,a]^T`` as one matmul, symmetrized."""
    flat = adv.reshape(-1, adv.shape[-1])
    M = (flat * mu.reshape(-1, 1)).T @ flat
    return 0.5 * (M + M.T)


def _martingale_covariance(
    mdp: Mdp, mu: np.ndarray, adv: np.ndarray, V: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Action and dynamics parts of the covariance of a vector return, from occupancies.

    Under the policy with occupancy ``mu``, a return minus its mean is the sum
    of the per-step advantages ``adv`` (``(T, S, A, d)``, finite wherever
    ``mu > 0``) and the per-step dynamics noise of the values ``V``
    (``(T+1, S, d)``).  These are martingale differences, so the covariance is
    exactly their summed second moments.  Step ``k``'s dynamics noise is the
    successor value minus its conditional mean ``m = P_{k-1} V_k``, so its
    second moment is ``E[V_k V_k^T]`` under the step-``k`` state marginal minus
    ``E[m m^T]`` under the step-``k-1`` occupancy; step 0 measures the initial
    draw against its mean.
    """
    mean0 = mdp.initial_dist @ V[0]
    dynamics = _weighted_second_moment(mdp.initial_dist, V[0]) - np.outer(mean0, mean0)
    for k in range(1, mdp.T):
        cond_mean = _expected_next(mdp.kernels[k - 1], V[k])
        dynamics += _weighted_second_moment(mu[k].sum(axis=-1), V[k])
        dynamics -= _weighted_second_moment(mu[k - 1], cond_mean)
    return _weighted_second_moment(mu, adv), dynamics


def variance_decomposition(
    mdp: Mdp, reward: RewardTable, policy: Policy, beta: float
) -> VarianceDecomposition:
    """Exact variance of the regularized return, split by noise source.

    The action component is the second moment of summed advantages, the
    dynamics component that of summed dynamics-noise terms; being sums of
    orthogonal martingale differences, they add up to the total variance.
    Both come from one evaluation and the policy's occupancies, so the split
    is exact at every size, with no enumeration.  ``mean_return`` is ``J``.
    """
    evaluation = policy_evaluate(mdp, reward, policy, beta)
    mu = forward_occupancy(mdp, policy)
    # mu is 0 where the policy has no mass, and the advantage may be +inf there
    adv = np.where(policy.probs > 0.0, evaluation.advantage, 0.0)
    action, dynamics = _martingale_covariance(mdp, mu, adv[..., None], evaluation.V[..., None])
    action, dynamics = float(action[0, 0]), float(dynamics[0, 0])
    return VarianceDecomposition(
        total=action + dynamics, action=action, dynamics=dynamics, mean_return=evaluation.J
    )
