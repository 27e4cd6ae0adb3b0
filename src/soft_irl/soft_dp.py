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
return variance off one evaluation and the policy's occupancies.  With the
max over the support of ``P_t`` in place of the expectation ``P_t V``, the
kernel is the max-plus pass behind ``_path_max``: the largest sum of a
per-step table along any path the MDP can take, with no enumeration.

The kernel has one layout: a batch of ``K`` tables ``(T, K, S, A, ...)``,
with the batch axis after time and one stacked successor product per step,
which gives each table the BLAS calls of its own pass.  The fitter's value
passes and bundles and the rate metrics run large batches; the public
single-table functions are batches of one.  The kernel is a per-step sweep,
``_sweep``: the value recursions collect every step into whole tables, while
the derivative bundles and the score bound read each step's feature
advantages as it comes and never hold a ``(T, K, S, A, d)`` table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .mdp import (
    Dataset,
    Mdp,
    Policy,
    forward_occupancy,
    gather_table,
    _occupancy,
    _check_compatible,
    _check_real,
    _as_float_array,
    _as_paths,
    _feature_table,
    _freeze,
)


@dataclass(frozen=True, eq=False)
class RewardTable:
    """Time-dependent tabular reward ``r[t, s, a]``, finite; ``r`` is stored
    as :class:`~soft_irl.mdp.Mdp` stores its arrays."""

    r: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, "r", ("T", "S", "A"))

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


def _check_in_range(beta: float, *tables: np.ndarray) -> None:
    """A ``DomainError`` naming ``beta`` unless every entry of ``tables``, the
    values of a public solve computed with overflow ignored, is finite."""
    if not all(np.isfinite(table).all() for table in tables):
        raise DomainError(f"beta = {beta:g}: the values of this reward leave the float range")


def _expected_next(kernels: np.ndarray, v_next: np.ndarray, out=None) -> np.ndarray:
    """``(P v)(s, a, ...)`` of a batch ``v_next`` ``(K, S, ...)``: shape ``(K,
    S, A, ...)``, written into ``out`` (C-contiguous) where given.  ``kernels``
    is one kernel ``(S, A, S)`` for every member or a stack ``(K, S, A, S)``,
    one per member: ``mdp.kernels`` and ``V[1:T]`` give every step's ``P_t
    V_{t+1}`` in one call.

    A stacked matmul of the ``(S*A, S)`` kernels with each member flattened to
    ``(S, X)``, ``X`` the trailing size (given: the empty stack of ``T = 1``
    has none for ``-1`` to infer), so the product runs in BLAS whatever the
    trailing shape, and BLAS gets, for each member, the ``gemv`` or ``gemm``
    of a batch of one: every member gets the bits of a lone call (one
    ``gemm`` over the whole batch would not).
    """
    S, A, Z = kernels.shape[-3:]
    K, X = v_next.shape[0], math.prod(v_next.shape[2:])
    if out is None:
        out = np.empty((K, S, A) + v_next.shape[2:])
    np.matmul(kernels.reshape(-1, S * A, Z), v_next.reshape(K, Z, X), out=out.reshape(K, S * A, X))
    return out


def _support_max(support_t: np.ndarray, v_next: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``max v(s')`` over the support ``P_t(s'|s, a) > 0`` of a batch of value
    vectors ``v_next`` ``(K, S)``, written into ``out`` ``(K, S, A)``: the
    max-plus successor operator.  ``support_t`` is the support ``(S', S,
    A)`` with the successor first, so the max is an elementwise one of ``S'``
    contiguous slices, not one over a short last axis."""
    return np.where(support_t[:, None], v_next.T[:, :, None, None], -np.inf).max(axis=0, out=out)


def _sweep(kernels: np.ndarray, r: np.ndarray, backup, successor=_expected_next, Q=None):
    """The one backward-induction loop: for ``t`` from ``T-1`` down to 0,
    ``Q_t = r_t + successor(P_t, V_{t+1})`` and ``V_t = backup(t, Q_t)``;
    yields ``(t, Q_t, V_t)`` one step at a time.

    ``r`` is a batch of ``K`` tables ``(T, K, S, A, ...)``; trailing axes ride
    along unchanged.  The successor operator is the expectation
    :func:`_expected_next` of the kernels unless another is given, with the
    per-step tables it reads as ``kernels``; it writes into its third
    argument.  ``Q_t`` is written into ``Q[t]`` of a given ``(T, ...)``
    array, else into one step's buffer that every step reuses: the next step
    reads only ``V_t``, the backup's own array, so a consumer may overwrite
    ``Q_t`` in place once it has ``V_t``.
    """
    T = r.shape[0]
    step = np.empty(r.shape[1:]) if Q is None else None  # C order, so each Q_t is contiguous
    v = None
    for t in reversed(range(T)):
        q = step if Q is None else Q[t]
        if v is None:
            q[...] = r[t]
        else:  # the successor in place, then r_t: the same sum, with no temporary
            successor(kernels[t], v, q)
            q += r[t]
        v = backup(t, q)
        yield t, q, v


def _backward(
    kernels: np.ndarray, r: np.ndarray, backup, successor=_expected_next
) -> tuple[np.ndarray, np.ndarray]:
    """Every table of :func:`_sweep`: ``(Q, V)``, with ``V`` of ``Q``'s shape
    less the action axis the backup removes, ``T+1`` rows in time and an
    all-zero terminal row."""
    Q = np.empty(r.shape)  # C order, whatever the layout of r, so each Q[t] is contiguous
    V = None
    for t, _, v in _sweep(kernels, r, backup, successor, Q):
        if V is None:
            V = np.zeros((r.shape[0] + 1,) + v.shape)
        V[t] = v
    return Q, V


def _path_max(mdp: Mdp, table: np.ndarray) -> np.ndarray:
    """``max sum_t table[t, k, s_t, a_t]`` over every path the MDP can take,
    for each member ``k`` of a batch ``(T, K, S, A)``, shape ``(K,)``: ``s_0``
    in the support of ``initial_dist``, any actions, each successor in the
    support of its kernel row (the support of the uniform policy's law).

    One max-plus pass of the backward kernel over the kernels' supports, laid
    out successor first for :func:`_support_max`.  Exact up to the order of
    the additions.
    """
    support = (mdp.kernels > 0.0).transpose(0, 3, 1, 2).copy()
    _, V = _backward(support, table, lambda t, q: q.max(axis=-1), _support_max)
    return V[0][:, mdp.initial_dist > 0.0].max(axis=1)


def _backup(mdp: Mdp, beta: float):
    """The optimal-control backup: log-sum-exp for ``beta > 0``, max for ``beta = 0``."""
    if beta == 0.0:
        return lambda t, q: q.max(axis=-1)
    log_nu = mdp.log_ref_measure

    def log_sum_exp(t, q):
        z = q / beta + log_nu
        top = z.max(axis=-1)
        return beta * (top + np.log(np.exp(z - top[..., None]).sum(axis=-1)))

    return log_sum_exp


def _batch_optimal_values(mdp: Mdp, r: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Optimal ``(Q, V)`` of ``K`` reward tables ``r`` ``(K, T, S, A)`` and
    nothing else: no policy, no checks.  Time comes first: ``Q`` ``(T, K, S,
    A)`` and ``V`` ``(T+1, K, S)``.

    The tables :func:`soft_backward` (``beta > 0``) or :func:`hard_backward`
    (``beta = 0``) solve for, as a batch of one; each table's ``(Q, V)`` is
    bit for bit that of its own call.  For internal loops whose caller has
    already validated ``r`` and ``beta``.
    """
    return _backward(mdp.kernels, r.transpose(1, 0, 2, 3), _backup(mdp, beta))


def _gibbs_logits(mdp: Mdp, beta: float, Q: np.ndarray) -> np.ndarray:
    """``z - max z`` over the actions, ``z = Q / beta + log nu``: the log
    weights of the Gibbs policy of a soft-optimal ``Q``, 0 at each row's top
    action, taken from ``Q`` alone."""
    z = Q / beta
    z += mdp.log_ref_measure
    z -= z.max(axis=-1, keepdims=True)
    return z


def _log_gibbs(mdp: Mdp, beta: float, Q: np.ndarray) -> np.ndarray:
    """``log pi*`` of a soft-optimal ``Q``, ``z - log sum exp z`` of the
    :func:`_gibbs_logits` ``z``: at most 0 by construction (``z <= 0`` and the
    sum holds the top action's 1), and finite wherever ``Q / beta`` is, even
    where ``pi*`` itself underflows."""
    z = _gibbs_logits(mdp, beta, Q)
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return z


def _gibbs_probs(mdp: Mdp, beta: float, Q: np.ndarray) -> np.ndarray:
    """The Gibbs policy table of a soft-optimal ``Q``, a plain array with no
    :class:`Policy` check; batched tables give a batch.  Each row is its
    :func:`_gibbs_logits` exponentiated (its top action's weight is 1, so
    the row sum is at least 1) and divided by its sum."""
    probs = _gibbs_logits(mdp, beta, Q)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def _gibbs_solution(mdp: Mdp, beta: float, Q: np.ndarray, V: np.ndarray) -> SoftSolution:
    """The :class:`SoftSolution` of soft-optimal tables ``(Q, V)``: the Gibbs
    policy, checked as a :class:`Policy`, and ``J*``."""
    return SoftSolution(
        beta=float(beta),
        V=V,
        Q=Q,
        pi_star=Policy(probs=_gibbs_probs(mdp, beta, Q), label=f"gibbs(beta={beta:g})"),
        J_star=float(mdp.initial_dist @ V[0]),
    )


def soft_backward(mdp: Mdp, reward: RewardTable, beta: float) -> SoftSolution:
    """Solve the entropy-regularized control problem by backward induction.

    Backups are log-sum-exp with max subtraction, stable down to very small
    temperatures (``beta ~ 1e-3``).  ``beta`` must be a finite number above 0,
    not a flag (a ``SoftIrlError`` otherwise); for ``beta = 0`` use :func:`hard_backward`.
    A ``beta`` so large that the values leave the float range is a ``DomainError``.
    """
    _check_reward(mdp, reward)
    beta = _check_real(beta, "beta (hard_backward solves beta = 0)", 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        Q, V = _batch_optimal_values(mdp, reward.r[None], beta)
        _check_in_range(beta, Q, V)
        return _gibbs_solution(mdp, beta, Q[:, 0], V[:, 0])


def hard_backward(mdp: Mdp, reward: RewardTable) -> HardSolution:
    """Unregularized backward induction; ties resolve to the lowest action index."""
    _check_reward(mdp, reward)
    Q, V = _batch_optimal_values(mdp, reward.r[None], 0.0)
    Q, V = Q[:, 0], V[:, 0]
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

    Works for any finite ``beta >= 0`` (not a flag; anything else is a
    ``SoftIrlError`` naming it) whose values stay in the float range (a
    ``DomainError`` naming it otherwise).  Zero-probability actions contribute nothing
    to the value (the usual ``0 log 0 = 0`` convention); their advantage
    entries are ``+inf`` when ``beta > 0`` and ``Q - V`` when ``beta = 0``.
    """
    _check_reward(mdp, reward)
    _check_compatible(mdp, policy)
    beta = _check_real(beta, "beta", 0.0, include_low=True)
    probs = policy.probs[:, None]

    def expected_regularized(t, q):
        return (probs[t] * np.where(probs[t] > 0.0, q - penalty[t], 0.0)).sum(axis=-1)

    with np.errstate(over="ignore", invalid="ignore"):
        penalty = _regularizer(mdp, policy, beta)[:, None]
        Q, V = _backward(mdp.kernels, reward.r[:, None], expected_regularized)
        Q, V, penalty = Q[:, 0], V[:, 0], penalty[:, 0]
        advantage = Q - V[:-1, :, None] - penalty
    _check_in_range(beta, Q, V, advantage[policy.probs > 0.0])
    return PolicyEvaluation(
        beta=float(beta),
        V=V,
        Q=Q,
        J=float(mdp.initial_dist @ V[0]),
        advantage=advantage,
    )


def feature_values(mdp: Mdp, features, policy: Policy) -> tuple[np.ndarray, np.ndarray]:
    """Unregularized Q/V tables of each feature coordinate under ``policy``.

    One ``beta = 0`` evaluation per feature coordinate (the reward being that
    coordinate's table), fused into a single backward pass.  Returns
    ``(Q, V)`` with shapes ``(T, S, A, d)`` and ``(T+1, S, d)``.
    """
    phi = _feature_table(features, mdp)
    _check_compatible(mdp, policy)
    Q, V = _policy_values(mdp, phi[:, None], policy.probs[:, None])
    return Q[:, 0], V[:, 0]


def _policy_backup(probs: np.ndarray):
    """The backup ``V_t = sum_a probs_t Q_t`` of the batch of policy tables
    ``probs`` ``(T, K, S, A)``, for every trailing column of ``Q``."""
    return lambda t, q: np.matmul(probs[t][..., None, :], q)[..., 0, :]


def _policy_values(mdp: Mdp, table: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unregularized ``(Q, V)`` of every trailing column of a batch of tables
    ``(T, K, S, A, ...)`` under the batch of policy tables ``probs`` ``(T, K,
    S, A)``."""
    return _backward(mdp.kernels, table, _policy_backup(probs))


def _advantage_sweep(mdp: Mdp, phi: np.ndarray, probs: np.ndarray):
    """The feature advantages ``Q_t - V_t`` of the features ``phi`` ``(T, S,
    A, d)`` under ``K`` policy tables ``probs`` ``(T, K, S, A)``, one step at
    a time from ``t = T-1`` down to 0: yields ``(t, adv_t, V_t)``, ``adv_t``
    ``(K, S, A, d)`` in the one buffer of :func:`_sweep`, which the consumer
    may overwrite.  Each step is bit for bit that step of
    :func:`feature_advantage`; no ``(T, K, S, A, d)`` table is made."""
    table = np.broadcast_to(phi[:, None], probs.shape[:2] + phi.shape[1:])
    for t, q, v in _sweep(mdp.kernels, table, _policy_backup(probs)):
        q -= v[..., None, :]
        yield t, q, v


def feature_advantage(mdp: Mdp, features, policy: Policy) -> np.ndarray:
    """Per-coordinate unregularized advantages ``Q - V``, shape ``(T, S, A, d)``.

    ``V`` is subtracted from the fresh ``Q`` table in place, so the caller
    owns the returned table.
    """
    Q, V = feature_values(mdp, features, policy)
    Q -= V[:-1, :, None, :]
    return Q


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
    return float(_batch_trajectory_kl(mdp, p.probs[:, None], q.probs[:, None])[0])


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``<x_k, y_k>`` of the last axes, one BLAS ``dot`` per row, the call a
    lone ``x_k @ y_k`` makes; a 1-D ``x`` is shared by every row of ``y``."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _batch_trajectory_kl(mdp: Mdp, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """:func:`trajectory_kl` of ``K`` pairs of policy tables ``(T, K, S, A)``
    (broadcast views welcome), shape ``(K,)``; each pair's value is bit for
    bit that of its own call."""
    marginals = _occupancy(mdp, p).sum(axis=-1)  # (T, K, S)
    support = p > 0.0
    reachable = marginals > 0.0
    infinite = np.any(support & (q == 0.0) & reachable[..., None], axis=(0, 2, 3))
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(support, p * (np.log(p) - np.log(q)), 0.0)
        action_kl = np.where(reachable, np.maximum(terms.sum(axis=-1), 0.0), 0.0)
    # a running sum over the steps, in order whatever K is: a reduction of a
    # lone pair's T >= 8 steps would sum them pairwise
    total = np.cumsum(_dots(marginals, action_kl), axis=0)[-1]
    return np.where(infinite, np.inf, total)


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
    return float(_batch_trajectory_hellinger(mdp, p.probs[:, None], q.probs[:, None])[0])


def _batch_trajectory_hellinger(mdp: Mdp, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """:func:`trajectory_hellinger` of ``K`` pairs of policy tables ``(T, K,
    S, A)`` (broadcast views welcome), shape ``(K,)``; each pair's value is
    bit for bit that of its own call."""
    root_p, root_q = np.sqrt(p), np.sqrt(q)
    affinity = root_p * root_q
    local = 0.5 * ((root_p - root_q) ** 2).sum(axis=-1)

    def remainder(t, expected_next):
        return local[t] + (affinity[t] * expected_next).sum(axis=-1)

    _, D = _backward(mdp.kernels, np.zeros(affinity.shape), remainder)
    return 2.0 * _dots(mdp.initial_dist, D[0])


def delta_terms(mdp: Mdp, V: np.ndarray, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Dynamics-noise terms ``V_{t+1}(s_{t+1}) - (P_t V_{t+1})(s_t, a_t)``.

    ``V`` is a ``(T+1, S)`` value array; the step-0 term measures the initial
    draw against the initial distribution.  ``states`` and ``actions`` are
    ``(N, T)`` paths, read on the MDP's axes.  Returns shape ``(N, T)``.
    """
    V = _as_float_array(V, "V", (mdp.T + 1, mdp.S))
    states, actions = _as_paths(states, actions, "path", (mdp.T, mdp.S, mdp.A))
    steps = np.arange(mdp.T - 1)
    expected = _expected_next(mdp.kernels, V[1:-1])  # (T-1, S, A): P_t V_{t+1} of every step
    out = np.empty(states.shape)
    out[:, 0] = V[0][states[:, 0]] - float(mdp.initial_dist @ V[0])
    out[:, 1:] = V[steps + 1, states[:, 1:]] - expected[steps, states[:, :-1], actions[:, :-1]]
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
    _as_paths(data.states, data.actions, "dataset", evaluation.Q.shape)
    regularized = reward.r - _regularizer(mdp, policy, beta)
    return ReturnDecomposition(
        G=gather_table(regularized, data.states, data.actions).sum(axis=1),
        J=evaluation.J,
        advantage_terms=gather_table(evaluation.advantage, data.states, data.actions),
        delta_terms=delta_terms(mdp, evaluation.V, data.states, data.actions),
    )


def _weighted_second_moment(mu: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``sum_i mu[i] rows[i] rows[i]^T`` over the leading axes, as the Gram
    ``W^T W`` of ``W = sqrt(mu) rows``: one BLAS ``syrk``, exactly symmetric.

    ``rows`` has shape ``mu.shape + (d,)`` and is finite wherever ``mu > 0``;
    ``mu`` is non-negative.  ``rows`` is consumed: ``W`` is built in its
    memory, so callers pass a table they own and no copy of it is made.
    """
    W = rows.reshape(-1, rows.shape[-1])
    W *= np.sqrt(mu).reshape(-1, 1)
    return W.T @ W


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
    draw against its mean.  ``adv`` is consumed; ``V`` is left as it is.
    """
    mean0 = mdp.initial_dist @ V[0]
    dynamics = _weighted_second_moment(mdp.initial_dist, V[0].copy()) - np.outer(mean0, mean0)
    dynamics += _weighted_second_moment(mu[1:].sum(axis=-1), V[1:-1].copy())
    dynamics -= _weighted_second_moment(mu[:-1], _expected_next(mdp.kernels, V[1:-1]))
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
