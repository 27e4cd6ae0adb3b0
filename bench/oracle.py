"""Plain-numpy reference for the soft-optimal value ``J*`` and its gradient.

It shares no code with ``soft_irl``: the benchmark checks the program's outputs
against it.  Arrays follow the package's conventions:

* ``initial``: ``(S,)`` distribution of the first state;
* ``kernels``: ``(T-1, S, A, S)``; ``kernels[t, s, a]`` is the distribution of
  the state at step ``t+1``;
* ``phi``: ``(T, S, A, d)`` features, so the reward is ``phi @ theta``;
* ``policy``: ``(T, S, A)`` action distributions;
* the entropy is taken relative to per-action reference weights ``ref``
  (all ones, plain Shannon entropy, when omitted).
"""

from __future__ import annotations

import numpy as np


def logsumexp(x: np.ndarray) -> np.ndarray:
    """``log(sum(exp(x)))`` over the last axis, with the row maximum subtracted."""
    m = x.max(axis=-1, keepdims=True)
    return (m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True)))[..., 0]


def soft_backward(initial, kernels, reward, beta, ref=None):
    """Soft backward induction; returns ``(J*, Gibbs policy)``.

    ``V_t(s) = beta * log sum_a ref(a) exp(Q_t(s, a) / beta)`` with
    ``Q_t = r_t + P_t V_{t+1}`` and ``V_T = 0``.
    """
    T, S, A = reward.shape
    log_ref = np.zeros(A) if ref is None else np.log(ref)
    v = np.zeros(S)
    policy = np.empty((T, S, A))
    for t in reversed(range(T)):
        q = reward[t] + (kernels[t] @ v if t < T - 1 else 0.0)
        z = q / beta + log_ref
        v = beta * logsumexp(z)
        policy[t] = np.exp(z - (v / beta)[:, None])
    return float(initial @ v), policy


def forward_occupancy(initial, kernels, policy):
    """State-action visitation probabilities ``mu[t, s, a]``."""
    T = policy.shape[0]
    mu = np.empty(policy.shape)
    marginal = np.asarray(initial, dtype=np.float64)
    for t in range(T):
        mu[t] = marginal[:, None] * policy[t]
        if t < T - 1:
            marginal = np.einsum("sa,saz->z", mu[t], kernels[t])
    return mu


def feature_expectation(initial, kernels, policy, phi):
    """``sum_t <mu_t, phi_t>`` under ``policy``."""
    mu = forward_occupancy(initial, kernels, policy)
    return np.einsum("tsa,tsad->d", mu, phi)


def j_star(initial, kernels, phi, theta, beta, ref=None):
    """Soft-optimal value of the reward ``phi @ theta``."""
    return soft_backward(initial, kernels, phi @ theta, beta, ref)[0]


def grad_j_star(initial, kernels, phi, theta, beta, ref=None):
    """``grad J*(theta)``: the feature expectation of the Gibbs policy."""
    policy = soft_backward(initial, kernels, phi @ theta, beta, ref)[1]
    return feature_expectation(initial, kernels, policy, phi)


def feature_average(phi, states, actions):
    """Mean over trajectories of ``sum_t phi[t, s_t, a_t]``; ``states``/``actions`` are ``(n, T)``."""
    T = states.shape[1]
    total = np.zeros((states.shape[0], phi.shape[-1]))
    for t in range(T):
        total += phi[t, states[:, t], actions[:, t]]
    return total.mean(axis=0)
