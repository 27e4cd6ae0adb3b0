"""Checks of the benchmark's oracle against a closed form and its own finite differences.

Run with ``python3 -m pytest bench/test_oracle.py``.
"""

import math

import numpy as np
import pytest

import oracle


def random_problem(rng, S=4, A=3, T=5, d=3):
    initial = rng.dirichlet(np.ones(S))
    kernels = rng.dirichlet(np.ones(S), size=(T - 1, S, A))
    phi = rng.normal(size=(T, S, A, d))
    return initial, kernels, phi


@pytest.mark.parametrize("seed", range(3))
def test_zero_reward_value_is_T_log_A(seed):
    rng = np.random.default_rng(seed)
    S, A, T = 4, 3, 5
    initial, kernels, phi = random_problem(rng, S, A, T)
    J, policy = oracle.soft_backward(initial, kernels, np.zeros((T, S, A)), beta=1.0)
    assert J == pytest.approx(T * math.log(A), rel=1e-14)
    np.testing.assert_allclose(policy, 1.0 / A, rtol=1e-14)


@pytest.mark.parametrize("beta", [0.3, 1.0, 2.5])
def test_gradient_matches_central_differences(beta):
    rng = np.random.default_rng(7)
    initial, kernels, phi = random_problem(rng)
    theta = rng.normal(size=phi.shape[-1])
    grad = oracle.grad_j_star(initial, kernels, phi, theta, beta)
    h = 1e-5
    fd = np.empty_like(grad)
    for k in range(theta.size):
        e = np.zeros_like(theta)
        e[k] = h
        fd[k] = (
            oracle.j_star(initial, kernels, phi, theta + e, beta)
            - oracle.j_star(initial, kernels, phi, theta - e, beta)
        ) / (2 * h)
    np.testing.assert_allclose(grad, fd, rtol=1e-7, atol=1e-8)
