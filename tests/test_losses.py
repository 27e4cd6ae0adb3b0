"""Tests for IRL/MLE risks, their equivalence, and the non-convexity probe."""

import numpy as np
import pytest

from soft_irl import (
    FeatureMap,
    LinearRewardModel,
    Policy,
    delta_terms,
    derivative_bundle,
    enumerate_support,
    equivalence_report,
    feature_expectation,
    irl_empirical_loss,
    irl_population_loss,
    mle_loss,
    mle_population_loss,
    nonconvexity_probe,
    reward_of,
    sample_trajectories,
    soft_backward,
    solve_model,
    trajectory_kl,
    uniform_policy,
)
from soft_irl.instances import counterexample_instance
from soft_irl.mdp import empirical_feature_expectation
from soft_irl.soft_dp import log_policy_density

from test_mdp import random_mdp, random_policy
from test_rewards import model_at, random_features

# 40-digit closed-form evaluation of the two-step branching instance
LOSS_A = 1.2919432685750291   # theta = (2, 4)
LOSS_B = 1.4802396307563538   # theta = (-4, 2)
LOSS_MID = 1.6431479149568758  # theta = (-1, 3)


def any_dataset(rng, mdp, n=16, seed=0):
    return sample_trajectories(mdp, uniform_policy(mdp), n, seed)


# ---------------------------------------------------------------------------
# IRL losses


def test_irl_loss_at_zero_is_pure_entropy_value():
    rng = np.random.default_rng(0)
    mdp = random_mdp(rng, S=3, A=2, T=4)
    features = random_features(rng, mdp, 3)
    beta = 0.7
    loss = irl_empirical_loss(mdp, model_at(features, np.zeros(3)), beta, any_dataset(rng, mdp))
    assert loss == pytest.approx(mdp.T * beta * np.log(mdp.A), abs=1e-12)


def test_irl_empirical_approaches_population():
    rng = np.random.default_rng(1)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    features = random_features(rng, mdp, 3)
    theta = 0.5 * rng.normal(size=3)
    beta = 0.8
    model = model_at(features, theta)
    expert = solve_model(mdp, model, beta).pi_star

    n = 200_000
    data = sample_trajectories(mdp, expert, n, seed=11)
    emp = irl_empirical_loss(mdp, model, beta, data)
    pop = irl_population_loss(mdp, model, beta, expert)

    # the only fluctuation is <theta, phi_hat - phi>; bound it by 4 SEs
    states, actions = data.states, data.actions
    per_traj = features.phi[np.arange(mdp.T)[None, :], states, actions].sum(axis=1) @ theta
    se = per_traj.std(ddof=1) / np.sqrt(n)
    assert abs(emp - pop) <= 4 * se

    grad = derivative_bundle(mdp, model, beta).grad - empirical_feature_expectation(data, features)
    per_coord_se = (
        features.phi[np.arange(mdp.T)[None, :], states, actions].sum(axis=1).std(axis=0, ddof=1)
        / np.sqrt(n)
    )
    assert np.all(np.abs(grad) <= 4 * per_coord_se)


def test_wellspecified_population_loss_is_minimized_at_expert_parameter():
    rng = np.random.default_rng(2)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    features = random_features(rng, mdp, 3)
    theta = rng.normal(size=3) * 0.5
    beta = 0.9
    expert = solve_model(mdp, model_at(features, theta), beta).pi_star
    base = irl_population_loss(mdp, model_at(features, theta), beta, expert)
    for _ in range(20):
        other = theta + rng.normal(size=3)
        assert irl_population_loss(mdp, model_at(features, other), beta, expert) >= base - 1e-12


def test_irl_loss_at_zero_has_no_data_dependence():
    rng = np.random.default_rng(3)
    mdp = random_mdp(rng)
    features = random_features(rng, mdp, 2)
    zero = model_at(features, np.zeros(2))
    a = irl_empirical_loss(mdp, zero, 1.0, any_dataset(rng, mdp, seed=1))
    b = irl_empirical_loss(mdp, zero, 1.0, any_dataset(rng, mdp, seed=2))
    pop = irl_population_loss(mdp, zero, 1.0, random_policy(rng, mdp))
    assert a == b == pytest.approx(pop, abs=1e-12)


def test_excess_population_loss_is_beta_times_kl():
    rng = np.random.default_rng(4)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    features = random_features(rng, mdp, 3)
    theta_e = 0.4 * rng.normal(size=3)
    beta = 0.6
    expert = solve_model(mdp, model_at(features, theta_e), beta).pi_star
    base = irl_population_loss(mdp, model_at(features, theta_e), beta, expert)
    for _ in range(10):
        theta = theta_e + rng.normal(size=3)
        excess = irl_population_loss(mdp, model_at(features, theta), beta, expert) - base
        pi = solve_model(mdp, model_at(features, theta), beta).pi_star
        assert excess == pytest.approx(beta * trajectory_kl(mdp, expert, pi), abs=1e-9)


def test_irl_loss_is_convex():
    rng = np.random.default_rng(5)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    features = random_features(rng, mdp, 3)
    data = any_dataset(rng, mdp, n=8, seed=3)
    beta = 1.1

    def loss(theta):
        return irl_empirical_loss(mdp, model_at(features, theta), beta, data)

    for _ in range(100):
        t1, t2 = rng.normal(size=3), rng.normal(size=3)
        l1, l2 = loss(t1), loss(t2)
        for lam in (0.25, 0.5, 0.75):
            assert loss(lam * t1 + (1 - lam) * t2) <= lam * l1 + (1 - lam) * l2 + 1e-10


# ---------------------------------------------------------------------------
# MLE losses


def test_mle_loss_uniform_policy():
    rng = np.random.default_rng(6)
    mdp = random_mdp(rng, S=3, A=2, T=4)
    data = any_dataset(rng, mdp, n=9, seed=4)
    assert mle_loss(mdp, uniform_policy(mdp), data) == pytest.approx(4 * np.log(2), abs=1e-12)


def test_mle_loss_infinite_on_unsupported_action():
    rng = np.random.default_rng(7)
    mdp = random_mdp(rng, S=2, A=2, T=2)
    probs = np.zeros((2, 2, 2))
    probs[:, :, 0] = 1.0
    deterministic = Policy(probs=probs)
    data = sample_trajectories(mdp, uniform_policy(mdp), 50, seed=5)
    took_other = bool(np.any(data.actions == 1))
    assert took_other
    assert mle_loss(mdp, deterministic, data) == np.inf


def _per_row_mle_loss(mdp, policy, data):
    """The average negative log-likelihood from each row's gathered log-densities."""
    log_density = log_policy_density(mdp, policy)
    terms = log_density[np.arange(data.T)[None, :], data.states, data.actions]
    if np.any(np.isneginf(terms)):
        return np.inf
    return float(-terms.sum(axis=1).mean())


def test_mle_loss_matches_per_row_average():
    """The visit-frequency loss equals the per-row average up to summation order.

    With a unit reference measure every log-density is <= 0, so both sides sum
    terms of one sign and each lies within ``gamma(m) = m 2**-53 / (1 - m 2**-53)``
    of the exact value relatively, with ``m`` at most ``T*S*A + T + n + 2``;
    that is below 1e-13 here, so ``rel=1e-12`` separates rounding from a
    counting error.  A zero-probability action is ``+inf`` on both sides when
    the data take it and harmless when they do not.
    """
    rng = np.random.default_rng(12)
    for seed in range(5):
        mdp = random_mdp(rng, S=3, A=2, T=4)
        policy = random_policy(rng, mdp)
        data = sample_trajectories(mdp, random_policy(rng, mdp), 500, seed=seed)
        assert mle_loss(mdp, policy, data) == pytest.approx(
            _per_row_mle_loss(mdp, policy, data), rel=1e-12
        )

    first = np.zeros((mdp.T, mdp.S, mdp.A))
    first[:, :, 0] = 1.0  # no mass on the action the data never take
    expert = Policy(probs=first)
    data = sample_trajectories(mdp, expert, 50, seed=9)
    assert mle_loss(mdp, expert, data) == _per_row_mle_loss(mdp, expert, data) == 0.0
    other = Policy(probs=first[:, :, ::-1].copy())
    assert mle_loss(mdp, other, data) == _per_row_mle_loss(mdp, other, data) == np.inf
    assert mle_population_loss(mdp, expert, expert) == 0.0
    assert mle_population_loss(mdp, other, expert) == np.inf


def test_empirical_frequencies_minimize_mle_loss():
    rng = np.random.default_rng(8)
    mdp = random_mdp(rng, S=2, A=2, T=2)
    data = sample_trajectories(mdp, random_policy(rng, mdp), 200, seed=6)
    states, actions = data.states, data.actions

    counts = np.zeros((mdp.T, mdp.S, mdp.A))
    for t in range(mdp.T):
        np.add.at(counts[t], (states[:, t], actions[:, t]), 1.0)
    freq = np.where(counts.sum(-1, keepdims=True) > 0,
                    counts / np.maximum(counts.sum(-1, keepdims=True), 1.0),
                    1.0 / mdp.A)
    mle_star = mle_loss(mdp, Policy(probs=freq), data)

    for _ in range(25):
        lam = rng.uniform(0.05, 0.5)
        mixed = (1 - lam) * freq + lam * rng.dirichlet(np.ones(mdp.A), size=(mdp.T, mdp.S))
        assert mle_loss(mdp, Policy(probs=mixed), data) >= mle_star - 1e-12


def test_deterministic_mdp_equivalence_is_exact():
    rng = np.random.default_rng(9)
    mdp = random_mdp(rng, S=3, A=2, T=3, deterministic=True)
    features = random_features(rng, mdp, 3)
    theta = rng.normal(size=3)
    beta = 0.75
    model = model_at(features, theta)
    pi = solve_model(mdp, model, beta).pi_star
    data = sample_trajectories(mdp, pi, 40, seed=7)
    assert beta * mle_loss(mdp, pi, data) == pytest.approx(
        irl_empirical_loss(mdp, model, beta, data), abs=1e-12
    )


# ---------------------------------------------------------------------------
# equivalence reports


def test_population_identity_absolute():
    """beta * population MLE risk coincides with the population IRL risk."""
    rng = np.random.default_rng(10)
    for _ in range(5):
        mdp = random_mdp(rng, S=3, A=2, T=3)
        features = random_features(rng, mdp, 3)
        beta = float(rng.uniform(0.4, 1.5))
        theta = rng.normal(size=3)
        model = model_at(features, theta)
        expert = random_policy(rng, mdp)
        pi = solve_model(mdp, model, beta).pi_star
        assert beta * mle_population_loss(mdp, pi, expert) == pytest.approx(
            irl_population_loss(mdp, model, beta, expert), abs=1e-9
        )


def test_equivalence_report_stochastic():
    rng = np.random.default_rng(11)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    features = random_features(rng, mdp, 3)
    model = model_at(features, rng.normal(size=3))
    expert = random_policy(rng, mdp)
    data = sample_trajectories(mdp, expert, 64, seed=8)
    report = equivalence_report(mdp, model, 0.8, data, expert)
    assert abs(report.equivalence_gap) <= 1e-9
    assert report.residual_term != 0.0


def test_equivalence_report_deterministic_residual_is_exactly_zero():
    rng = np.random.default_rng(12)
    mdp = random_mdp(rng, S=3, A=2, T=3, deterministic=True)
    features = random_features(rng, mdp, 3)
    model = model_at(features, rng.normal(size=3))
    expert = random_policy(rng, mdp)
    data = sample_trajectories(mdp, expert, 32, seed=9)
    report = equivalence_report(mdp, model, 0.6, data, expert)
    assert report.residual_term == 0.0
    assert abs(report.equivalence_gap) <= 1e-12


def test_myopic_reward_kills_residual():
    """Rewards of the form beta*log(pi/nu) have identically zero optimal values."""
    rng = np.random.default_rng(13)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    base = random_policy(rng, mdp)
    beta = 1.3
    phi = (np.log(base.probs) - np.log(mdp.ref_measure))[:, :, :, None]
    model = LinearRewardModel(features=FeatureMap(phi=phi), theta=np.array([beta]))

    sol = solve_model(mdp, model, beta)
    np.testing.assert_allclose(sol.V, 0.0, atol=1e-12)
    np.testing.assert_allclose(sol.pi_star.probs, base.probs, atol=1e-12)

    expert = random_policy(rng, mdp)
    data = sample_trajectories(mdp, expert, 32, seed=10)
    report = equivalence_report(mdp, model, beta, data, expert)
    assert report.residual_term == pytest.approx(0.0, abs=1e-12)


def test_population_residual_is_mean_zero():
    rng = np.random.default_rng(14)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    features = random_features(rng, mdp, 3)
    model = model_at(features, rng.normal(size=3))
    beta = 0.9
    expert = random_policy(rng, mdp)

    V_star = solve_model(mdp, model, beta).V
    states, actions, probs = enumerate_support(mdp, expert)
    residuals = delta_terms(mdp, V_star, states, actions).sum(axis=1)
    assert float(probs @ residuals) == pytest.approx(0.0, abs=1e-10)


def test_counterexample_single_trajectory_identity():
    mdp, features, data = counterexample_instance()
    assert len(data) == 1
    model = model_at(features, [2.0, 4.0])
    report = equivalence_report(mdp, model, 1.0, data, uniform_policy(mdp))
    assert report.irl_empirical + report.residual_term == pytest.approx(LOSS_A, rel=1e-12)
    assert report.mle_empirical == pytest.approx(LOSS_A, rel=1e-12)


# ---------------------------------------------------------------------------
# non-convexity probe


def test_nonconvexity_probe_values():
    report = nonconvexity_probe()
    assert report.loss_a == pytest.approx(LOSS_A, rel=1e-12)
    assert report.loss_b == pytest.approx(LOSS_B, rel=1e-12)
    assert report.loss_mid == pytest.approx(LOSS_MID, rel=1e-12)
    # the published 4-decimal values
    assert report.loss_a == pytest.approx(1.2919, abs=1e-3)
    assert report.loss_b == pytest.approx(1.4802, abs=1e-3)
    assert report.loss_mid == pytest.approx(1.6431, abs=1e-3)
    assert report.quasiconvexity_violated
    assert report.loss_mid > max(report.loss_a, report.loss_b)


def test_nonconvexity_probe_is_midpoint_of_inputs():
    report = nonconvexity_probe(theta_a=(2.0, 4.0), theta_b=(-4.0, 2.0))
    np.testing.assert_allclose(
        0.5 * (np.array(report.theta_a) + np.array(report.theta_b)), [-1.0, 3.0]
    )
