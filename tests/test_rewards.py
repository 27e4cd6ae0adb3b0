"""Tests for linear reward models: derivatives, kernel, shaping, dimensions."""

import itertools

import numpy as np
import pytest

from soft_irl import (
    DEFAULT_ENUMERATION_CAP,
    Dataset,
    FeatureMap,
    LinearRewardModel,
    Mdp,
    RewardTable,
    batch_scores,
    derivative_bundle,
    effective_dimension,
    enumerate_support,
    feature_advantage,
    geometry_constants,
    kernel_basis,
    max_cumulative_feature_norm,
    policy_evaluate,
    reward_of,
    score,
    shaping_projector,
    solve_model,
    soft_backward,
    third_derivative,
    trajectory_kl,
    variance_decomposition,
)
from soft_irl.instances import counterexample_instance

from test_mdp import random_mdp, random_policy


def random_features(rng, mdp, d):
    return FeatureMap(phi=rng.normal(size=(mdp.T, mdp.S, mdp.A, d)))


def model_at(features, theta):
    return LinearRewardModel(features=features, theta=np.asarray(theta, dtype=np.float64))


def fd_grad(mdp, features, theta, beta, step=1e-5):
    d = features.d
    out = np.empty(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = step
        up = solve_model(mdp, model_at(features, theta + e), beta).J_star
        dn = solve_model(mdp, model_at(features, theta - e), beta).J_star
        out[i] = (up - dn) / (2 * step)
    return out


def fd_hessian(mdp, features, theta, beta, step=1e-4):
    d = features.d
    out = np.empty((d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = step
        up = derivative_bundle(mdp, model_at(features, theta + e), beta).grad
        dn = derivative_bundle(mdp, model_at(features, theta - e), beta).grad
        out[i] = (up - dn) / (2 * step)
    return 0.5 * (out + out.T)


def shaping_feature(rng, mdp):
    """A potential-shaping reward column psi_t - (P_t psi_{t+1})."""
    psi = rng.normal(size=(mdp.T, mdp.S))
    u = np.empty((mdp.T, mdp.S, mdp.A))
    for t in range(mdp.T):
        u[t] = psi[t][:, None]
        if t < mdp.T - 1:
            u[t] -= mdp.kernels[t] @ psi[t + 1]
    return u


# ---------------------------------------------------------------------------
# reward_of / model validation


def test_reward_of_zero_theta():
    rng = np.random.default_rng(0)
    mdp = random_mdp(rng)
    features = random_features(rng, mdp, 3)
    np.testing.assert_array_equal(reward_of(model_at(features, np.zeros(3))).r, 0.0)


def test_reward_of_constant_feature():
    rng = np.random.default_rng(1)
    mdp = random_mdp(rng)
    features = FeatureMap(phi=np.ones((mdp.T, mdp.S, mdp.A, 1)))
    np.testing.assert_allclose(reward_of(model_at(features, [2.5])).r, 2.5)


def test_reward_of_matches_dot_products():
    rng = np.random.default_rng(2)
    mdp = random_mdp(rng)
    features = random_features(rng, mdp, 4)
    theta = rng.normal(size=4)
    r = reward_of(model_at(features, theta)).r
    for t, s, a in itertools.product(range(mdp.T), range(mdp.S), range(mdp.A)):
        assert r[t, s, a] == pytest.approx(float(features.phi[t, s, a] @ theta), abs=1e-14)


def test_model_enforces_ball_radius():
    rng = np.random.default_rng(3)
    mdp = random_mdp(rng)
    features = random_features(rng, mdp, 2)
    LinearRewardModel(features=features, theta=np.array([3.0, 4.0]), B_theta=5.0)
    with pytest.raises(Exception):
        LinearRewardModel(features=features, theta=np.array([3.0, 4.01]), B_theta=5.0)


# ---------------------------------------------------------------------------
# first derivative


def test_grad_of_constant_basis_feature():
    rng = np.random.default_rng(4)
    mdp = random_mdp(rng, T=4)
    phi = np.zeros((mdp.T, mdp.S, mdp.A, 2))
    phi[:, :, :, 0] = 1.0
    features = FeatureMap(phi=phi)
    for theta in [np.zeros(2), np.array([0.3, -2.0])]:
        np.testing.assert_allclose(
            derivative_bundle(mdp, model_at(features, theta), 0.7).grad, [mdp.T, 0.0], atol=1e-12
        )


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(3):
        mdp = random_mdp(rng, S=3, A=2, T=3)
        features = random_features(rng, mdp, 3)
        theta = rng.normal(size=3)
        beta = float(rng.uniform(0.4, 1.5))
        g = derivative_bundle(mdp, model_at(features, theta), beta).grad
        fd = fd_grad(mdp, features, theta, beta)
        assert np.linalg.norm(g - fd) / np.linalg.norm(g) <= 1e-6


def test_grad_on_branching_counterexample():
    mdp, features, _ = counterexample_instance()
    theta = np.array([2.0, 4.0])
    g = derivative_bundle(mdp, model_at(features, theta), 1.0).grad
    fd = fd_grad(mdp, features, theta, 1.0)
    np.testing.assert_allclose(g, fd, atol=1e-6)


def test_grad_is_feature_expectation_of_gibbs():
    rng = np.random.default_rng(6)
    mdp = random_mdp(rng, S=3, A=3, T=3)
    features = random_features(rng, mdp, 4)
    theta = rng.normal(size=4)
    beta = 0.9
    model = model_at(features, theta)
    from soft_irl import feature_expectation

    pi = solve_model(mdp, model, beta).pi_star
    np.testing.assert_allclose(
        derivative_bundle(mdp, model, beta).grad, feature_expectation(mdp, pi, features), atol=1e-12
    )


# ---------------------------------------------------------------------------
# second derivative


def test_hessian_of_constant_features_is_zero():
    rng = np.random.default_rng(7)
    mdp = random_mdp(rng)
    phi = np.broadcast_to([1.0, -0.5], (mdp.T, mdp.S, mdp.A, 2)).copy()
    H = derivative_bundle(mdp, model_at(FeatureMap(phi=phi), [0.1, 0.2]), 1.0).hessian
    np.testing.assert_allclose(H, 0.0, atol=1e-12)


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(8)
    for _ in range(3):
        mdp = random_mdp(rng, S=3, A=2, T=3)
        features = random_features(rng, mdp, 3)
        theta = rng.normal(size=3)
        beta = float(rng.uniform(0.4, 1.5))
        H = derivative_bundle(mdp, model_at(features, theta), beta).hessian
        fd = fd_hessian(mdp, features, theta, beta)
        assert np.linalg.norm(H - fd) / np.linalg.norm(H) <= 1e-5


def test_hessian_equals_beta_times_fisher():
    """Dual route: occupancy Hessian vs enumerated score covariance."""
    rng = np.random.default_rng(9)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    features = random_features(rng, mdp, 3)
    theta = rng.normal(size=3)
    beta = 0.6
    model = model_at(features, theta)

    H = derivative_bundle(mdp, model, beta).hessian
    pi = solve_model(mdp, model, beta).pi_star
    states, actions, probs = enumerate_support(mdp, pi)
    Z = batch_scores(feature_advantage(mdp, features, pi), states, actions)
    fisher = (Z * probs[:, None]).T @ Z / beta**2  # scores are Z / beta
    np.testing.assert_allclose(H, beta * fisher, atol=1e-9)


def test_hessian_is_psd():
    rng = np.random.default_rng(10)
    for _ in range(10):
        mdp = random_mdp(rng, S=3, A=2, T=3)
        features = random_features(rng, mdp, 4)
        model = model_at(features, rng.normal(size=4))
        H = derivative_bundle(mdp, model, float(rng.uniform(0.3, 2.0))).hessian
        assert np.linalg.eigvalsh(H).min() >= -1e-9


def test_derivative_bundle_consistency():
    rng = np.random.default_rng(11)
    mdp = random_mdp(rng)
    features = random_features(rng, mdp, 3)
    model = model_at(features, rng.normal(size=3))
    bundle = derivative_bundle(mdp, model, 0.8)
    solution = solve_model(mdp, model, 0.8)
    assert bundle.J_star == pytest.approx(solution.J_star)
    # gradient and Hessian against enumerated trajectory moments of the Gibbs policy
    states, actions, probs = enumerate_support(mdp, solution.pi_star)
    F = features.phi[np.arange(mdp.T)[None, :], states, actions].sum(axis=1)
    np.testing.assert_allclose(bundle.grad, probs @ F, rtol=1e-10, atol=1e-12)
    Z = batch_scores(feature_advantage(mdp, features, solution.pi_star), states, actions)
    np.testing.assert_allclose(bundle.hessian, (Z.T * probs) @ Z / 0.8, rtol=1e-9, atol=1e-12)


def test_bregman_identity():
    """The second-order remainder of J* equals beta times a trajectory KL."""
    rng = np.random.default_rng(12)
    for _ in range(10):
        mdp = random_mdp(rng, S=3, A=2, T=3)
        features = random_features(rng, mdp, 3)
        beta = float(rng.uniform(0.4, 1.5))
        theta0, theta1 = rng.normal(size=3), rng.normal(size=3)
        m0, m1 = model_at(features, theta0), model_at(features, theta1)
        bregman = (
            solve_model(mdp, m1, beta).J_star
            - solve_model(mdp, m0, beta).J_star
            - float(derivative_bundle(mdp, m0, beta).grad @ (theta1 - theta0))
        )
        pi0 = solve_model(mdp, m0, beta).pi_star
        pi1 = solve_model(mdp, m1, beta).pi_star
        assert bregman == pytest.approx(beta * trajectory_kl(mdp, pi0, pi1), abs=1e-8)


# ---------------------------------------------------------------------------
# scores


def test_score_is_mean_zero():
    rng = np.random.default_rng(13)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    features = random_features(rng, mdp, 3)
    model = model_at(features, rng.normal(size=3))
    pi = solve_model(mdp, model, 1.0).pi_star
    states, actions, probs = enumerate_support(mdp, pi)
    Z = batch_scores(feature_advantage(mdp, features, pi), states, actions)
    np.testing.assert_allclose(probs @ Z, 0.0, atol=1e-10)


def test_score_single_step_is_centered_feature():
    rng = np.random.default_rng(14)
    mdp = Mdp(T=1, S=2, A=3, initial_dist=[0.5, 0.5],
              kernels=np.zeros((0, 2, 3, 2)), ref_measure=np.ones(3))
    features = random_features(rng, mdp, 1)
    model = model_at(features, [0.4])
    pi = solve_model(mdp, model, 1.0).pi_star
    tau = Dataset(states=[[1]], actions=[[2]], seed=0)
    phi_row = features.phi[0, 1, :, 0]
    expected = phi_row[2] - float(pi.probs[0, 1] @ phi_row)
    Z = score(mdp, model, 1.0, tau)
    assert Z.shape == (1, 1)
    assert Z[0, 0] == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# third derivative


def third_derivative_by_enumeration(mdp, model, beta, xi, zeta, omega):
    """Oracle: ``E[Z_xi Z_zeta Z_omega] / beta**2`` summed over the Gibbs policy's support."""
    pi = solve_model(mdp, model, beta).pi_star
    adv = feature_advantage(mdp, model.features, pi)
    states, actions, probs = enumerate_support(mdp, pi)
    Z = batch_scores(adv, states, actions)
    return float(probs @ ((Z @ xi) * (Z @ zeta) * (Z @ omega))) / beta**2


@pytest.mark.parametrize("deterministic", [False, True])
def test_third_derivative_matches_enumeration(deterministic):
    rng = np.random.default_rng(34 + deterministic)
    for _ in range(10):
        mdp = random_mdp(rng, S=3, A=3, T=4, deterministic=deterministic)
        features = random_features(rng, mdp, 3)
        model = model_at(features, rng.normal(size=3))
        beta = float(rng.choice([0.4, 0.8, 1.5]))
        dirs = [rng.normal(size=3) for _ in range(3)]
        expected = third_derivative_by_enumeration(mdp, model, beta, *dirs)
        value = third_derivative(mdp, model, beta, *dirs)
        if abs(expected) < 1e-12:
            assert abs(value - expected) <= 1e-12
        else:
            assert value == pytest.approx(expected, rel=1e-10)


def test_third_derivative_beyond_enumeration_cap():
    from soft_irl import CapacityError, DEFAULT_ENUMERATION_CAP

    rng = np.random.default_rng(46)
    mdp = random_mdp(rng, S=50, A=10, T=20)
    assert (mdp.S * mdp.A) ** mdp.T > DEFAULT_ENUMERATION_CAP
    features = random_features(rng, mdp, 50)
    theta = 0.1 * rng.normal(size=50)
    beta = 0.8
    xi, zeta, omega = (rng.normal(size=50) for _ in range(3))
    model = model_at(features, theta)
    with pytest.raises(CapacityError):
        third_derivative_by_enumeration(mdp, model, beta, xi, zeta, omega)

    val = third_derivative(mdp, model, beta, xi, zeta, omega)
    step = 1e-3
    up = xi @ derivative_bundle(mdp, model_at(features, theta + step * omega), beta).hessian @ zeta
    dn = xi @ derivative_bundle(mdp, model_at(features, theta - step * omega), beta).hessian @ zeta
    assert np.isfinite(val)
    assert val == pytest.approx((up - dn) / (2 * step), rel=1e-4)


def test_third_derivative_constant_features():
    rng = np.random.default_rng(15)
    mdp = random_mdp(rng)
    phi = np.broadcast_to([1.0, 2.0], (mdp.T, mdp.S, mdp.A, 2)).copy()
    model = model_at(FeatureMap(phi=phi), [0.0, 0.0])
    val = third_derivative(mdp, model, 1.0, np.eye(2)[0], np.eye(2)[1], np.ones(2))
    assert val == pytest.approx(0.0, abs=1e-12)


def test_third_derivative_symmetry():
    rng = np.random.default_rng(16)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    features = random_features(rng, mdp, 3)
    model = model_at(features, rng.normal(size=3))
    dirs = [rng.normal(size=3) for _ in range(3)]
    vals = [
        third_derivative(mdp, model, 0.7, dirs[i], dirs[j], dirs[k])
        for i, j, k in itertools.permutations(range(3))
    ]
    assert max(vals) - min(vals) <= 1e-12 * max(1.0, abs(vals[0]))


def test_third_derivative_matches_finite_differences():
    rng = np.random.default_rng(17)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    features = random_features(rng, mdp, 3)
    theta = rng.normal(size=3)
    beta = 0.8
    xi, zeta, omega = (rng.normal(size=3) for _ in range(3))

    val = third_derivative(mdp, model_at(features, theta), beta, xi, zeta, omega)
    step = 1e-3
    up = xi @ derivative_bundle(mdp, model_at(features, theta + step * omega), beta).hessian @ zeta
    dn = xi @ derivative_bundle(mdp, model_at(features, theta - step * omega), beta).hessian @ zeta
    fd = (up - dn) / (2 * step)
    assert val == pytest.approx(fd, rel=1e-3)


def test_pseudo_self_concordance_inequality():
    """|D^3 J[xi, xi, zeta]| <= B_A_phi / beta * |zeta| * D^2 J[xi, xi]."""
    rng = np.random.default_rng(18)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    features = random_features(rng, mdp, 3)
    theta = rng.normal(size=3) * 0.5
    beta = 0.9
    model = model_at(features, theta)
    H = derivative_bundle(mdp, model, beta).hessian
    gc = geometry_constants(mdp, features, model, beta)
    assert gc.mode == "exact"
    for _ in range(10):
        xi = rng.normal(size=3)
        xi /= np.linalg.norm(xi)
        zeta = rng.normal(size=3)
        lhs = abs(third_derivative(mdp, model, beta, xi, xi, zeta))
        rhs = gc.B_A_phi / beta * np.linalg.norm(zeta) * float(xi @ H @ xi)
        assert lhs <= rhs + 1e-9


# ---------------------------------------------------------------------------
# identifiability kernel


def test_kernel_contains_constant_direction():
    rng = np.random.default_rng(19)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    phi = rng.normal(size=(mdp.T, mdp.S, mdp.A, 3))
    phi[:, :, :, 0] = 1.0  # constant column
    features = FeatureMap(phi=phi)
    H = derivative_bundle(mdp, model_at(features, np.zeros(3)), 1.0).hessian
    basis = kernel_basis(H)
    assert basis.shape[1] >= 1
    e0 = np.eye(3)[0]
    proj = basis @ (basis.T @ e0)
    np.testing.assert_allclose(proj, e0, atol=1e-8)


def test_kernel_empty_for_generic_features():
    rng = np.random.default_rng(20)
    mdp = random_mdp(rng, S=4, A=3, T=3)
    features = random_features(rng, mdp, 3)
    H = derivative_bundle(mdp, model_at(features, np.zeros(3)), 1.0).hessian
    assert kernel_basis(H).shape[1] == 0


def test_shaping_direction_lies_in_kernel():
    rng = np.random.default_rng(21)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    phi = rng.normal(size=(mdp.T, mdp.S, mdp.A, 4))
    phi[:, :, :, 3] = shaping_feature(rng, mdp)
    features = FeatureMap(phi=phi)

    theta = rng.normal(size=4)
    H = derivative_bundle(mdp, model_at(features, theta), 0.8).hessian
    basis = kernel_basis(H)
    assert basis.shape[1] >= 1
    # the pure-shaping parameter direction is reproduced by the kernel projector
    e3 = np.eye(4)[3]
    np.testing.assert_allclose(basis @ (basis.T @ e3), e3, atol=1e-6)


def test_kernel_is_theta_independent():
    rng = np.random.default_rng(22)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    phi = rng.normal(size=(mdp.T, mdp.S, mdp.A, 4))
    phi[:, :, :, 0] = 1.0
    phi[:, :, :, 3] = shaping_feature(rng, mdp)
    features = FeatureMap(phi=phi)

    b1 = kernel_basis(derivative_bundle(mdp, model_at(features, rng.normal(size=4)), 0.8).hessian)
    b2 = kernel_basis(derivative_bundle(mdp, model_at(features, rng.normal(size=4)), 0.8).hessian)
    assert b1.shape == b2.shape and b1.shape[1] >= 2
    angles = np.linalg.svd(b1.T @ b2, compute_uv=False)
    np.testing.assert_allclose(angles, 1.0, atol=1e-6)


def test_trajectory_law_invariant_along_kernel():
    rng = np.random.default_rng(23)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    phi = rng.normal(size=(mdp.T, mdp.S, mdp.A, 4))
    phi[:, :, :, 3] = shaping_feature(rng, mdp)
    features = FeatureMap(phi=phi)
    theta = rng.normal(size=4)
    beta = 1.2

    H = derivative_bundle(mdp, model_at(features, theta), beta).hessian
    basis = kernel_basis(H)
    pi0 = solve_model(mdp, model_at(features, theta), beta).pi_star
    for k in range(basis.shape[1]):
        pi1 = solve_model(mdp, model_at(features, theta + 2.0 * basis[:, k]), beta).pi_star
        assert trajectory_kl(mdp, pi0, pi1) <= 1e-8


def test_gradient_is_constant_along_kernel():
    """Reward functionals of kernel directions transfer across all Gibbs policies."""
    rng = np.random.default_rng(24)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    phi = rng.normal(size=(mdp.T, mdp.S, mdp.A, 4))
    phi[:, :, :, 3] = shaping_feature(rng, mdp)
    features = FeatureMap(phi=phi)
    beta = 0.9

    H = derivative_bundle(mdp, model_at(features, np.zeros(4)), beta).hessian
    basis = kernel_basis(H)
    assert basis.shape[1] >= 1
    xi = basis[:, 0]
    g1 = derivative_bundle(mdp, model_at(features, rng.normal(size=4)), beta).grad
    g2 = derivative_bundle(mdp, model_at(features, rng.normal(size=4)), beta).grad
    assert float(g1 @ xi) == pytest.approx(float(g2 @ xi), abs=1e-8)


# ---------------------------------------------------------------------------
# shaping projector


def test_projector_fixed_point():
    rng = np.random.default_rng(25)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    pi = random_policy(rng, mdp)
    reward = RewardTable(r=rng.normal(size=(mdp.T, mdp.S, mdp.A)))
    once = shaping_projector(mdp, reward, pi, 0.5)
    twice = shaping_projector(mdp, once, pi, 0.5)
    np.testing.assert_allclose(twice.r, once.r, atol=1e-12)


def test_projector_annihilates_pure_shaping():
    rng = np.random.default_rng(26)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    pi = random_policy(rng, mdp)
    u = RewardTable(r=shaping_feature(rng, mdp))
    out = shaping_projector(mdp, u, pi, 0.0)
    var = variance_decomposition(mdp, out, pi, 0.0)
    assert var.total == pytest.approx(0.0, abs=1e-18)
    np.testing.assert_allclose(policy_evaluate(mdp, out, pi, 0.0).advantage, 0.0, atol=1e-9)


def test_projector_zeroes_values_and_dynamics_variance():
    rng = np.random.default_rng(27)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    pi = random_policy(rng, mdp)
    reward = RewardTable(r=rng.normal(size=(mdp.T, mdp.S, mdp.A)))
    beta = 0.7

    out = shaping_projector(mdp, reward, pi, beta)
    ev = policy_evaluate(mdp, out, pi, beta)
    np.testing.assert_allclose(ev.V, 0.0, atol=1e-9)

    var_in = variance_decomposition(mdp, reward, pi, beta)
    var_out = variance_decomposition(mdp, out, pi, beta)
    assert var_out.dynamics == pytest.approx(0.0, abs=1e-9)
    assert var_out.total == pytest.approx(var_in.action, abs=1e-9)
    assert var_out.total <= var_in.total + 1e-12


# ---------------------------------------------------------------------------
# effective dimension and geometry constants


def test_effective_dimension_deterministic_well_specified():
    rng = np.random.default_rng(28)
    from soft_irl import InstanceSpec, generate_instance
    from soft_irl.opt import FitConfig, fit_population

    spec = InstanceSpec(S=4, A=2, T=3, d=4, beta=0.5, seed=1, deterministic=True)
    inst = generate_instance(spec)
    pop = fit_population(inst.mdp, inst.features, inst.expert, FitConfig(beta=0.5))
    ed = effective_dimension(inst.mdp, inst.features, inst.expert, pop.hessian_at_solution)
    assert ed.d_star == pytest.approx(0.5 * 4, abs=1e-8)
    np.testing.assert_allclose(ed.dynamics_part, 0.0, atol=1e-12)


def test_effective_dimension_sigma_matches_enumeration():
    """Occupancy-recursion covariance vs direct enumeration of feature returns."""
    rng = np.random.default_rng(29)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    features = random_features(rng, mdp, 3)
    expert = random_policy(rng, mdp)
    H_ref = derivative_bundle(mdp, model_at(features, np.zeros(3)), 1.0).hessian + 1e-6 * np.eye(3)

    ed = effective_dimension(mdp, features, expert, H_ref)
    states, actions, probs = enumerate_support(mdp, expert)
    returns = features.phi[np.arange(mdp.T)[None, :], states, actions].sum(axis=1)
    mean = probs @ returns
    centered = returns - mean
    sigma = (centered * probs[:, None]).T @ centered
    np.testing.assert_allclose(ed.Sigma_E, sigma, atol=1e-9)
    np.testing.assert_allclose(ed.Sigma_E, ed.action_part + ed.dynamics_part, atol=1e-9)
    assert ed.d_star == pytest.approx(float(np.trace(np.linalg.solve(H_ref, sigma))), abs=1e-8)


def test_effective_dimension_beyond_enumeration_cap_is_exact_and_deterministic():
    from soft_irl import DEFAULT_ENUMERATION_CAP

    rng = np.random.default_rng(33)
    mdp = random_mdp(rng, S=5, A=3, T=6)
    assert (mdp.S * mdp.A) ** mdp.T > DEFAULT_ENUMERATION_CAP
    features = random_features(rng, mdp, 4)
    expert = random_policy(rng, mdp)
    H = derivative_bundle(mdp, model_at(features, np.zeros(4)), 0.7).hessian
    a = effective_dimension(mdp, features, expert, H)
    b = effective_dimension(mdp, features, expert, H)
    assert a.d_star == b.d_star
    np.testing.assert_array_equal(a.Sigma_E, b.Sigma_E)
    np.testing.assert_array_equal(a.Sigma_E, a.action_part + a.dynamics_part)
    expected = float(np.trace(np.linalg.solve(H, a.action_part + a.dynamics_part)))
    assert np.isfinite(a.d_star) and a.d_star == pytest.approx(expected, rel=1e-12)


def test_effective_dimension_bound():
    rng = np.random.default_rng(30)
    mdp = random_mdp(rng, S=4, A=3, T=3)
    features = random_features(rng, mdp, 3)
    beta = 0.8
    model = model_at(features, rng.normal(size=3) * 0.3)
    expert = solve_model(mdp, model, beta).pi_star
    H = derivative_bundle(mdp, model, beta).hessian
    lam = float(np.linalg.eigvalsh(H).min())
    assert lam > 1e-8

    ed = effective_dimension(mdp, features, expert, H)
    states, actions, _ = enumerate_support(mdp, expert)
    B_phi = max_cumulative_feature_norm(features, states, actions)
    assert ed.d_star <= B_phi**2 / lam + 1e-8


def test_geometry_constants_constant_features():
    rng = np.random.default_rng(31)
    mdp = random_mdp(rng)
    phi = np.broadcast_to([2.0, 1.0], (mdp.T, mdp.S, mdp.A, 2)).copy()
    features = FeatureMap(phi=phi)
    gc = geometry_constants(mdp, features, model_at(features, np.zeros(2)), 1.0)
    assert gc.mode == "exact"
    assert gc.B_A_phi == pytest.approx(0.0, abs=1e-12)


def triangle_bound(features):
    """``sum_t max_{s,a} ||phi_t(s, a)||``, one feature vector at a time."""
    T, S, A, _ = features.phi.shape
    return sum(
        max(float(np.linalg.norm(features.phi[t, s, a])) for s in range(S) for a in range(A))
        for t in range(T)
    )


def test_geometry_constants_bounds_and_brute_force():
    rng = np.random.default_rng(32)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    features = random_features(rng, mdp, 3)
    model = model_at(features, rng.normal(size=3) * 0.4)

    exact = geometry_constants(mdp, features, model, 0.9)
    assert exact.mode == "exact"
    assert exact.B_A_phi <= 2 * mdp.T * exact.B_phi + 1e-12
    assert exact.B_phi <= triangle_bound(features) + 1e-12

    # brute-force the suffix-sum feature norm over every enumerated trajectory
    from soft_irl import uniform_policy

    states, actions, _ = enumerate_support(mdp, uniform_policy(mdp))
    best = 0.0
    for i in range(states.shape[0]):
        for t0 in range(mdp.T):
            acc = np.zeros(features.d)
            for t in range(t0, mdp.T):
                acc += features.phi[t, states[i, t], actions[i, t]]
            best = max(best, float(np.linalg.norm(acc)))
    assert exact.B_phi == pytest.approx(best, abs=1e-12)


def test_geometry_constants_conservative_above_the_cap():
    """Above the enumeration cap the sup constants fall back to the triangle bounds."""
    rng = np.random.default_rng(33)
    mdp = Mdp(T=12, S=4, A=4, initial_dist=np.full(4, 0.25),
              kernels=np.full((11, 4, 4, 4), 0.25), ref_measure=np.ones(4))
    assert (mdp.S * mdp.A) ** mdp.T > DEFAULT_ENUMERATION_CAP
    features = random_features(rng, mdp, 3)
    gc = geometry_constants(mdp, features, model_at(features, rng.normal(size=3) * 0.4), 0.9)
    assert gc.mode == "conservative"
    assert gc.B_A_phi == pytest.approx(2 * mdp.T * gc.B_phi, abs=1e-12)
    assert gc.B_phi == pytest.approx(triangle_bound(features), rel=1e-12)
