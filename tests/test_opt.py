"""Tests for the damped-Newton IRL fitter."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from soft_irl import (
    FeatureMap,
    FitConfig,
    InstanceSpec,
    Mdp,
    derivative_bundle,
    empirical_feature_expectation,
    feature_expectation,
    fit_empirical,
    fit_population,
    generate_instance,
    irl_empirical_loss,
    irl_population_loss,
    kernel_basis,
    max_score_norm,
    hard_backward,
    sample_trajectories,
    solve_model,
    trajectory_kl,
    uniform_policy,
)
from soft_irl import linear_reward, opt, soft_dp
from soft_irl.errors import SoftIrlError
from soft_irl.mdp import enumerate_support
from soft_irl.soft_dp import RewardTable

from test_mdp import random_mdp, random_policy
from test_rewards import model_at, random_features, shaping_feature


# ---------------------------------------------------------------------------
# the Newton decrement of the restricted step, on a full image basis


def decrement(grad, hessian):
    """``sqrt(g^T H^{-1} g)`` as the fitter computes it: the whole space as
    the image, no ridge."""
    d = len(grad)
    return opt._restricted_newton_step(grad, hessian, np.eye(d), 0.0, 0.0)[1]


def test_decrement_zero_gradient():
    assert decrement(np.zeros(3), np.eye(3)) == 0.0


def test_decrement_identity_hessian():
    g = np.array([3.0, 4.0])
    assert decrement(g, np.eye(2)) == pytest.approx(5.0, abs=1e-14)


def test_decrement_matches_direct_solve():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4))
    H = A @ A.T + 0.5 * np.eye(4)
    g = rng.normal(size=4)
    expected = float(np.sqrt(g @ np.linalg.solve(H, g)))
    assert decrement(g, H) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# scalar closed form


def test_single_step_fit_matches_bisection():
    """d=1, T=1, two actions: the stationarity condition is scalar monotone."""
    mdp = Mdp(T=1, S=1, A=2, initial_dist=[1.0],
              kernels=np.zeros((0, 1, 2, 1)), ref_measure=[1.0, 1.0])
    phi = np.array([[[[1.0], [-0.5]]]])  # phi(a0)=1, phi(a1)=-0.5
    features = FeatureMap(phi=phi)
    beta = 0.7

    target = 0.55  # attainable: between -0.5 and 1.0
    pseudo = np.array([target])

    def grad(theta):
        return float(derivative_bundle(mdp, model_at(features, [theta]), beta).grad[0] - pseudo[0])

    lo, hi = -50.0, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if grad(mid) > 0:
            hi = mid
        else:
            lo = mid
    theta_bisect = 0.5 * (lo + hi)

    # feed the same moment through the public API via a crafted dataset:
    # fit_population against a policy whose feature expectation equals target
    p0 = (target - (-0.5)) / 1.5  # probability of a0 matching the moment
    expert_probs = np.array([[[p0, 1 - p0]]])
    from soft_irl import Policy

    result = fit_population(mdp, features, Policy(probs=expert_probs), FitConfig(beta=beta))
    assert result.converged
    assert result.theta_hat[0] == pytest.approx(theta_bisect, abs=1e-8)


# ---------------------------------------------------------------------------
# population and empirical fits


def test_population_fit_recovers_generating_parameter():
    rng = np.random.default_rng(1)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    features = random_features(rng, mdp, 3)
    theta0 = rng.normal(size=3) * 0.8
    beta = 0.9
    expert = solve_model(mdp, model_at(features, theta0), beta).pi_star

    result = fit_population(mdp, features, expert, FitConfig(beta=beta))
    assert result.converged and not result.active_ball_constraint
    H = result.hessian_at_solution
    delta = result.theta_hat - theta0
    assert np.sqrt(delta @ H @ delta) <= 1e-7
    assert np.linalg.norm(delta) <= 1e-6


def test_interior_fit_matches_features():
    rng = np.random.default_rng(2)
    mdp = random_mdp(rng, S=3, A=3, T=3)
    features = random_features(rng, mdp, 4)
    expert = random_policy(rng, mdp)
    data = sample_trajectories(mdp, expert, 512, seed=3)
    beta = 0.8

    result = fit_empirical(mdp, features, data, FitConfig(beta=beta))
    assert result.converged and not result.active_ball_constraint
    target = empirical_feature_expectation(data, features)
    pi_hat = solve_model(mdp, model_at(features, result.theta_hat), beta).pi_star
    np.testing.assert_allclose(feature_expectation(mdp, pi_hat, features), target, atol=1e-8)
    assert result.gradient_norm <= 1e-8


def test_fit_finishes_on_a_loss_flat_to_roundoff():
    """Near the optimum the predicted decrease drops below J*'s roundoff; the
    fitter must keep taking full Newton steps instead of stopping as stalled."""
    inst = generate_instance(InstanceSpec(S=5, A=3, T=4, d=6, beta=0.5, seed=5))
    data = sample_trajectories(inst.mdp, inst.expert, 256, 17672303468427022154)
    result = fit_empirical(inst.mdp, inst.features, data, FitConfig(beta=0.5))
    assert result.converged
    pi_hat = solve_model(inst.mdp, model_at(inst.features, result.theta_hat), 0.5).pi_star
    gap = feature_expectation(inst.mdp, pi_hat, inst.features)
    gap = gap - empirical_feature_expectation(data, inst.features)
    assert float(np.abs(gap).max()) <= 1e-8


def test_misspecified_fit_beats_random_probes():
    rng = np.random.default_rng(3)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    features = random_features(rng, mdp, 3)
    expert = random_policy(rng, mdp)
    beta = 1.2

    result = fit_population(mdp, features, expert, FitConfig(beta=beta))
    assert result.converged
    assert result.gradient_norm <= 1e-8
    best = irl_population_loss(mdp, model_at(features, result.theta_hat), beta, expert)
    for _ in range(100):
        probe = rng.normal(size=3) * 2.0
        assert irl_population_loss(mdp, model_at(features, probe), beta, expert) >= best - 1e-10


def test_large_beta_with_ball_drives_solution_toward_uniform():
    """With a fixed parameter ball, raising the temperature shrinks theta/beta
    toward zero, so the fitted policy approaches the reference (uniform) one."""
    rng = np.random.default_rng(4)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    features = random_features(rng, mdp, 3)
    expert = random_policy(rng, mdp)
    kl_uniform = trajectory_kl(mdp, expert, uniform_policy(mdp))

    kls = []
    for beta in (1.0, 10.0, 100.0):
        result = fit_population(mdp, features, expert, FitConfig(beta=beta, B_theta=2.0))
        pi_hat = solve_model(mdp, model_at(features, result.theta_hat), beta).pi_star
        kls.append(trajectory_kl(mdp, expert, pi_hat))
    assert kls[0] <= kls[1] + 1e-12 <= kls[2] + 2e-12 <= kl_uniform + 3e-12
    assert kl_uniform - kls[-1] <= 0.2 * kl_uniform


def test_unconstrained_fit_is_temperature_invariant():
    """Without the ball, only theta/beta enters the Gibbs policy, so the fitted
    policy is the same at every temperature and theta_hat scales linearly."""
    rng = np.random.default_rng(4)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    features = random_features(rng, mdp, 3)
    expert = random_policy(rng, mdp)

    r1 = fit_population(mdp, features, expert, FitConfig(beta=0.5))
    r2 = fit_population(mdp, features, expert, FitConfig(beta=7.0))
    assert r1.converged and r2.converged
    pi1 = solve_model(mdp, model_at(features, r1.theta_hat), 0.5).pi_star
    pi2 = solve_model(mdp, model_at(features, r2.theta_hat), 7.0).pi_star
    np.testing.assert_allclose(pi1.probs, pi2.probs, atol=1e-7)
    np.testing.assert_allclose(r2.theta_hat, r1.theta_hat * 14.0, rtol=1e-5)


def test_kernel_component_stays_at_initialization():
    rng = np.random.default_rng(5)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    phi = rng.normal(size=(mdp.T, mdp.S, mdp.A, 4))
    phi[:, :, :, 3] = shaping_feature(rng, mdp)
    features = FeatureMap(phi=phi)
    beta = 0.8

    H = derivative_bundle(mdp, model_at(features, np.zeros(4)), beta).hessian
    basis = kernel_basis(H)
    assert basis.shape[1] >= 1

    expert = random_policy(rng, mdp)
    data = sample_trajectories(mdp, expert, 256, seed=6)
    result = fit_empirical(mdp, features, data, FitConfig(beta=beta))
    assert result.converged
    assert result.final_decrement <= FitConfig(beta=beta).tol_decrement
    np.testing.assert_allclose(basis.T @ result.theta_hat, 0.0, atol=1e-12)


def test_monotone_descent_and_determinism():
    rng = np.random.default_rng(6)
    mdp = random_mdp(rng, S=4, A=3, T=3)
    features = random_features(rng, mdp, 5)
    data = sample_trajectories(mdp, random_policy(rng, mdp), 128, seed=7)
    cfg = FitConfig(beta=0.6)

    r1 = fit_empirical(mdp, features, data, cfg)
    r2 = fit_empirical(mdp, features, data, cfg)
    assert r1.trace == r2.trace  # bitwise-identical floats
    assert tuple(r1.theta_hat) == tuple(r2.theta_hat)

    losses = [rec.loss for rec in r1.trace]
    assert all(b <= a + 1e-14 for a, b in zip(losses, losses[1:]))


def test_trace_records_loss_values():
    rng = np.random.default_rng(7)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    features = random_features(rng, mdp, 3)
    data = sample_trajectories(mdp, random_policy(rng, mdp), 64, seed=8)
    cfg = FitConfig(beta=1.0)
    result = fit_empirical(mdp, features, data, cfg)
    for rec in result.trace:
        expected = irl_empirical_loss(mdp, model_at(features, np.array(rec.theta)), 1.0, data)
        assert rec.loss == pytest.approx(expected, abs=1e-12)
    assert result.final_loss == pytest.approx(result.trace[-1].loss, abs=1e-15)


def test_ball_constraint_kkt():
    rng = np.random.default_rng(8)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    features = random_features(rng, mdp, 3)
    expert = random_policy(rng, mdp)

    unconstrained = fit_population(mdp, features, expert, FitConfig(beta=0.5))
    radius = 0.25 * float(np.linalg.norm(unconstrained.theta_hat))
    result = fit_population(mdp, features, expert, FitConfig(beta=0.5, B_theta=radius))

    assert result.active_ball_constraint
    assert np.linalg.norm(result.theta_hat) == pytest.approx(radius, abs=1e-9)
    # KKT: the gradient points inward along theta_hat with nonneg multiplier
    g = derivative_bundle(mdp, model_at(features, result.theta_hat), 0.5).grad
    g = g - feature_expectation(mdp, expert, features)
    theta = result.theta_hat
    lam = -float(g @ theta) / radius**2
    assert lam >= -1e-12
    np.testing.assert_allclose(g + lam * theta, 0.0, atol=1e-8)
    # constrained optimum beats other feasible points
    best = irl_population_loss(mdp, model_at(features, theta), 0.5, expert)
    for _ in range(50):
        probe = rng.normal(size=3)
        probe *= radius / np.linalg.norm(probe)
        assert irl_population_loss(mdp, model_at(features, probe), 0.5, expert) >= best - 1e-9


def test_max_iters_flags_nonconvergence():
    rng = np.random.default_rng(9)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    features = random_features(rng, mdp, 3)
    data = sample_trajectories(mdp, random_policy(rng, mdp), 64, seed=10)
    result = fit_empirical(mdp, features, data, FitConfig(beta=0.7, max_iters=1))
    assert not result.converged
    assert result.status == "max_iters"
    assert result.iterations == 1


def test_hessian_sandwich_between_iterates():
    """Consecutive Newton iterates within the trust region obey e^{+-1} bounds."""
    rng = np.random.default_rng(10)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    features = random_features(rng, mdp, 3)
    data = sample_trajectories(mdp, random_policy(rng, mdp), 256, seed=11)
    beta = 0.9
    result = fit_empirical(mdp, features, data, FitConfig(beta=beta))
    assert result.converged

    support_states, support_actions, _ = enumerate_support(mdp, uniform_policy(mdp))
    thetas = [np.array(rec.theta) for rec in result.trace]
    checked = 0
    for prev, cur in zip(thetas, thetas[1:]):
        H_prev = derivative_bundle(mdp, model_at(features, prev), beta).hessian
        H_cur = derivative_bundle(mdp, model_at(features, cur), beta).hessian
        grid = [prev + s * (cur - prev) for s in np.linspace(0.0, 1.0, 9)]
        B = max_score_norm(mdp, features, beta, grid, support_states, support_actions)
        lam_min = float(np.linalg.eigvalsh(H_prev).min())
        delta = cur - prev
        nrm = float(np.sqrt(delta @ H_prev @ delta))
        if B <= 0 or nrm > beta * np.sqrt(max(lam_min, 0.0)) / B:
            continue
        eigs = scipy.linalg.eigh(H_cur, H_prev, eigvals_only=True)
        assert eigs.min() >= np.exp(-1.0) - 1e-6
        assert eigs.max() <= np.exp(1.0) + 1e-6
        checked += 1
    assert checked >= 1


# ---------------------------------------------------------------------------
# value-only loss, fit status and the infeasibility certificate


def support_function(mdp, features, u):
    """``h_M(u)``: the largest ``<u, E[sum_t phi_t]>`` over all policies (a max-plus DP)."""
    return hard_backward(mdp, RewardTable(r=features.phi @ u)).J


def outside_target(rng, mdp, features, margin):
    """A target ``margin`` beyond the moment set along a random unit direction."""
    u = rng.normal(size=features.d)
    u /= np.linalg.norm(u)
    return u * (support_function(mdp, features, u) + margin)


def test_loss_is_bitwise_the_soft_value():
    rng = np.random.default_rng(21)
    mdp = random_mdp(rng, S=4, A=3, T=4)
    features = random_features(rng, mdp, 5)
    target = rng.normal(size=5)
    for scale in (1e-3, 1.0, 30.0):
        for _ in range(20):
            theta = scale * rng.normal(size=5)
            J = solve_model(mdp, model_at(features, theta), 0.6).J_star
            assert opt._loss(mdp, features.phi, np.zeros(5), 0.6, theta) == J
            assert opt._loss(mdp, features.phi, target, 0.6, theta) == J - float(theta @ target)


RATES_SPEC = InstanceSpec(S=5, A=3, T=4, d=6, beta=0.5, seed=5)  # the configs/rates.json instance


@pytest.mark.parametrize("n, data_seed", [(256, 2), (1024, 1), (4096, 3), (64, 4)])
def test_hessian_at_solution_is_the_bundle_at_theta_hat(n, data_seed):
    """The accepted point's bundle is built from the line search's soft pass,
    bit-identical to a fresh derivative bundle there."""
    inst = generate_instance(RATES_SPEC)
    data = sample_trajectories(inst.mdp, inst.expert, n, data_seed)
    result = fit_empirical(inst.mdp, inst.features, data, FitConfig(beta=0.5))
    assert result.converged and result.iterations > 0
    bundle = derivative_bundle(inst.mdp, model_at(inst.features, result.theta_hat), 0.5)
    assert np.array_equal(result.hessian_at_solution, bundle.hessian)
    assert result.gradient_norm == float(np.linalg.norm(
        bundle.grad - empirical_feature_expectation(data, inst.features)
    ))


def count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("n, data_seed", [(256, 2), (1024, 1), (4096, 3)])
def test_a_fit_solves_once_per_bundle_the_line_search_did_not_supply(monkeypatch, n, data_seed):
    """One soft solve for the starting bundle and one per full-step fallback
    (each of which asks for a derivative bundle): every accepted line-search
    point reuses its own pass.  The first fit takes no fallback."""
    inst = generate_instance(RATES_SPEC)
    data = sample_trajectories(inst.mdp, inst.expert, n, data_seed)
    calls = {"soft_backward": 0, "derivative_bundle": 0}
    count_calls(monkeypatch, soft_dp, "soft_backward", calls)
    count_calls(monkeypatch, linear_reward, "soft_backward", calls)
    count_calls(monkeypatch, opt, "derivative_bundle", calls)
    result = fit_empirical(inst.mdp, inst.features, data, FitConfig(beta=0.5))
    assert result.converged and result.iterations >= 6
    assert calls["soft_backward"] == calls["derivative_bundle"] < result.iterations
    if (n, data_seed) == (256, 2):
        assert calls["soft_backward"] == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
def test_loss_at_a_non_finite_reward_is_a_typed_error(bad):
    rng = np.random.default_rng(22)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    features = random_features(rng, mdp, 3)
    theta = np.array([0.5, bad, -0.25])
    with pytest.raises(SoftIrlError, match="not finite"):
        opt._loss(mdp, features.phi, np.zeros(3), 0.7, theta)


def test_stalled_status_at_the_roundoff_floor():
    """With a tolerance no float decrement reaches, the fit stops flat at the
    optimum and says so."""
    rng = np.random.default_rng(9)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    features = random_features(rng, mdp, 3)
    data = sample_trajectories(mdp, random_policy(rng, mdp), 256, seed=0)
    result = fit_empirical(mdp, features, data, FitConfig(beta=0.7, tol_decrement=1e-300))
    assert result.status == "stalled" and not result.converged
    assert result.iterations < 100
    assert result.gradient_norm <= 1e-12
    assert result.separating_direction is None and result.separation_margin is None


def test_certificate_stops_a_target_outside_the_moment_set():
    rng = np.random.default_rng(23)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    features = random_features(rng, mdp, 3)
    target = outside_target(rng, mdp, features, margin=0.5)
    result = opt._fit(mdp, features, target, FitConfig(beta=0.7))
    assert result.status == "infeasible" and not result.converged
    assert result.iterations < 100
    u = result.separating_direction
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
    assert result.separation_margin == pytest.approx(
        float(u @ target) - support_function(mdp, features, u), abs=1e-12
    )
    assert result.separation_margin > 0.0


def test_ball_constrained_fit_skips_the_certificate():
    """A ball keeps a minimizer even for a target outside the moment set: the
    fit converges on the sphere instead of stopping as infeasible."""
    rng = np.random.default_rng(23)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    features = random_features(rng, mdp, 3)
    target = outside_target(rng, mdp, features, margin=0.5)
    result = opt._fit(mdp, features, target, FitConfig(beta=0.7, B_theta=2.0))
    assert result.status == "converged" and result.active_ball_constraint
    assert result.separating_direction is None and result.separation_margin is None
    assert np.linalg.norm(result.theta_hat) == pytest.approx(2.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([0.1, 1.0, 10.0]),
)
def test_certificate_soundness_property(seed, S, A, T, d, offset):
    """The certificate never fires on a full-support policy's feature
    expectation (a point inside the moment set); when it fires on a shifted
    target, the loss falls at least ``margin`` per unit length along it."""
    rng = np.random.default_rng(seed)
    mdp = random_mdp(rng, S=S, A=A, T=T)
    features = random_features(rng, mdp, d)
    beta = 0.7
    inside = feature_expectation(mdp, random_policy(rng, mdp), features)
    assert opt._fit(mdp, features, inside, FitConfig(beta=beta)).status != "infeasible"

    target = inside + offset * rng.normal(size=d)
    result = opt._fit(mdp, features, target, FitConfig(beta=beta))
    if result.status != "infeasible":
        return
    theta, u, margin = result.theta_hat, result.separating_direction, result.separation_margin

    def loss(point):
        return solve_model(mdp, model_at(features, point), beta).J_star - float(point @ target)

    start = loss(theta)
    for s in (1.0, 10.0, 100.0):
        assert loss(theta + s * u) <= start - s * margin + 1e-9 * (1.0 + s)
