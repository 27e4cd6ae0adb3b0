"""Tests for linear reward models: derivatives, kernel, shaping, dimensions."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soft_irl import (
    Dataset,
    DimensionError,
    DomainError,
    FeatureMap,
    InputError,
    InstanceSpec,
    InvariantError,
    LinearRewardModel,
    Mdp,
    Policy,
    RateConfig,
    RewardTable,
    batch_scores,
    check_concentration,
    derivative_bundle,
    effective_dimension,
    feature_advantage,
    feature_expectation,
    forward_occupancy,
    gather_table,
    generate_instance,
    geometry_constants,
    kernel_basis,
    policy_evaluate,
    reward_of,
    run_rate_experiment,
    score,
    shaping_projector,
    solve_model,
    soft_backward,
    third_derivative,
    trajectory_kl,
    uniform_policy,
    variance_decomposition,
)
from soft_irl.instances import counterexample_instance
from soft_irl.linear_reward import (
    _batch_derivatives,
    _batch_soft_values,
    _identifiable_split,
    _score_bound,
)
from soft_irl.soft_dp import _gibbs_probs, _log_gibbs, _weighted_second_moment

from test_dp import near_top, sparse_policy
from test_mdp import (
    ENUMERATION_CAP,
    enumerate_support,
    max_cumulative_feature_norm,
    max_score_norm,
    random_mdp,
    random_policy,
)


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


def test_feature_map_and_model_reject_unreadable_arrays():
    """Features or a parameter that numpy cannot read as one float array (a
    mapping, a ragged list) are an ``InvariantError`` naming the field, not
    numpy's ``TypeError`` or ``ValueError``; so are strings and flags, which
    numpy would parse, a NaN entry, and a wrong rank or length, a
    ``DimensionError``."""
    rng = np.random.default_rng(3)
    mdp = random_mdp(rng)
    phi = rng.normal(size=(mdp.T, mdp.S, mdp.A, 2))
    ragged = phi.tolist()
    ragged[1][2][0] = [0.0]
    nan = phi.copy()
    nan[1, 2, 0, 1] = np.nan
    for bad, error, message in (
        ({"a": 1}, InvariantError, "cannot be read as one array"),
        (ragged, InvariantError, "cannot be read as one array"),
        (phi.astype(str).tolist(), InvariantError, "expected a nested array of numbers"),
        (phi > 0.0, InvariantError, "expected a nested array of numbers"),
        (nan, InvariantError, "entries must be finite"),
        (phi[0], DimensionError, r"expected shape \('T', 'S', 'A', 'd'\)"),
    ):
        with pytest.raises(error, match=f"phi: {message}"):
            FeatureMap(phi=bad)
    features = random_features(rng, mdp, 2)
    for bad, error, message in (
        ({"a": 1}, InvariantError, "cannot be read as one array"),
        ([[0.0], [0.0, 1.0]], InvariantError, "cannot be read as one array"),
        (["1.5", "2"], InvariantError, "expected a nested array of numbers"),
        ([True, False], InvariantError, "expected a nested array of numbers"),
        ([np.nan, 0.0], InvariantError, "entries must be finite"),
        ([0.0, 0.0, 0.0], DimensionError, r"expected shape \(2,\)"),
    ):
        with pytest.raises(error, match=f"theta: {message}"):
            LinearRewardModel(features=features, theta=bad)


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


def weighted_gemm_second_moment(mu, adv):
    """``sum mu adv adv^T`` as the ``mu``-weighted gemm of the flat table,
    symmetrized: the formula the square-root Gram replaced, kept as its oracle."""
    flat = adv.reshape(-1, adv.shape[-1])
    M = (flat * mu.reshape(-1, 1)).T @ flat
    return 0.5 * (M + M.T)


# Each formula rounds an entry by at most about (T*S*A + 2) * 2**-53 times
# sum mu |a_i a_j|, which is at most tr(M) by Cauchy-Schwarz: below 1e-14 tr(M)
# at the sizes drawn here.
HESSIAN_ORACLE_RTOL = 1e-12


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    S=st.integers(min_value=1, max_value=4),
    A=st.integers(min_value=1, max_value=3),
    T=st.integers(min_value=1, max_value=4),
    d=st.integers(min_value=1, max_value=4),
    deterministic=st.booleans(),
    beta=st.sampled_from([1e-3, 0.05, 0.7, 3.0]),
)
@example(seed=0, S=3, A=2, T=1, d=1, deterministic=True, beta=1e-3)
@example(seed=1, S=4, A=3, T=4, d=1, deterministic=True, beta=0.7)
@example(seed=2, S=2, A=3, T=3, d=3, deterministic=False, beta=1e-3)
@example(seed=9999, S=3, A=3, T=4, d=4, deterministic=True, beta=1e-3)  # subnormal Hessian
def test_hessian_matches_the_weighted_gemm_oracle_property(seed, S, A, T, d, deterministic, beta):
    """The bundle Hessian, a sum over steps of Grams of the root-occupancy-
    scaled advantages, equals the weighted-gemm formula within ``HESSIAN_ORACLE_RTOL``
    of the oracle's trace, is exactly symmetric, and is positive semidefinite
    up to ``HESSIAN_ORACLE_RTOL`` of its own trace.  Deterministic dynamics
    leave states unreached (zero occupancy), and ``beta = 1e-3`` drives Gibbs
    probabilities to exactly 0.  The same holds for the second moment under a
    policy with zero-probability entries and one-hot rows, as the return
    covariance takes it.  A Gram in the subnormal range is rounded to whole
    subnormal steps, one per summed row and entry at most, which no
    relative tolerance covers; ``slack`` adds that."""
    slack = T * S * A * d * np.finfo(np.float64).smallest_subnormal
    rng = np.random.default_rng(seed)
    mdp = random_mdp(rng, S=S, A=A, T=T, deterministic=deterministic)
    features = random_features(rng, mdp, d)
    pi = solve_model(mdp, model_at(features, rng.normal(size=d)), beta).pi_star
    H = _batch_derivatives(mdp, features.phi, beta, pi.probs[:, None])[1][0]
    oracle = weighted_gemm_second_moment(
        forward_occupancy(mdp, pi), feature_advantage(mdp, features, pi)
    ) / beta
    assert np.array_equal(H, H.T)
    assert np.linalg.eigvalsh(H).min() >= -HESSIAN_ORACLE_RTOL * np.trace(H) - slack / beta
    assert np.abs(H - oracle).max() <= HESSIAN_ORACLE_RTOL * np.trace(oracle) + slack / beta

    policy = sparse_policy(rng, mdp)
    mu = forward_occupancy(mdp, policy)
    adv = feature_advantage(mdp, features, policy)
    oracle = weighted_gemm_second_moment(mu, adv)
    M = _weighted_second_moment(mu, adv)  # consumes adv, so it goes last
    assert np.array_equal(M, M.T)
    assert np.abs(M - oracle).max() <= HESSIAN_ORACLE_RTOL * np.trace(oracle) + slack


def test_a_derivative_bundle_allocates_under_two_feature_tables():
    """The bundle builds its Hessian in the advantage table's own memory: at
    S20 A5 T10 d20 its traced peak stays below twice the feature table."""
    rng = np.random.default_rng(14)
    mdp = random_mdp(rng, S=20, A=5, T=10)
    features = random_features(rng, mdp, 20)
    probs = solve_model(mdp, model_at(features, 0.3 * rng.normal(size=20)), 0.5).pi_star.probs
    _batch_derivatives(mdp, features.phi, 0.5, probs[:, None])
    tracemalloc.start()
    try:
        _batch_derivatives(mdp, features.phi, 0.5, probs[:, None])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / features.phi.nbytes < 2.0


@pytest.mark.parametrize("seed", range(6))
def test_the_streamed_bundle_matches_the_whole_table_oracle(seed):
    """A batch of three policy tables (a Gibbs policy, a policy with
    zero-probability entries and a one-hot policy, on dynamics that may
    leave states unreached, so with zero-occupancy entries): each member's
    streamed Hessian equals ``_weighted_second_moment`` of its whole
    advantage table over ``beta`` within 1e-13 of the oracle's largest
    entry, is exactly symmetric, and its gradient is the feature
    expectation within 1e-13."""
    rng = np.random.default_rng(seed)
    mdp = random_mdp(rng, S=5, A=3, T=4, deterministic=seed % 2 == 0)
    features = random_features(rng, mdp, 4)
    beta = 0.7
    one_hot = np.eye(mdp.A)[rng.integers(mdp.A, size=(mdp.T, mdp.S))]
    policies = [
        solve_model(mdp, model_at(features, rng.normal(size=4)), beta).pi_star,
        sparse_policy(rng, mdp),
        Policy(probs=one_hot),
    ]
    probs = np.stack([pi.probs for pi in policies], axis=1)
    grads, hessians = _batch_derivatives(mdp, features.phi, beta, probs)
    for pi, grad, H in zip(policies, grads, hessians):
        mu = forward_occupancy(mdp, pi)
        oracle = _weighted_second_moment(mu, feature_advantage(mdp, features, pi)) / beta
        assert np.array_equal(H, H.T)
        assert np.abs(H - oracle).max() <= 1e-13 * np.abs(oracle).max()
        expectation = feature_expectation(mdp, pi, features)
        assert np.abs(grad - expectation).max() <= 1e-13 * np.abs(expectation).max()
    assert (forward_occupancy(mdp, policies[1]) == 0.0).any()


def test_a_bundle_and_the_score_bound_allocate_under_one_feature_table():
    """The bundle and the score bound read the feature advantages one step
    at a time: at S20 A5 T40 d30 the traced peak of a derivative bundle, and
    of the score bound at two parameters, stays below the size of one
    ``(T, S, A, d)`` table."""
    rng = np.random.default_rng(15)
    mdp = random_mdp(rng, S=20, A=5, T=40)
    features = random_features(rng, mdp, 30)
    model = model_at(features, 0.3 * rng.normal(size=30))
    thetas = 0.3 * rng.normal(size=(2, 30))
    probs = _gibbs_probs(mdp, 0.5, _batch_soft_values(mdp, features.phi, 0.5, thetas)[0])
    for run in (
        lambda: derivative_bundle(mdp, model, 0.5),
        lambda: _score_bound(mdp, features.phi, probs),
    ):
        run()
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < features.phi.nbytes


def test_a_bundle_at_a_huge_parameter_and_tiny_temperature_is_greedy():
    """At ``theta = 1e12 * 1`` and ``beta = 1e-8`` on the ``configs/rates.json``
    instance the Gibbs policy is greedy in ``Q``: the derivative bundle is
    finite and the policy a valid one that puts mass only on actions of
    maximal ``Q`` (to 4 ulps), with ``log pi <= 0``."""
    inst = generate_instance(InstanceSpec(S=5, A=3, T=4, d=6, beta=0.5, seed=5))
    model = model_at(inst.features, 1e12 * np.ones(6))
    bundle = derivative_bundle(inst.mdp, model, 1e-8)
    assert np.isfinite(bundle.J_star) and np.isfinite(bundle.grad).all()
    assert np.isfinite(bundle.hessian).all() and np.array_equal(bundle.hessian, bundle.hessian.T)
    solution = solve_model(inst.mdp, model, 1e-8)
    assert (solution.pi_star.probs[~near_top(solution.Q)] == 0.0).all()
    assert _log_gibbs(inst.mdp, 1e-8, solution.Q).max() <= 0.0


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


def gathered_scores(table, states, actions):
    """Oracle: hold the ``(N, T, ...)`` gather, then reduce its step axis with numpy."""
    return gather_table(table, states, actions).sum(axis=1)


def score_oracle_cases():
    """(mdp, features, beta, thetas): the rates instance, a deterministic one and d = 9."""
    rates = generate_instance(InstanceSpec(S=5, A=3, T=4, d=6, beta=0.5, seed=5))
    rng = np.random.default_rng(2605)
    thetas = [0.5 * rng.normal(size=6) for _ in range(3)] + [np.zeros(6)]
    yield "rates", rates.mdp, rates.features, 0.5, thetas
    for name, deterministic, d in (("deterministic", True, 4), ("d9", False, 9)):
        rng = np.random.default_rng(91 + d)
        mdp = random_mdp(rng, S=4, A=3, T=3, deterministic=deterministic)
        features = random_features(rng, mdp, d)
        yield name, mdp, features, 0.7, [3.0 * rng.normal(size=d) for _ in range(3)]


@pytest.mark.parametrize("case", list(score_oracle_cases()), ids=lambda case: case[0])
def test_path_sum_scores_are_bitwise_the_gathered_sum(case):
    _, mdp, features, beta, thetas = case
    states, actions, _ = enumerate_support(mdp, uniform_policy(mdp))
    for theta in thetas:
        pi = solve_model(mdp, model_at(features, theta), beta).pi_star
        adv = feature_advantage(mdp, features, pi)
        expected = gathered_scores(adv, states, actions)
        assert np.array_equal(batch_scores(adv, states, actions), expected)
    if features.d == 6:
        assert len(states) == (mdp.S * mdp.A) ** mdp.T == 50625  # every path of the rates instance


@pytest.mark.parametrize("T, trailing", [(3, ()), (9, ()), (9, (1,)), (9, (2,)), (12, (2, 3))])
def test_path_sum_scores_match_the_gathered_sum_for_any_trailing_shape(T, trailing):
    """From T = 8 on, numpy sums the gather's step axis pairwise where the
    trailing axes hold one value."""
    rng = np.random.default_rng(T + len(trailing))
    S, A, n = 3, 2, 500
    shape = (T, S, A) + trailing
    table = rng.normal(size=shape) * np.exp(4.0 * rng.normal(size=shape))
    states, actions = rng.integers(S, size=(n, T)), rng.integers(A, size=(n, T))
    Z = batch_scores(table, states, actions)
    assert Z.shape == (n,) + trailing
    assert np.array_equal(Z, gathered_scores(table, states, actions))


def test_one_row_dataset_scores_are_bitwise_the_gathered_sum():
    rng = np.random.default_rng(17)
    mdp = random_mdp(rng, S=3, A=2, T=4)
    features = random_features(rng, mdp, 5)
    model = model_at(features, rng.normal(size=5))
    data = Dataset(states=[[2, 0, 1, 1]], actions=[[1, 1, 0, 1]], seed=0)
    adv = feature_advantage(mdp, features, solve_model(mdp, model, 0.8).pi_star)
    expected = gathered_scores(adv, data.states, data.actions)
    assert expected.shape == (1, 5)
    assert np.array_equal(score(mdp, model, 0.8, data), expected)
    assert np.array_equal(batch_scores(adv, data.states, data.actions), expected)


def test_path_readers_reject_indices_off_the_table():
    """A path index outside ``[0, S)`` or ``[0, A)`` is an ``InvariantError``
    wherever paths are read through a table, instead of a read of another
    step's cell (index S at step t is row 0 of step t + 1) or a wrap-around
    (index -1).  So is a ragged index list, which is not one array, and so
    are paths of another horizon in ``delta_terms``.  A table that is not
    one array of numbers is an ``InvariantError`` naming ``table``; a list
    table or list indices are read as arrays."""
    from soft_irl import delta_terms

    table = np.arange(24.0).reshape(3, 4, 2, 1)
    zeros = np.zeros((1, 3), dtype=np.int64)
    ragged, square = [[0, 1, 0], [0]], [[0, 0, 0], [0, 0, 0]]
    for states, actions, field in ((ragged, square, "path states"), (square, ragged, "path actions")):
        for read in (batch_scores, gather_table):
            with pytest.raises(InvariantError, match=f"{field}: cannot be read as one array"):
                read(table, states, actions)
    with pytest.raises(InvariantError, match=r"state index out of range \(S=4\)"):
        batch_scores(table, np.array([[4, 0, 0]]), zeros)
    for states, actions in (([[-1, 0, 0]], zeros), (zeros, [[0, 2, 0]]), (zeros, [[0, 0, -1]])):
        with pytest.raises(InvariantError, match="index out of range"):
            batch_scores(table, np.array(states), np.array(actions))
        with pytest.raises(InvariantError, match="index out of range"):
            gather_table(table, np.array(states), np.array(actions))
    assert batch_scores(table, zeros, zeros).tolist() == [[0.0 + 8.0 + 16.0]]
    for read in (batch_scores, gather_table):
        assert np.array_equal(read(table.tolist(), zeros, zeros), read(table, zeros, zeros))
        for bad, message in (({"a": 1}, "table: cannot be read as one array"),
                             (table.astype(str), "table: expected a nested array of numbers")):
            with pytest.raises(InvariantError, match=message):
                read(bad, zeros, zeros)

    rng = np.random.default_rng(19)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    V = rng.normal(size=(mdp.T + 1, mdp.S))
    states, actions = rng.integers(3, size=(4, 3)), rng.integers(2, size=(4, 3))
    assert states.min() == actions.min() == 0  # so that index - 1 holds a -1
    expected = delta_terms(mdp, V, states, actions)
    assert np.array_equal(delta_terms(mdp, V, states.tolist(), actions.tolist()), expected)
    for bad_states, bad_actions, message in (
        (states + 3, actions, r"state index out of range \(S=3\)"),
        (states, actions + 2, r"action index out of range \(A=2\)"),
        (states - 1, actions - 1, "state index out of range"),
        (states, actions - 1, "action index out of range"),
    ):
        with pytest.raises(InvariantError, match=message):
            delta_terms(mdp, V, bad_states, bad_actions)
    with pytest.raises(DimensionError, match="horizon 3"):
        delta_terms(mdp, V, states[:, :2], actions[:, :2])


@pytest.mark.parametrize("dtype", [np.float64, np.bool_])
def test_path_readers_reject_non_integer_indices(dtype):
    """Float or bool path indices are an ``InvariantError``, as they are in a
    ``Dataset``, not numpy's untyped ``IndexError``."""
    from soft_irl import delta_terms

    table = np.arange(24.0).reshape(3, 4, 2, 1)
    zeros = np.zeros((1, 3), dtype=np.int64)
    mdp = random_mdp(np.random.default_rng(19), S=4, A=2, T=3)
    V = np.zeros((mdp.T + 1, mdp.S))
    for states, actions in ((zeros.astype(dtype), zeros), (zeros, zeros.astype(dtype))):
        with pytest.raises(InvariantError, match="indices must be integers"):
            batch_scores(table, states, actions)
        with pytest.raises(InvariantError, match="indices must be integers"):
            gather_table(table, states, actions)
        with pytest.raises(InvariantError, match="indices must be integers"):
            delta_terms(mdp, V, states, actions)


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
    rng = np.random.default_rng(46)
    mdp = random_mdp(rng, S=50, A=10, T=20)
    assert (mdp.S * mdp.A) ** mdp.T > ENUMERATION_CAP
    features = random_features(rng, mdp, 50)
    theta = 0.1 * rng.normal(size=50)
    beta = 0.8
    xi, zeta, omega = (rng.normal(size=50) for _ in range(3))
    model = model_at(features, theta)
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
    basis = kernel_basis(mdp, features)
    assert basis.shape[1] >= 1
    e0 = np.eye(3)[0]
    proj = basis @ (basis.T @ e0)
    np.testing.assert_allclose(proj, e0, atol=1e-8)


def test_kernel_empty_for_generic_features():
    rng = np.random.default_rng(20)
    mdp = random_mdp(rng, S=4, A=3, T=3)
    features = random_features(rng, mdp, 3)
    assert kernel_basis(mdp, features).shape[1] == 0


def test_shaping_direction_lies_in_kernel():
    rng = np.random.default_rng(21)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    phi = rng.normal(size=(mdp.T, mdp.S, mdp.A, 4))
    phi[:, :, :, 3] = shaping_feature(rng, mdp)
    features = FeatureMap(phi=phi)

    theta = rng.normal(size=4)
    H = derivative_bundle(mdp, model_at(features, theta), 0.8).hessian
    basis = _identifiable_split(mdp, phi, H, 0.8)[0]
    assert basis.shape[1] >= 1
    # the pure-shaping parameter direction is reproduced by the kernel projector
    e3 = np.eye(4)[3]
    np.testing.assert_allclose(basis @ (basis.T @ e3), e3, atol=1e-6)


@pytest.mark.parametrize("seed", range(5))
def test_a_kernel_that_is_the_whole_space_is_seen(seed):
    """With one feature, a pure shaping reward, ``H(0)`` is rounding alone
    (7e-35 to 2e-32 on these instances), its own largest eigenvalue, which no
    cut relative to it can tell from curvature: the rounding floor puts the
    line in the kernel.  The same instance's generic column scaled by 1e-6
    stays in the image, alone and beside the shaping column."""
    rng = np.random.default_rng(seed)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    shaping = shaping_feature(rng, mdp)[..., None]
    basis = kernel_basis(mdp, FeatureMap(phi=shaping))
    assert basis.shape == (1, 1) and abs(basis[0, 0]) == pytest.approx(1.0)
    small = 1e-6 * rng.normal(size=shaping.shape)
    assert kernel_basis(mdp, FeatureMap(phi=small)).shape == (1, 0)
    basis = kernel_basis(mdp, FeatureMap(phi=np.concatenate([small, shaping], axis=-1)))
    assert basis.shape == (2, 1)
    np.testing.assert_allclose(np.abs(basis[:, 0]), [0.0, 1.0], atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    S=st.integers(2, 5),
    A=st.integers(2, 3),
    T=st.integers(1, 4),
    d=st.integers(2, 6),
    deterministic=st.booleans(),
    shaping=st.booleans(),
)
def test_kernel_basis_is_the_null_space_of_the_reachable_advantage_table(
    seed, S, A, T, d, deterministic, shaping
):
    """A direction leaves the trajectory law unchanged exactly when the
    per-step advantages of its reward vanish wherever the uniform policy
    goes.  So ``kernel_basis`` spans the null space of the advantage table at
    ``theta = 0`` on those entries, here from an SVD.  Entries no policy
    reaches hold a 1e9 sentinel, which must not set a feature's unit."""
    rng = np.random.default_rng(seed)
    mdp = random_mdp(rng, S=S, A=A, T=T, deterministic=deterministic)
    phi = rng.normal(size=(T, S, A, d))
    if shaping:
        phi[..., -1] = shaping_feature(rng, mdp)
    uniform = uniform_policy(mdp)
    reached = forward_occupancy(mdp, uniform) > 0.0
    phi[~reached] = 1e9
    _, singular, Vt = np.linalg.svd(feature_advantage(mdp, phi, uniform)[reached])
    null = Vt[int((singular > 1e-8 * singular[0]).sum()) :].T
    basis = kernel_basis(mdp, FeatureMap(phi=phi))
    assert basis.shape == null.shape
    np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
    np.testing.assert_allclose(basis @ basis.T, null @ null.T, atol=1e-8)


def test_kernel_is_theta_independent():
    rng = np.random.default_rng(22)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    phi = rng.normal(size=(mdp.T, mdp.S, mdp.A, 4))
    phi[:, :, :, 0] = 1.0
    phi[:, :, :, 3] = shaping_feature(rng, mdp)
    features = FeatureMap(phi=phi)

    thetas = rng.normal(size=(2, 4))
    hessians = (derivative_bundle(mdp, model_at(features, theta), 0.8).hessian for theta in thetas)
    b1, b2 = (_identifiable_split(mdp, phi, H, 0.8)[0] for H in hessians)
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
    basis = _identifiable_split(mdp, phi, H, beta)[0]
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

    basis = kernel_basis(mdp, features)
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
    rng = np.random.default_rng(33)
    mdp = random_mdp(rng, S=5, A=3, T=6)
    assert (mdp.S * mdp.A) ** mdp.T > ENUMERATION_CAP
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


def test_effective_dimension_rejects_a_singular_H_star():
    """``d_star`` solves with ``H_star``; a singular one is a ``DomainError``
    naming it, not numpy's untyped ``LinAlgError``."""
    rng = np.random.default_rng(30)
    mdp = random_mdp(rng, S=4, A=3, T=3)
    features = random_features(rng, mdp, 3)
    with pytest.raises(DomainError, match="H_star"):
        effective_dimension(mdp, features, uniform_policy(mdp), np.zeros((3, 3)))


def test_geometry_constants_constant_features():
    rng = np.random.default_rng(31)
    mdp = random_mdp(rng)
    phi = np.broadcast_to([2.0, 1.0], (mdp.T, mdp.S, mdp.A, 2)).copy()
    features = FeatureMap(phi=phi)
    gc = geometry_constants(mdp, features, model_at(features, np.zeros(2)), 1.0)
    assert gc.B_A_phi == pytest.approx(0.0, abs=1e-12)


def test_geometry_constants_need_the_model_on_the_features():
    """``geometry_constants`` reads every constant off one feature map: a
    model on other features of the same shape is an ``InputError`` naming
    ``model.features`` (its ``lambda_star`` and ``d_star`` were those of
    its own features, its ``B_phi`` those of ``features``), while a model
    on an equal copy of the features gives the instance's own constants."""
    inst = generate_instance(InstanceSpec())
    mdp, features, theta, beta = inst.mdp, inst.features, inst.theta_expert, inst.spec.beta
    other = FeatureMap(phi=np.random.default_rng(5).normal(size=features.phi.shape))
    with pytest.raises(InputError, match="model.features"):
        geometry_constants(mdp, features, model_at(other, theta), beta)
    copy = FeatureMap(phi=features.phi.copy())
    own = geometry_constants(mdp, features, model_at(features, theta), beta)
    assert geometry_constants(mdp, features, model_at(copy, theta), beta) == own


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

    gc = geometry_constants(mdp, features, model, 0.9)
    assert gc.B_A_phi <= 2 * mdp.T * gc.B_phi + 1e-12
    assert gc.B_phi <= triangle_bound(features) + 1e-12

    # brute-force the suffix-sum feature norm over every enumerated trajectory:
    # B_phi, the path max of the per-step norms, bounds it from above
    from soft_irl import uniform_policy

    states, actions, _ = enumerate_support(mdp, uniform_policy(mdp))
    best = 0.0
    for i in range(states.shape[0]):
        for t0 in range(mdp.T):
            acc = np.zeros(features.d)
            for t in range(t0, mdp.T):
                acc += features.phi[t, states[i, t], actions[i, t]]
            best = max(best, float(np.linalg.norm(acc)))
    assert best <= gc.B_phi + 1e-12
    assert gc.B_A_phi >= max_score_norm(mdp, features, 0.9, [model.theta], states, actions) - 1e-12


def above_the_cap_instance():
    """An S4 A4 T12 MDP with uniform dynamics, (S*A)**T above the cap, and d = 3 features."""
    rng = np.random.default_rng(33)
    mdp = Mdp(T=12, S=4, A=4, initial_dist=np.full(4, 0.25),
              kernels=np.full((11, 4, 4, 4), 0.25), ref_measure=np.ones(4))
    assert (mdp.S * mdp.A) ** mdp.T > ENUMERATION_CAP
    return rng, mdp, random_features(rng, mdp, 3)


def test_geometry_constants_conservative_above_the_cap():
    """Above the old enumeration cap the sup constants are the same path-max
    upper ends as below it.  Uniform dynamics reach every state, so ``B_phi``
    is the triangle bound, and ``B_A_phi`` is at most ``2 T B_phi``."""
    rng, mdp, features = above_the_cap_instance()
    gc = geometry_constants(mdp, features, model_at(features, rng.normal(size=3) * 0.4), 0.9)
    assert 0.0 < gc.B_A_phi <= 2 * mdp.T * gc.B_phi
    assert gc.B_phi == pytest.approx(triangle_bound(features), rel=1e-12)


def test_rates_and_concentration_run_above_the_cap():
    """Above the old enumeration cap ``check_concentration`` and
    ``run_rate_experiment`` take their constants from
    :func:`geometry_constants`, as below it."""
    rng, mdp, features = above_the_cap_instance()
    expert = solve_model(mdp, model_at(features, rng.normal(size=3) * 0.4), 0.9).pi_star
    report = check_concentration(mdp, features, 0.9, expert, n=64, trials=8, seed=1)
    assert report.B_phi == pytest.approx(triangle_bound(features), rel=1e-12)
    assert report.lambda_star > 0.0 and np.isfinite(report.d_star)
    assert np.isfinite(report.bound) and len(report.etas) == 8

    spec = InstanceSpec(S=4, A=4, T=12, d=3, beta=0.9, seed=2)
    rates = run_rate_experiment(RateConfig(instance=spec, n_grid=(64, 128), replicates=2))
    B_phi = triangle_bound(generate_instance(spec).features)
    assert rates.B_phi == pytest.approx(B_phi, rel=1e-12)
    assert 0.0 < rates.B_A_phi <= 2 * spec.T * rates.B_phi
    assert rates.rho_star == 0.9 * np.sqrt(rates.lambda_star) / rates.B_A_phi
    assert sum(rates.fit_statuses.values()) == 4
    assert all(np.isfinite(value) for grid in rates.values.values() for row in grid for value in row)
