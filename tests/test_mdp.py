"""Tests for MDP containers, occupancy propagation, sampling, and enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soft_irl import (
    CapacityError,
    Dataset,
    DimensionError,
    EmptyDatasetError,
    InputError,
    InvariantError,
    Mdp,
    Policy,
    batch_trajectory_probs,
    empirical_feature_expectation,
    enumerate_support,
    feature_expectation,
    forward_occupancy,
    sample_trajectories,
    trajectory_log_prob,
    uniform_policy,
)
from soft_irl.experiments import InstanceSpec, generate_instance
from soft_irl.io import dataset_to_dict, to_json_text
from soft_irl.mdp import _child_uniforms
from soft_irl.soft_dp import RewardTable, soft_backward


def random_mdp(rng, S=3, A=2, T=3, deterministic=False):
    init = rng.dirichlet(np.ones(S))
    if deterministic:
        init = np.eye(S)[rng.integers(S)]
        kernels = np.zeros((T - 1, S, A, S))
        for t in range(T - 1):
            for a in range(A):
                kernels[t, :, a, :] = np.eye(S)[rng.permutation(S)]
    else:
        kernels = rng.dirichlet(np.ones(S), size=(T - 1, S, A))
    return Mdp(T=T, S=S, A=A, initial_dist=init, kernels=kernels, ref_measure=np.ones(A))


def random_policy(rng, mdp):
    return Policy(probs=rng.dirichlet(np.ones(mdp.A), size=(mdp.T, mdp.S)), label="random")


def brute_occupancy(mdp, policy):
    """Occupancy via plain-python enumeration of every index sequence."""
    mu = np.zeros((mdp.T, mdp.S, mdp.A))
    seqs = itertools.product(*(range(mdp.S) for _ in range(mdp.T)))
    for states in seqs:
        for actions in itertools.product(*(range(mdp.A) for _ in range(mdp.T))):
            p = mdp.initial_dist[states[0]]
            for t in range(mdp.T):
                p *= policy.probs[t][states[t], actions[t]]
                if t < mdp.T - 1:
                    p *= mdp.kernels[t][states[t], actions[t], states[t + 1]]
            for t in range(mdp.T):
                mu[t, states[t], actions[t]] += p
    return mu


# ---------------------------------------------------------------------------
# construction / validation


def test_mdp_rejects_bad_initial_dist():
    with pytest.raises(InvariantError, match="initial_dist"):
        Mdp(T=2, S=2, A=2, initial_dist=[0.7, 0.7],
            kernels=np.full((1, 2, 2, 2), 0.5), ref_measure=[1.0, 1.0])


def test_mdp_rejects_negative_kernel_row():
    kernels = np.full((1, 2, 2, 2), 0.5)
    kernels[0, 0, 0] = [1.5, -0.5]
    with pytest.raises(InvariantError, match="negative"):
        Mdp(T=2, S=2, A=2, initial_dist=[1.0, 0.0], kernels=kernels, ref_measure=[1.0, 1.0])


def test_mdp_rejects_nonpositive_ref_measure():
    with pytest.raises(InvariantError, match="ref_measure"):
        Mdp(T=2, S=2, A=2, initial_dist=[1.0, 0.0],
            kernels=np.full((1, 2, 2, 2), 0.5), ref_measure=[1.0, 0.0])


def test_mdp_rejects_wrong_kernel_shape():
    with pytest.raises(DimensionError):
        Mdp(T=3, S=2, A=2, initial_dist=[1.0, 0.0],
            kernels=np.full((1, 2, 2, 2), 0.5), ref_measure=[1.0, 1.0])


def test_distribution_check_bound_and_message():
    """Rows pass within 1e-12 of summing to 1 and fail beyond it, a NaN row
    fails, the message names the worst error, and an empty table passes."""
    from soft_irl.mdp import _check_distribution

    _check_distribution(np.array([[0.5, 0.5 + 0.9e-12], [0.25, 0.75]]), "rows")
    with pytest.raises(InvariantError, match=r"rows: rows must sum to 1 within 1e-12 \(worst error 2\.000e-12\)"):
        _check_distribution(np.array([[0.5, 0.5 + 2e-12], [0.25, 0.75]]), "rows")
    with pytest.raises(InvariantError, match="worst error nan"):
        _check_distribution(np.array([[0.5, np.nan]]), "rows")
    with pytest.raises(InvariantError, match="negative probability"):
        _check_distribution(np.array([[1.5, -0.5]]), "rows")
    _check_distribution(np.empty((0, 2, 3)), "rows")


def test_policy_rows_must_be_stochastic():
    with pytest.raises(InvariantError):
        Policy(probs=np.full((2, 2, 2), 0.3))


def test_records_with_array_fields_compare_by_identity():
    """``==`` on two equal copies of each record type with an ndarray field
    returns a bool instead of raising numpy's ambiguous-truth error."""
    from soft_irl import (
        FitConfig,
        LinearRewardModel,
        derivative_bundle,
        effective_dimension,
        fit_population,
        hard_backward,
        policy_evaluate,
        return_decomposition,
    )

    inst = generate_instance(InstanceSpec(S=3, A=2, T=3, d=3, beta=0.7, seed=1))
    mdp, features, expert = inst.mdp, inst.features, inst.expert
    model = LinearRewardModel(features=features, theta=np.zeros(features.d))
    reward = RewardTable(r=np.ones((mdp.T, mdp.S, mdp.A)))
    bundle = derivative_bundle(mdp, model, 0.7)
    tau = Dataset(states=[[0, 1, 2]], actions=[[0, 1, 0]], seed=0)
    builders = {
        "Mdp": lambda: Mdp(T=mdp.T, S=mdp.S, A=mdp.A, initial_dist=mdp.initial_dist.copy(),
                           kernels=mdp.kernels.copy(), ref_measure=mdp.ref_measure.copy()),
        "Policy": lambda: Policy(probs=expert.probs.copy()),
        "RewardTable": lambda: RewardTable(r=reward.r.copy()),
        "SoftSolution": lambda: soft_backward(mdp, reward, 0.7),
        "HardSolution": lambda: hard_backward(mdp, reward),
        "PolicyEvaluation": lambda: policy_evaluate(mdp, reward, expert, 0.7),
        "ReturnDecomposition": lambda: return_decomposition(mdp, reward, expert, 0.7, tau),
        "FeatureMap": lambda: type(features)(phi=features.phi.copy()),
        "LinearRewardModel": lambda: model.with_theta(model.theta.copy()),
        "DerivativeBundle": lambda: derivative_bundle(mdp, model, 0.7),
        "EffectiveDimension": lambda: effective_dimension(mdp, features, expert, bundle.hessian),
        "IrlFitResult": lambda: fit_population(mdp, features, expert, FitConfig(beta=0.7)),
        "Instance": lambda: generate_instance(inst.spec),
        "Dataset": lambda: sample_trajectories(mdp, expert, 4, 0),
    }
    for name, build in builders.items():
        a, b = build(), build()
        assert type(a).__name__ == name
        assert (a == b) is False, name
        assert (a == a) is True, name
        assert (a != b) is True, name


def test_trajectory_validation():
    """A single trajectory is a one-row ``Dataset`` and gets its checks."""
    with pytest.raises(DimensionError):
        Dataset(states=[[0, 1]], actions=[[0]], seed=0)
    with pytest.raises(InvariantError):
        Dataset(states=[[]], actions=[[]], seed=0)
    with pytest.raises(InvariantError):
        Dataset(states=[[0, -1]], actions=[[0, 0]], seed=0)


def test_dataset_validation():
    with pytest.raises(DimensionError):
        Dataset(states=[[0, 1]], actions=[[0]], seed=0)
    with pytest.raises(InvariantError):
        Dataset(states=np.empty((1, 0), dtype=np.int64), actions=np.empty((1, 0), dtype=np.int64), seed=0)
    with pytest.raises(InvariantError):
        Dataset(states=[[0, -1]], actions=[[0, 0]], seed=0)
    with pytest.raises(InvariantError):
        Dataset(states=[[0, 1]], actions=[[0.0, 1.0]], seed=0)
    with pytest.raises(InvariantError):
        Dataset(states=[[0, 1]], actions=[[0, 2**63]], seed=0)
    with pytest.raises(DimensionError):
        Dataset(states=[0, 1], actions=[0, 1], seed=0)


def test_dataset_must_be_nonempty_and_homogeneous():
    empty = np.empty((0, 2), dtype=np.int64)
    with pytest.raises(EmptyDatasetError):
        Dataset(states=empty, actions=empty, seed=0)
    ragged = [[0], [0, 0]]
    with pytest.raises(InvariantError):
        Dataset(states=ragged, actions=ragged, seed=0)


def test_dataset_holds_read_only_copies():
    states = np.array([[0, 1], [2, 0]])
    data = Dataset(states=states, actions=np.zeros((2, 2), dtype=np.int32), seed=3)
    assert data.states.dtype == data.actions.dtype == np.int64
    assert (len(data), data.T) == (2, 2)
    with pytest.raises(ValueError):
        data.states[0, 0] = 1
    states[0, 0] = 1  # the caller's array stays writable and is not aliased
    assert data.states[0, 0] == 0


def test_arrays_are_frozen():
    mdp = random_mdp(np.random.default_rng(0))
    with pytest.raises(ValueError):
        mdp.initial_dist[0] = 0.5


# ---------------------------------------------------------------------------
# forward_occupancy


def test_occupancy_degenerate_chain_is_point_mass():
    rng = np.random.default_rng(1)
    mdp = random_mdp(rng, S=3, A=2, T=4, deterministic=True)
    probs = np.zeros((4, 3, 2))
    probs[:, :, 1] = 1.0  # always the second action
    mu = forward_occupancy(mdp, Policy(probs=probs))
    for t in range(mdp.T):
        assert np.count_nonzero(mu[t]) == 1
        assert mu[t].max() == 1.0


def test_occupancy_uniform_symmetry():
    mdp = Mdp(T=2, S=2, A=2, initial_dist=[0.5, 0.5],
              kernels=np.full((1, 2, 2, 2), 0.5), ref_measure=[1.0, 1.0])
    mu = forward_occupancy(mdp, uniform_policy(mdp))
    np.testing.assert_allclose(mu, 0.25)


def test_occupancy_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(5):
        mdp = random_mdp(rng, S=3, A=2, T=3)
        policy = random_policy(rng, mdp)
        mu = forward_occupancy(mdp, policy)
        np.testing.assert_allclose(mu, brute_occupancy(mdp, policy), atol=1e-13)


def test_occupancy_monte_carlo_oracle():
    """Empirical (t, s, a) frequencies of 10^6 rollouts sit within 3 SEs."""
    rng = np.random.default_rng(3)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    policy = random_policy(rng, mdp)
    mu = forward_occupancy(mdp, policy)

    n = 1_000_000
    data = sample_trajectories(mdp, policy, n, seed=12345)
    states, actions = data.states, data.actions
    counts = np.zeros((mdp.T, mdp.S, mdp.A))
    for t in range(mdp.T):
        np.add.at(counts[t], (states[:, t], actions[:, t]), 1.0)
    freq = counts / n

    se = np.sqrt(mu * (1.0 - mu) / n)
    assert np.all(np.abs(freq - mu) <= 3.0 * se + 1e-12)


def test_occupancy_rows_sum_to_one_random():
    rng = np.random.default_rng(11)
    mdp = random_mdp(rng, S=4, A=3, T=5)
    mu = forward_occupancy(mdp, random_policy(rng, mdp))
    np.testing.assert_allclose(mu.sum(axis=(1, 2)), 1.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=4), st.booleans())
def test_occupancy_is_a_distribution_at_every_step_property(seed, S, A, T, deterministic):
    """``forward_occupancy`` is non-negative and each step sums to 1 within
    1e-10, on random MDPs and on deterministic ones under a deterministic
    policy; ``T = 1`` has no kernels.  The result is a plain array, checked
    here rather than on every call."""
    rng = np.random.default_rng(seed)
    mdp = random_mdp(rng, S=S, A=A, T=T, deterministic=deterministic)
    if deterministic:
        policy = Policy(probs=np.eye(A)[rng.integers(A, size=(T, S))])
    else:
        policy = random_policy(rng, mdp)
    mu = forward_occupancy(mdp, policy)
    assert mu.shape == (T, S, A)
    assert np.all(mu >= 0.0)
    assert np.all(np.abs(mu.sum(axis=(1, 2)) - 1.0) <= 1e-10)


def test_occupancy_shape_mismatch():
    rng = np.random.default_rng(2)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    with pytest.raises(DimensionError):
        forward_occupancy(mdp, Policy(probs=np.full((3, 3, 3), 1 / 3)))


# ---------------------------------------------------------------------------
# sampling


def test_sampling_deterministic_instance_all_identical():
    rng = np.random.default_rng(5)
    mdp = random_mdp(rng, S=3, A=2, T=3, deterministic=True)
    probs = np.zeros((3, 3, 2))
    probs[:, :, 0] = 1.0
    data = sample_trajectories(mdp, Policy(probs=probs), 32, seed=0)
    rows = np.concatenate([data.states, data.actions], axis=1)
    assert np.all(rows == rows[0])


def test_sampling_same_seed_identical_serialization():
    rng = np.random.default_rng(6)
    mdp = random_mdp(rng)
    policy = random_policy(rng, mdp)
    a = sample_trajectories(mdp, policy, 100, seed=42)
    b = sample_trajectories(mdp, policy, 100, seed=42)
    assert to_json_text(dataset_to_dict(a)) == to_json_text(dataset_to_dict(b))
    c = sample_trajectories(mdp, policy, 100, seed=43)
    assert to_json_text(dataset_to_dict(a)) != to_json_text(dataset_to_dict(c))


def test_sampling_prefix_stability():
    """The first k trajectories do not depend on n (per-trajectory streams)."""
    rng = np.random.default_rng(8)
    mdp = random_mdp(rng)
    policy = random_policy(rng, mdp)
    small = sample_trajectories(mdp, policy, 10, seed=9)
    large = sample_trajectories(mdp, policy, 50, seed=9)
    np.testing.assert_array_equal(small.states, large.states[:10])
    np.testing.assert_array_equal(small.actions, large.actions[:10])


def test_sampling_rejects_empty():
    rng = np.random.default_rng(4)
    mdp = random_mdp(rng)
    with pytest.raises(EmptyDatasetError):
        sample_trajectories(mdp, uniform_policy(mdp), 0, seed=0)


def test_sampling_rejects_bad_seeds_and_sizes():
    rng = np.random.default_rng(4)
    mdp = random_mdp(rng)
    policy = uniform_policy(mdp)
    for seed in (-1, -(2**64), 1.5, "3", None, True):
        with pytest.raises(InputError):
            sample_trajectories(mdp, policy, 4, seed=seed)
    for n in (2**32, 2**62, 2.0):
        with pytest.raises(InputError):
            sample_trajectories(mdp, policy, n, seed=0)
    assert len(sample_trajectories(mdp, policy, np.int64(3), seed=np.uint64(2**64 - 1))) == 3


def _seed_sequence_uniforms(seed, n, draws):
    """Reference stream: one numpy child generator per trajectory."""
    out = np.empty((n, draws))
    for i in range(n):
        ss = np.random.SeedSequence(seed, spawn_key=(i,))
        out[i] = np.random.Generator(np.random.PCG64(ss)).random(draws)
    return out


STREAM_SEEDS = (0, 1, 7, 2**32 + 5, 14449357594836781232, 2**64 - 1, 2**100 + 3, 2**200 + 11)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_child_uniforms_match_seed_sequence_generators(seed):
    for n, draws in [(1, 1), (5, 3), (1000, 8), (300, 40), (70, 2), (3, 101)]:
        np.testing.assert_array_equal(
            _child_uniforms(seed, n, draws), _seed_sequence_uniforms(seed, n, draws)
        )


# (seed, n, row, states, actions) sampled from the expert of the rates instance
# by the per-trajectory SeedSequence implementation; any change to the stream
# must show up here.
PINNED_ROWS = [
    (1, 1024, 0, [1, 2, 1, 0], [0, 0, 1, 1]),
    (1, 1024, 1, [1, 1, 2, 4], [0, 0, 0, 2]),
    (1, 1024, 2, [1, 2, 2, 1], [0, 0, 0, 2]),
    (1, 1024, 1023, [1, 1, 2, 1], [0, 0, 0, 2]),
    (0, 300, 0, [4, 3, 4, 0], [0, 0, 1, 1]),
    (0, 300, 299, [4, 0, 2, 0], [0, 2, 0, 2]),
    (2**64 - 1, 300, 150, [4, 1, 1, 4], [0, 0, 1, 2]),
    (2**64 - 1, 300, 299, [3, 2, 3, 1], [2, 0, 1, 2]),
    (2**200 + 11, 300, 0, [1, 2, 3, 1], [0, 0, 0, 2]),
    (2**200 + 11, 300, 299, [1, 1, 2, 4], [0, 0, 2, 2]),
]


def test_sampling_reproduces_pinned_rows():
    instance = generate_instance(InstanceSpec(S=5, A=3, T=4, d=6, beta=0.5, seed=5))
    for seed, n, row, states, actions in PINNED_ROWS:
        data = sample_trajectories(instance.mdp, instance.expert, n, seed)
        assert data.states[row].tolist() == states, (seed, row)
        assert data.actions[row].tolist() == actions, (seed, row)


def test_sampling_frequencies_match_occupancy():
    rng = np.random.default_rng(10)
    mdp = random_mdp(rng, S=3, A=3, T=2)
    policy = random_policy(rng, mdp)
    mu = forward_occupancy(mdp, policy)
    n = 100_000
    data = sample_trajectories(mdp, policy, n, seed=77)
    states, actions = data.states, data.actions
    for t in range(mdp.T):
        counts = np.zeros((mdp.S, mdp.A))
        np.add.at(counts, (states[:, t], actions[:, t]), 1.0)
        se = np.sqrt(mu[t] * (1.0 - mu[t]) / n)
        assert np.all(np.abs(counts / n - mu[t]) <= 4.0 * se + 1e-12)


# ---------------------------------------------------------------------------
# enumeration and trajectory probabilities


def enumerate_trajectories(mdp, policy):
    """The support of ``policy`` as a ``Dataset`` and the probability of each row."""
    states, actions, probs = enumerate_support(mdp, policy)
    return Dataset(states=states, actions=actions, seed=0), probs


def test_enumerate_uniform_single_state():
    mdp = Mdp(T=2, S=1, A=2, initial_dist=[1.0],
              kernels=np.ones((1, 1, 2, 1)), ref_measure=[1.0, 1.0])
    support, probs = enumerate_trajectories(mdp, uniform_policy(mdp))
    assert len(support) == len(probs) == 4
    for p in probs:
        assert p == pytest.approx(0.25, abs=1e-15)


def test_enumerate_deterministic_single_trajectory():
    rng = np.random.default_rng(12)
    mdp = random_mdp(rng, S=3, A=2, T=4, deterministic=True)
    probs = np.zeros((4, 3, 2))
    probs[:, :, 1] = 1.0
    support, probs = enumerate_trajectories(mdp, Policy(probs=probs))
    assert len(support) == len(probs) == 1
    assert probs[0] == pytest.approx(1.0, abs=1e-15)


def test_enumeration_cross_checks_log_prob():
    rng = np.random.default_rng(13)
    mdp = random_mdp(rng, S=2, A=2, T=3)
    policy = random_policy(rng, mdp)
    support, probs = enumerate_trajectories(mdp, policy)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    log_probs = trajectory_log_prob(mdp, policy, support)  # the whole support in one call
    assert log_probs.shape == probs.shape
    np.testing.assert_allclose(np.exp(log_probs), probs, rtol=1e-12)


def test_batch_probs_match_enumeration():
    rng = np.random.default_rng(14)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    policy = random_policy(rng, mdp)
    states, actions, probs = enumerate_support(mdp, policy)
    np.testing.assert_allclose(batch_trajectory_probs(mdp, policy, states, actions), probs,
                               rtol=1e-13)


def test_enumeration_order_is_lexicographic():
    rng = np.random.default_rng(15)
    mdp = random_mdp(rng, S=2, A=2, T=2)
    states, actions, _ = enumerate_support(mdp, uniform_policy(mdp))
    interleaved = np.stack([states[:, 0], actions[:, 0], states[:, 1], actions[:, 1]], axis=1)
    assert (np.diff([tuple(row) for row in interleaved], axis=0) != 0).any(axis=1).all()
    order = np.lexsort(interleaved.T[::-1])
    np.testing.assert_array_equal(order, np.arange(len(order)))


def test_enumeration_cap_error_names_size():
    mdp = Mdp(T=12, S=4, A=4,
              initial_dist=np.full(4, 0.25),
              kernels=np.full((11, 4, 4, 4), 0.25),
              ref_measure=np.ones(4))
    with pytest.raises(CapacityError, match=str((4 * 4) ** 12)):
        enumerate_support(mdp, uniform_policy(mdp))


def test_log_prob_all_factors_one_is_zero():
    mdp = Mdp(T=2, S=1, A=1, initial_dist=[1.0],
              kernels=np.ones((1, 1, 1, 1)), ref_measure=[1.0])
    tau = Dataset(states=[[0, 0]], actions=[[0, 0]], seed=0)
    assert trajectory_log_prob(mdp, uniform_policy(mdp), tau).tolist() == [0.0]


def test_log_prob_zero_factor_is_minus_inf():
    rng = np.random.default_rng(16)
    mdp = random_mdp(rng, S=2, A=2, T=2)
    probs = np.zeros((2, 2, 2))
    probs[:, :, 0] = 1.0
    tau = Dataset(states=[[0, 0], [0, 1]], actions=[[1, 0], [0, 0]], seed=0)  # action 1 has probability 0
    log_probs = trajectory_log_prob(mdp, Policy(probs=probs), tau)
    assert log_probs[0] == -np.inf
    assert np.isfinite(log_probs[1])  # one vanishing row leaves the others alone


def test_gibbs_policies_share_support():
    """Any two entropy-regularized solutions put positive mass on the same trajectories."""
    rng = np.random.default_rng(17)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    r1 = RewardTable(r=rng.normal(size=(3, 3, 2)))
    r2 = RewardTable(r=rng.normal(size=(3, 3, 2)))
    pi1 = soft_backward(mdp, r1, 0.7).pi_star
    pi2 = soft_backward(mdp, r2, 1.3).pi_star
    states, actions, probs = enumerate_support(mdp, pi1)
    assert np.all(probs > 0.0)
    assert np.all(batch_trajectory_probs(mdp, pi2, states, actions) > 0.0)


# ---------------------------------------------------------------------------
# datasets read through tables


def test_dataset_indices_are_checked_against_the_tables():
    """Every function that reads a dataset through a ``(T, S, A)`` table rejects
    an out-of-range index or a wrong horizon with an ``InputError``."""
    from soft_irl import (
        FitConfig,
        LinearRewardModel,
        fit_empirical,
        irl_empirical_loss,
        mle_loss,
        return_decomposition,
        score,
        soft_optimal_residuals,
    )

    rng = np.random.default_rng(23)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    policy = random_policy(rng, mdp)
    features = generate_instance(InstanceSpec(S=3, A=2, T=3, d=2, seed=3)).features
    model = LinearRewardModel(features=features, theta=np.zeros(2))
    reward = RewardTable(r=rng.normal(size=(3, 3, 2)))
    calls = {
        "empirical_feature_expectation": lambda d: empirical_feature_expectation(d, features),
        "mle_loss": lambda d: mle_loss(mdp, policy, d),
        "soft_optimal_residuals": lambda d: soft_optimal_residuals(mdp, model, 0.7, d),
        "irl_empirical_loss": lambda d: irl_empirical_loss(mdp, model, 0.7, d),
        "fit_empirical": lambda d: fit_empirical(mdp, features, d, FitConfig(beta=0.7)),
        "trajectory_log_prob": lambda d: trajectory_log_prob(mdp, policy, d),
        "score": lambda d: score(mdp, model, 0.7, d),
        "return_decomposition": lambda d: return_decomposition(mdp, reward, policy, 0.7, d),
    }
    good = sample_trajectories(mdp, policy, 5, seed=0)
    bad_state = Dataset(states=[[0, 1, 2], [0, 3, 1]], actions=[[0, 1, 0], [1, 1, 0]], seed=0)
    bad_action = Dataset(states=[[0, 1, 2]], actions=[[0, 1, 2]], seed=0)
    short = Dataset(states=[[0, 1]], actions=[[0, 1]], seed=0)
    for name, call in calls.items():
        call(good)
        with pytest.raises(InvariantError, match=r"state index out of range \(S=3\)"):
            call(bad_state)
        with pytest.raises(InvariantError, match=r"action index out of range \(A=2\)"):
            call(bad_action)
        with pytest.raises(DimensionError, match="horizon 3"):
            call(short)


# ---------------------------------------------------------------------------
# feature expectations


def test_empirical_feature_expectation_constant_feature():
    rng = np.random.default_rng(18)
    mdp = random_mdp(rng, T=4)
    data = sample_trajectories(mdp, uniform_policy(mdp), 17, seed=1)
    c = np.array([2.0, -1.0])
    phi = np.broadcast_to(c, (mdp.T, mdp.S, mdp.A, 2)).copy()
    np.testing.assert_allclose(empirical_feature_expectation(data, phi), mdp.T * c)


def test_empirical_feature_expectation_single_trajectory():
    rng = np.random.default_rng(19)
    mdp = random_mdp(rng)
    phi = rng.normal(size=(mdp.T, mdp.S, mdp.A, 3))
    states, actions = (0, 1, 2), (1, 0, 1)
    data = Dataset(states=[states], actions=[actions], seed=0)
    expected = sum(phi[t, states[t], actions[t]] for t in range(mdp.T))
    np.testing.assert_allclose(empirical_feature_expectation(data, phi), expected)


def _unique_grouping_reference(data, phi):
    """The feature average grouped by ``np.unique(axis=0)``."""
    rows = np.concatenate([data.states, data.actions], axis=1)
    trajs, counts = np.unique(rows, axis=0, return_counts=True)
    gathered = phi[np.arange(data.T)[None, :], trajs[:, : data.T], trajs[:, data.T :]]
    return (counts / len(data)) @ gathered.sum(axis=1)


def test_empirical_feature_expectation_matches_unique_grouping():
    """The visit-count average agrees with the grouped sum up to summation order.

    Let ``E`` be the exact average, ``M = (1/n) sum_i sum_t |phi_t(s_it, a_it)|``
    per coordinate, ``u = 2**-53`` and ``gamma(m) = m u / (1 - m u)``.  The
    visit-count side rounds ``N/n`` once, then forms a ``K = T*S*A``-term dot
    product in some order (one product and at most ``K - 1`` additions per
    term): ``|a - E| <= gamma(K + 1) M``.  The grouped side sums ``T`` steps per
    group, rounds ``count/n`` once and forms a dot product over at most ``n``
    groups: ``|b - E| <= gamma(T + n) M``.  Both hold for any summation order,
    so ``|a - b| <= (gamma(K + 1) + gamma(T + n)) M`` bounds the difference
    whatever order BLAS picks, and any counting error (of order ``1/n``) is
    far above it.
    """
    rng = np.random.default_rng(22)
    mdp = random_mdp(rng, S=3, A=2, T=4)
    phi = rng.normal(size=(mdp.T, mdp.S, mdp.A, 5))
    n = 2000
    data = sample_trajectories(mdp, random_policy(rng, mdp), n, seed=31)
    u = 2.0**-53

    def gamma(m):
        return m * u / (1.0 - m * u)

    K = mdp.T * mdp.S * mdp.A
    M = np.abs(phi[np.arange(mdp.T)[None, :], data.states, data.actions]).sum(axis=1).mean(axis=0)
    bound = (gamma(K + 1) + gamma(mdp.T + n)) * M
    diff = np.abs(empirical_feature_expectation(data, phi) - _unique_grouping_reference(data, phi))
    assert np.all(diff <= bound), (diff, bound)

    # the degenerate dataset where every draw is the same trajectory
    det = random_mdp(np.random.default_rng(5), S=3, A=2, T=3, deterministic=True)
    probs = np.zeros((3, 3, 2))
    probs[:, :, 0] = 1.0
    same = sample_trajectories(det, Policy(probs=probs), 32, seed=0)
    phi3 = rng.normal(size=(3, 3, 2, 4))
    np.testing.assert_array_equal(
        empirical_feature_expectation(same, phi3), _unique_grouping_reference(same, phi3)
    )


def test_empirical_feature_expectation_converges_to_population():
    rng = np.random.default_rng(20)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    policy = random_policy(rng, mdp)
    phi = rng.normal(size=(mdp.T, mdp.S, mdp.A, 4))
    target = feature_expectation(mdp, policy, phi)

    n = 100_000
    data = sample_trajectories(mdp, policy, n, seed=123)
    est = empirical_feature_expectation(data, phi)

    # per-coordinate standard error of the per-trajectory feature return
    per_traj = phi[np.arange(mdp.T)[None, :], data.states, data.actions].sum(axis=1)
    se = per_traj.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(est - target) <= 4.0 * se)


@pytest.mark.parametrize("shape", [(3, 3, 3, 2), (2, 3, 2, 2), (3, 3, 2)])
def test_feature_expectation_rejects_features_off_the_mdp_axes(shape):
    mdp = random_mdp(np.random.default_rng(24), S=3, A=2, T=3)
    with pytest.raises(DimensionError, match="features"):
        feature_expectation(mdp, uniform_policy(mdp), np.zeros(shape))


def test_population_feature_expectation_matches_occupancy_contraction():
    rng = np.random.default_rng(21)
    mdp = random_mdp(rng, S=3, A=3, T=4)
    policy = random_policy(rng, mdp)
    phi = rng.normal(size=(mdp.T, mdp.S, mdp.A, 2))
    mu = forward_occupancy(mdp, policy)
    expected = np.einsum("tsa,tsad->d", mu, phi)
    np.testing.assert_allclose(feature_expectation(mdp, policy, phi), expected, atol=1e-12)


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=3),
       st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
def test_occupancy_consistency_property(seed, S, A, T):
    """State marginals from exact enumeration agree with forward propagation."""
    rng = np.random.default_rng(seed)
    mdp = random_mdp(rng, S=S, A=A, T=T)
    policy = random_policy(rng, mdp)
    mu = forward_occupancy(mdp, policy)

    states, _, probs = enumerate_support(mdp, policy)
    marg = np.zeros((T, S))
    for t in range(T):
        np.add.at(marg[t], states[:, t], probs)
    np.testing.assert_allclose(mu.sum(axis=2), marg, atol=1e-12)
