"""Tests for soft/hard backward induction, evaluation, and decompositions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soft_irl import (
    DomainError,
    FeatureMap,
    FitConfig,
    InstanceSpec,
    LinearRewardModel,
    Mdp,
    Policy,
    RewardTable,
    VarianceDecomposition,
    delta_terms,
    derivative_bundle,
    effective_dimension,
    feature_advantage,
    feature_values,
    fit_population,
    forward_occupancy,
    gather_table,
    generate_instance,
    hard_backward,
    log_policy_density,
    policy_evaluate,
    return_decomposition,
    sample_trajectories,
    soft_backward,
    solve_model,
    third_derivative,
    trajectory_hellinger,
    trajectory_kl,
    uniform_policy,
    variance_decomposition,
)
from soft_irl.instances import counterexample_instance
from soft_irl import soft_dp
from soft_irl.soft_dp import (
    _action_max,
    _action_reductions,
    _action_sum,
    _backward,
    _expected_next,
    _log_gibbs,
    _path_max,
    _policy_values,
    _regularizer,
)

from test_mdp import (
    ENUMERATION_CAP,
    enumerate_support,
    random_mdp,
    random_policy,
    sparse_distributions,
    trajectory_probs,
)


def random_reward(rng, mdp, scale=1.0):
    return RewardTable(r=scale * rng.normal(size=(mdp.T, mdp.S, mdp.A)))


# ---------------------------------------------------------------------------
# soft_backward


def test_zero_reward_closed_form():
    rng = np.random.default_rng(0)
    mdp = random_mdp(rng, S=3, A=2, T=4)
    sol = soft_backward(mdp, RewardTable(r=np.zeros((4, 3, 2))), beta=1.0)
    for t in range(mdp.T + 1):
        np.testing.assert_allclose(sol.V[t], (mdp.T - t) * np.log(2.0), atol=1e-12)
    np.testing.assert_allclose(sol.pi_star.probs, 0.5, atol=1e-14)
    assert sol.J_star == pytest.approx(4 * np.log(2.0), abs=1e-12)


def test_two_action_logit():
    theta = 1.7
    mdp = Mdp(T=1, S=1, A=2, initial_dist=[1.0],
              kernels=np.zeros((0, 1, 2, 1)), ref_measure=[1.0, 1.0])
    sol = soft_backward(mdp, RewardTable(r=[[[theta, 0.0]]]), beta=1.0)
    assert sol.V[0][0] == pytest.approx(np.log1p(np.exp(theta)), abs=1e-12)
    assert sol.pi_star.probs[0, 0, 0] == pytest.approx(1.0 / (1.0 + np.exp(-theta)), abs=1e-12)


def test_counterexample_optimal_values():
    """Closed-form values of the two-step branching instance at theta = (2, 4)."""
    mdp, features, _ = counterexample_instance()
    r = features.phi @ np.array([2.0, 4.0])
    sol = soft_backward(mdp, RewardTable(r=r), beta=1.0)
    v_last_0 = np.log(1.0 + np.exp(2.0))
    v_last_1 = np.log(1.0 + np.exp(4.0))
    assert sol.V[1][0] == pytest.approx(v_last_0, abs=1e-12)
    assert sol.V[1][1] == pytest.approx(v_last_1, abs=1e-12)
    assert sol.Q[0][0, 0] == pytest.approx(v_last_1, abs=1e-12)
    assert sol.Q[0][0, 1] == pytest.approx(0.5 * v_last_0 + 0.5 * v_last_1, abs=1e-12)


def test_soft_solution_internal_identities():
    rng = np.random.default_rng(1)
    mdp = random_mdp(rng, S=4, A=3, T=3)
    beta = 0.6
    sol = soft_backward(mdp, random_reward(rng, mdp), beta)
    # V is the soft max of Q, and pi_star the associated Gibbs weights
    lse = beta * np.log(np.exp(sol.Q / beta).sum(axis=-1))
    np.testing.assert_allclose(sol.V[:-1], lse, atol=1e-10)
    gibbs = np.exp((sol.Q - sol.V[:-1, :, None]) / beta)
    np.testing.assert_allclose(sol.pi_star.probs, gibbs, atol=1e-12)
    assert sol.J_star == pytest.approx(float(mdp.initial_dist @ sol.V[0]), abs=1e-12)
    np.testing.assert_allclose(sol.V[-1], 0.0)


def test_soft_backward_rejects_nonpositive_beta():
    rng = np.random.default_rng(2)
    mdp = random_mdp(rng)
    zero = RewardTable(r=np.zeros((mdp.T, mdp.S, mdp.A)))
    with pytest.raises(DomainError, match="hard_backward"):
        soft_backward(mdp, zero, 0.0)
    with pytest.raises(DomainError):
        soft_backward(mdp, zero, -1.0)


def test_shift_equivariance():
    """Adding a constant to every reward shifts V[t] by c times the remaining steps."""
    rng = np.random.default_rng(3)
    mdp = random_mdp(rng, S=3, A=2, T=4)
    reward = random_reward(rng, mdp)
    c = 2.75
    base = soft_backward(mdp, reward, 0.9)
    shifted = soft_backward(mdp, RewardTable(r=reward.r + c), 0.9)
    for t in range(mdp.T + 1):
        np.testing.assert_allclose(shifted.V[t], base.V[t] + c * (mdp.T - t), atol=1e-9)
    np.testing.assert_allclose(shifted.pi_star.probs, base.pi_star.probs, atol=1e-12)


def test_small_beta_stability():
    rng = np.random.default_rng(4)
    mdp = random_mdp(rng, S=3, A=3, T=3)
    reward = random_reward(rng, mdp, scale=5.0)
    sol = soft_backward(mdp, reward, beta=1e-3)
    assert np.all(np.isfinite(sol.V))
    assert np.all(np.isfinite(sol.pi_star.probs))
    hard = hard_backward(mdp, reward)
    np.testing.assert_allclose(sol.V[:-1], hard.V[:-1], atol=5e-3)
    # the Gibbs policy collapses onto the greedy one
    np.testing.assert_allclose(sol.pi_star.probs, hard.policy.probs, atol=1e-6)


RATES_SPEC = InstanceSpec(S=5, A=3, T=4, d=6, beta=0.5, seed=5)  # the configs/rates.json instance


def near_top(Q):
    """The actions whose ``Q`` is within 4 ulps of its row's largest."""
    top = Q.max(axis=-1, keepdims=True)
    return Q >= top - 4 * np.spacing(np.abs(top))


def test_a_temperature_of_1e_300_gives_the_greedy_policy():
    """A reward of ones at ``beta = 1e-300`` on the ``configs/rates.json``
    instance: ``Q / beta`` is finite, so the solve returns a valid policy
    that puts mass only on actions of maximal ``Q`` (up to the few ulps in
    which ``Q / beta`` can round two values together), with ``log pi <=
    0``, and its values are the hard ones to rounding."""
    mdp = generate_instance(RATES_SPEC).mdp
    ones = RewardTable(r=np.ones((mdp.T, mdp.S, mdp.A)))
    sol = soft_backward(mdp, ones, 1e-300)
    assert (sol.pi_star.probs[~near_top(sol.Q)] == 0.0).all()
    assert _log_gibbs(mdp, 1e-300, sol.Q).max() <= 0.0
    np.testing.assert_allclose(sol.V, hard_backward(mdp, ones).V, rtol=1e-15)


def test_log_gibbs_is_at_most_zero_at_a_huge_reward():
    """At ``beta = 1e-4`` and ``theta = 1e12 * 1 / sqrt(d)`` on the
    ``configs/rates.json`` instance, ``(Q - V) / beta`` carries a rounding
    of about ``max|Q| eps / beta`` and read up to 2.44; ``log pi`` taken
    from ``Q`` alone is at most 0 and its rows sum to one in probability."""
    inst = generate_instance(RATES_SPEC)
    theta = 1e12 * np.ones(6) / np.sqrt(6)
    sol = solve_model(inst.mdp, LinearRewardModel(features=inst.features, theta=theta), 1e-4)
    log_pi = _log_gibbs(inst.mdp, 1e-4, sol.Q)
    assert log_pi.max() <= 0.0
    np.testing.assert_allclose(np.exp(log_pi).sum(axis=-1), 1.0, rtol=1e-15)


# ---------------------------------------------------------------------------
# hard_backward


def test_hard_backward_zero_reward():
    rng = np.random.default_rng(5)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    sol = hard_backward(mdp, RewardTable(r=np.zeros((3, 3, 2))))
    np.testing.assert_allclose(sol.V, 0.0)
    assert np.all(sol.policy.probs[:, :, 0] == 1.0)  # ties break low


def test_hard_backward_greedy_matches_argmax():
    mdp = Mdp(T=1, S=2, A=3, initial_dist=[0.5, 0.5],
              kernels=np.zeros((0, 2, 3, 2)), ref_measure=np.ones(3))
    r = np.array([[[0.0, 2.0, 1.0], [3.0, 1.0, 0.0]]])
    sol = hard_backward(mdp, RewardTable(r=r))
    np.testing.assert_array_equal(sol.policy.probs[0].argmax(axis=-1), [1, 0])
    np.testing.assert_allclose(sol.V[0], [2.0, 3.0])


def test_hard_backward_dominates_random_policies():
    rng = np.random.default_rng(6)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    reward = random_reward(rng, mdp)
    sol = hard_backward(mdp, reward)
    for _ in range(100):
        pi = random_policy(rng, mdp)
        assert sol.J >= policy_evaluate(mdp, reward, pi, beta=0.0).J - 1e-12


# ---------------------------------------------------------------------------
# policy_evaluate


def test_evaluating_gibbs_policy_reproduces_solution():
    rng = np.random.default_rng(7)
    mdp = random_mdp(rng, S=4, A=3, T=4)
    reward = random_reward(rng, mdp)
    beta = 0.8
    sol = soft_backward(mdp, reward, beta)
    ev = policy_evaluate(mdp, reward, sol.pi_star, beta)
    np.testing.assert_allclose(ev.V, sol.V, atol=1e-9)
    np.testing.assert_allclose(ev.Q, sol.Q, atol=1e-9)
    np.testing.assert_allclose(ev.advantage, 0.0, atol=1e-9)
    assert ev.J == pytest.approx(sol.J_star, abs=1e-9)


def test_unit_reward_beta_zero_counts_steps():
    rng = np.random.default_rng(8)
    mdp = random_mdp(rng, S=3, A=2, T=5)
    ones = RewardTable(r=np.ones((5, 3, 2)))
    for policy in [uniform_policy(mdp), random_policy(rng, mdp)]:
        ev = policy_evaluate(mdp, ones, policy, beta=0.0)
        for t in range(mdp.T + 1):
            np.testing.assert_allclose(ev.V[t], mdp.T - t, atol=1e-12)


def test_soft_suboptimality_identity():
    """The optimality gap is exactly beta times the trajectory KL to the Gibbs policy."""
    rng = np.random.default_rng(9)
    for _ in range(50):
        mdp = random_mdp(rng, S=3, A=2, T=3)
        reward = random_reward(rng, mdp)
        beta = float(rng.uniform(0.2, 2.0))
        sol = soft_backward(mdp, reward, beta)
        pi = random_policy(rng, mdp)
        gap = sol.J_star - policy_evaluate(mdp, reward, pi, beta).J
        assert gap == pytest.approx(beta * trajectory_kl(mdp, pi, sol.pi_star), abs=1e-8)
        assert gap >= -1e-12


# ---------------------------------------------------------------------------
# feature advantages


def test_constant_feature_has_zero_advantage():
    rng = np.random.default_rng(10)
    mdp = random_mdp(rng, T=3)
    phi = np.broadcast_to([1.5, -2.0], (mdp.T, mdp.S, mdp.A, 2)).copy()
    adv = feature_advantage(mdp, phi, random_policy(rng, mdp))
    np.testing.assert_allclose(adv, 0.0, atol=1e-12)


def test_one_step_advantage_is_centering():
    rng = np.random.default_rng(11)
    mdp = Mdp(T=1, S=2, A=3, initial_dist=[0.4, 0.6],
              kernels=np.zeros((0, 2, 3, 2)), ref_measure=np.ones(3))
    phi = rng.normal(size=(1, 2, 3, 1))
    pi = random_policy(rng, mdp)
    adv = feature_advantage(mdp, phi, pi)
    centered = phi[0, :, :, 0] - (pi.probs[0] * phi[0, :, :, 0]).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(adv[0, :, :, 0], centered, atol=1e-12)


def test_advantage_conditional_mean_is_zero():
    rng = np.random.default_rng(12)
    mdp = random_mdp(rng, S=4, A=3, T=3)
    phi = rng.normal(size=(mdp.T, mdp.S, mdp.A, 5))
    pi = random_policy(rng, mdp)
    adv = feature_advantage(mdp, phi, pi)
    cond_mean = np.einsum("tsa,tsad->tsd", pi.probs, adv)
    np.testing.assert_allclose(cond_mean, 0.0, atol=1e-10)


# ---------------------------------------------------------------------------
# divergences


def test_kl_of_identical_policies_is_zero():
    rng = np.random.default_rng(13)
    mdp = random_mdp(rng)
    pi = random_policy(rng, mdp)
    assert trajectory_kl(mdp, pi, pi) == 0.0


def test_kl_missing_support_is_infinite():
    rng = np.random.default_rng(14)
    mdp = random_mdp(rng, S=2, A=2, T=2)
    probs = np.zeros((2, 2, 2))
    probs[:, :, 0] = 1.0
    q = Policy(probs=probs)
    assert trajectory_kl(mdp, uniform_policy(mdp), q) == np.inf
    # the reverse direction stays finite: q's support is contained in p's
    assert np.isfinite(trajectory_kl(mdp, q, uniform_policy(mdp)))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([1e-16, 1e-15, -1e-15, 1e-13]),
)
def test_kl_of_near_equal_gibbs_policies_is_never_negative(seed, S, A, T, rel):
    """The exact KL is >= 0 (Gibbs' inequality); rounding must not push the
    computed one below it when the two laws agree to the last few ulps."""
    rng = np.random.default_rng(seed)
    mdp = random_mdp(rng, S=S, A=A, T=T)
    r = rng.normal(size=(T, S, A))
    p = soft_backward(mdp, RewardTable(r=r), 0.5).pi_star
    q = soft_backward(mdp, RewardTable(r=r * (1.0 + rel)), 0.5).pi_star
    assert trajectory_kl(mdp, p, q) >= 0.0
    assert trajectory_kl(mdp, q, p) >= 0.0
    assert trajectory_kl(mdp, p, p) == 0.0


def test_kl_near_equal_on_the_rates_instance_is_never_negative():
    inst = generate_instance(InstanceSpec(S=5, A=3, T=4, d=6, beta=0.5, seed=5))
    rng = np.random.default_rng(40)
    for _ in range(40):
        theta = rng.normal(size=6)
        p, q = (
            solve_model(inst.mdp, LinearRewardModel(inst.features, th), 0.5).pi_star
            for th in (theta, theta * (1 + 1e-15))
        )
        assert trajectory_kl(inst.mdp, p, q) >= 0.0


def test_kl_ignores_disjoint_support_on_unreachable_states():
    # every move stays in state 0, so state 1 is never reached
    kernels = np.zeros((1, 2, 2, 2))
    kernels[..., 0] = 1.0
    mdp = Mdp(T=2, S=2, A=2, initial_dist=[1.0, 0.0], kernels=kernels, ref_measure=[1.0, 1.0])
    p = np.full((2, 2, 2), 0.5)
    q = p.copy()
    q[1, 1] = [1.0, 0.0]
    assert trajectory_kl(mdp, Policy(probs=p), Policy(probs=q)) == 0.0


def test_kl_matches_enumeration():
    rng = np.random.default_rng(15)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    p, q = random_policy(rng, mdp), random_policy(rng, mdp)
    _, _, pp = enumerate_support(mdp, p)
    states, actions, _ = enumerate_support(mdp, p)
    qq = trajectory_probs(mdp, q, states, actions)
    direct = float(np.sum(pp * (np.log(pp) - np.log(qq))))
    assert trajectory_kl(mdp, p, q) == pytest.approx(direct, abs=1e-10)


def test_hellinger_basics():
    rng = np.random.default_rng(16)
    mdp = random_mdp(rng, S=2, A=2, T=2)
    pi = random_policy(rng, mdp)
    assert trajectory_hellinger(mdp, pi, Policy(probs=pi.probs.copy())) == 0.0

    left = np.zeros((2, 2, 2))
    left[:, :, 0] = 1.0
    right = np.zeros((2, 2, 2))
    right[:, :, 1] = 1.0
    assert trajectory_hellinger(mdp, Policy(probs=left), Policy(probs=right)) == pytest.approx(2.0)


def test_hellinger_bounded_by_kl():
    rng = np.random.default_rng(17)
    for _ in range(20):
        mdp = random_mdp(rng, S=3, A=2, T=3)
        p, q = random_policy(rng, mdp), random_policy(rng, mdp)
        assert trajectory_hellinger(mdp, p, q) <= trajectory_kl(mdp, p, q) + 1e-12


def hellinger_by_enumeration(mdp, p, q):
    """Oracle: sum (sqrt(P_p) - sqrt(P_q))**2 over the support of the 50/50 mixture."""
    mixture = Policy(probs=0.5 * p.probs + 0.5 * q.probs, label="mixture")
    states, actions, _ = enumerate_support(mdp, mixture)
    pp = trajectory_probs(mdp, p, states, actions)
    qq = trajectory_probs(mdp, q, states, actions)
    return float(((np.sqrt(pp) - np.sqrt(qq)) ** 2).sum())


def sparse_policy(rng, mdp):
    """A random policy with about a third of its entries exactly zero."""
    probs = rng.dirichlet(np.ones(mdp.A), size=(mdp.T, mdp.S))
    probs[rng.random(probs.shape) < 0.35] = 0.0
    probs[probs.sum(axis=-1) == 0.0, 0] = 1.0
    return Policy(probs=probs / probs.sum(axis=-1, keepdims=True))


@pytest.mark.parametrize("kind", ["stochastic", "deterministic", "zero_probability"])
def test_hellinger_recursion_matches_enumeration(kind):
    rng = np.random.default_rng({"stochastic": 40, "deterministic": 41, "zero_probability": 42}[kind])
    for _ in range(10):
        mdp = random_mdp(rng, S=3, A=3, T=4, deterministic=kind == "deterministic")
        draw = sparse_policy if kind == "zero_probability" else random_policy
        p, q = draw(rng, mdp), draw(rng, mdp)
        expected = hellinger_by_enumeration(mdp, p, q)
        assert 0.0 < expected <= 2.0
        assert trajectory_hellinger(mdp, p, q) == pytest.approx(expected, rel=1e-9)


def test_hellinger_recursion_near_identical_policies():
    rng = np.random.default_rng(43)
    for _ in range(10):
        mdp = random_mdp(rng, S=3, A=3, T=4)
        p = random_policy(rng, mdp)
        tilted = p.probs * np.exp(5e-6 * rng.normal(size=p.probs.shape))
        q = Policy(probs=tilted / tilted.sum(axis=-1, keepdims=True))
        expected = hellinger_by_enumeration(mdp, p, q)
        assert 1e-12 < expected < 1e-10
        assert trajectory_hellinger(mdp, p, q) == pytest.approx(expected, rel=1e-9)


def test_hellinger_beyond_enumeration_cap():
    rng = np.random.default_rng(45)
    mdp = random_mdp(rng, S=50, A=10, T=20)
    assert (mdp.S * mdp.A) ** mdp.T > ENUMERATION_CAP
    p, q = random_policy(rng, mdp), random_policy(rng, mdp)
    value = trajectory_hellinger(mdp, p, q)
    assert np.isfinite(value) and 0.0 <= value <= 2.0


# ---------------------------------------------------------------------------
# return and variance decompositions


def test_zero_probability_advantage_follows_zero_log_zero():
    """An action the policy never takes has advantage ``Q - V`` at beta = 0, ``+inf`` above."""
    rng = np.random.default_rng(47)
    mdp = random_mdp(rng, S=3, A=3, T=3)
    reward = random_reward(rng, mdp)
    probs = random_policy(rng, mdp).probs.copy()
    probs[:, :, 0] = 0.0
    pi = Policy(probs=probs / probs.sum(axis=-1, keepdims=True))

    hard = policy_evaluate(mdp, reward, pi, 0.0)
    np.testing.assert_array_equal(hard.advantage, hard.Q - hard.V[:-1, :, None])
    soft = policy_evaluate(mdp, reward, pi, 0.5)
    assert np.all(soft.advantage[:, :, 0] == np.inf)
    assert np.all(np.isfinite(soft.advantage[:, :, 1:]))
    assert np.all(np.isfinite(soft.V))


def test_return_decomposition_residual_vanishes():
    rng = np.random.default_rng(18)
    for beta in [0.0, 0.7]:
        mdp = random_mdp(rng, S=3, A=2, T=4)
        reward = random_reward(rng, mdp)
        pi = random_policy(rng, mdp)
        data = sample_trajectories(mdp, pi, 20, seed=5)
        dec = return_decomposition(mdp, reward, pi, beta, data)
        assert dec.G.shape == dec.residual.shape == (20,)
        assert dec.advantage_terms.shape == dec.delta_terms.shape == (20, mdp.T)
        np.testing.assert_allclose(dec.residual, 0.0, atol=1e-9)


def test_deterministic_dynamics_kill_delta():
    rng = np.random.default_rng(19)
    mdp = random_mdp(rng, S=3, A=2, T=4, deterministic=True)
    reward = random_reward(rng, mdp)
    pi = random_policy(rng, mdp)
    data = sample_trajectories(mdp, pi, 10, seed=6)
    dec = return_decomposition(mdp, reward, pi, 0.5, data)
    np.testing.assert_allclose(dec.delta_sum, 0.0, atol=1e-12)
    np.testing.assert_allclose(dec.residual, 0.0, atol=1e-9)


def test_gibbs_policy_kills_advantage_terms():
    rng = np.random.default_rng(20)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    reward = random_reward(rng, mdp)
    beta = 1.1
    sol = soft_backward(mdp, reward, beta)
    data = sample_trajectories(mdp, sol.pi_star, 10, seed=7)
    dec = return_decomposition(mdp, reward, sol.pi_star, beta, data)
    np.testing.assert_allclose(dec.advantage_sum, 0.0, atol=1e-9)


def test_decomposition_terms_pairwise_orthogonal():
    """All advantage and dynamics terms are uncorrelated under the trajectory law."""
    rng = np.random.default_rng(21)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    reward = random_reward(rng, mdp)
    pi = random_policy(rng, mdp)
    beta = 0.4

    ev = policy_evaluate(mdp, reward, pi, beta)
    states, actions, probs = enumerate_support(mdp, pi)
    adv = gather_table(ev.advantage, states, actions)  # (N, T)
    dta = delta_terms(mdp, ev.V, states, actions)      # (N, T)
    terms = np.concatenate([adv, dta], axis=1)

    gram = (terms * probs[:, None]).T @ terms
    off_diag = gram - np.diag(np.diag(gram))
    np.testing.assert_allclose(off_diag, 0.0, atol=1e-10)


def variance_by_enumeration(mdp, reward, policy, beta):
    """Oracle: the variance split as sums over every trajectory of the policy's support.

    ``total`` and ``mean_return`` use the realized returns alone; ``action``
    and ``dynamics`` sum the gathered advantage and dynamics-noise terms.
    """
    ev = policy_evaluate(mdp, reward, policy, beta)
    states, actions, probs = enumerate_support(mdp, policy)
    log_density = gather_table(log_policy_density(mdp, policy), states, actions)
    G = (gather_table(reward.r, states, actions) - beta * log_density).sum(axis=1)
    mean = float(probs @ G)
    adv_sum = gather_table(ev.advantage, states, actions).sum(axis=1)
    dta_sum = delta_terms(mdp, ev.V, states, actions).sum(axis=1)
    return VarianceDecomposition(
        total=float(probs @ (G - mean) ** 2),
        action=float(probs @ adv_sum**2),
        dynamics=float(probs @ dta_sum**2),
        mean_return=mean,
    )


def assert_matches_oracle(value, expected):
    """1e-10 relative, or 1e-12 absolute where the oracle is a roundoff zero."""
    if abs(expected) < 1e-12:
        assert abs(value - expected) <= 1e-12
    else:
        assert value == pytest.approx(expected, rel=1e-10)


def test_variance_decomposition_sums_and_matches_enumeration():
    rng = np.random.default_rng(22)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    reward = random_reward(rng, mdp)
    pi = random_policy(rng, mdp)
    beta = 0.9

    var = variance_decomposition(mdp, reward, pi, beta)
    assert var.total == pytest.approx(var.action + var.dynamics, abs=1e-9)

    # oracle: accumulate E[(sum A)^2] and E[(sum delta)^2] from enumeration
    ev = policy_evaluate(mdp, reward, pi, beta)
    states, actions, probs = enumerate_support(mdp, pi)
    adv_sum = gather_table(ev.advantage, states, actions).sum(axis=1)
    dta_sum = delta_terms(mdp, ev.V, states, actions).sum(axis=1)
    assert var.action == pytest.approx(float(probs @ adv_sum**2), abs=1e-9)
    assert var.dynamics == pytest.approx(float(probs @ dta_sum**2), abs=1e-9)

    # the total and the mean against the enumerated returns themselves
    oracle = variance_by_enumeration(mdp, reward, pi, beta)
    assert var.total == pytest.approx(oracle.total, rel=1e-10)
    assert var.mean_return == pytest.approx(oracle.mean_return, rel=1e-10)


@pytest.mark.parametrize(
    "kind, beta",
    [
        ("stochastic", 0.9),
        ("deterministic", 0.6),
        ("zero_probability", 0.0),
        ("zero_probability", 0.7),
    ],
)
def test_variance_decomposition_matches_enumeration_oracle(kind, beta):
    rng = np.random.default_rng({"stochastic": 50, "deterministic": 51, "zero_probability": 52}[kind])
    for _ in range(10):
        mdp = random_mdp(rng, S=3, A=3, T=4, deterministic=kind == "deterministic")
        reward = random_reward(rng, mdp)
        pi = (sparse_policy if kind == "zero_probability" else random_policy)(rng, mdp)
        var = variance_decomposition(mdp, reward, pi, beta)
        oracle = variance_by_enumeration(mdp, reward, pi, beta)
        for field in ("total", "action", "dynamics", "mean_return"):
            assert_matches_oracle(getattr(var, field), getattr(oracle, field))


def test_variance_decomposition_beyond_enumeration_cap():
    rng = np.random.default_rng(53)
    mdp = random_mdp(rng, S=50, A=10, T=20)
    assert (mdp.S * mdp.A) ** mdp.T > ENUMERATION_CAP
    reward = random_reward(rng, mdp)
    pi = random_policy(rng, mdp)
    var = variance_decomposition(mdp, reward, pi, 0.5)
    values = [var.total, var.action, var.dynamics, var.mean_return]
    assert np.all(np.isfinite(values))
    assert var.action > 0.0 and var.dynamics > 0.0
    assert var.mean_return == policy_evaluate(mdp, reward, pi, 0.5).J


def test_variance_components_vanish_in_degenerate_cases():
    rng = np.random.default_rng(23)
    det = random_mdp(rng, S=3, A=2, T=3, deterministic=True)
    reward = random_reward(rng, det)
    assert variance_decomposition(det, reward, random_policy(rng, det), 0.5).dynamics == \
        pytest.approx(0.0, abs=1e-12)

    sto = random_mdp(rng, S=3, A=2, T=3)
    reward = random_reward(rng, sto)
    beta = 0.8
    sol = soft_backward(sto, reward, beta)
    assert variance_decomposition(sto, reward, sol.pi_star, beta).action == \
        pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# successor products: the BLAS matmuls against the einsum forms they replaced
#
# Every input below is non-negative, so each product is a sum of non-negative
# terms and any two summation orders agree to a few ulps relative, entry by
# entry: rtol = 1e-13 with no absolute slack.


def einsum_expected_next(kernel_t, v_next):
    return np.einsum("saz,z...->sa...", kernel_t, v_next)


def einsum_feature_values(mdp, phi, policy):
    T, S = phi.shape[:2]
    Q, V = np.empty(phi.shape), np.zeros((T + 1, S) + phi.shape[3:])
    for t in reversed(range(T)):
        Q[t] = phi[t]
        if t < T - 1:
            Q[t] += einsum_expected_next(mdp.kernels[t], V[t + 1])
        V[t] = np.einsum("sa,sad->sd", policy.probs[t], Q[t])
    return Q, V


def einsum_occupancy(mdp, policy):
    mu = np.empty((mdp.T, mdp.S, mdp.A))
    marginal = mdp.initial_dist
    for t in range(mdp.T):
        mu[t] = marginal[:, None] * policy.probs[t]
        if t < mdp.T - 1:
            marginal = np.einsum("sa,saz->z", mu[t], mdp.kernels[t])
    return mu


def assert_matches_einsum(value, expected):
    assert value.shape == expected.shape
    np.testing.assert_allclose(value, expected, rtol=1e-13, atol=0.0)


# (S, A, T, d): the rates instance and the fit_large benchmark instance
SUCCESSOR_SIZES = [(5, 3, 4, 6), (50, 10, 20, 50)]


@pytest.mark.parametrize("S, A, T, d", SUCCESSOR_SIZES + [(4, 3, 1, 5)])
@pytest.mark.parametrize("tail", [(), "d", (3,), (2, 3)])
def test_expected_next_matches_einsum(S, A, T, d, tail):
    """The stacked product of a batch of K = 1 and of K = 3 value tables
    matches the einsum form for each member, and each member of the batch of
    three is bit for bit its own batch of one.  On the whole kernel stack,
    one value table per step, each step is bit for bit its lone call, and a
    horizon of one gives an empty stack and an empty table."""
    rng = np.random.default_rng(S + len(tail))
    mdp = random_mdp(rng, S=S, A=A, T=T)
    tail = (d,) if tail == "d" else tail
    for t in range(T - 1):
        kernel = mdp.kernels[t]
        for K in (1, 3):
            v = rng.random((K, S) + tail)
            batch = _expected_next(kernel, v)
            assert batch.shape == (K, S, A) + tail
            for k in range(K):
                assert_matches_einsum(batch[k], einsum_expected_next(kernel, v[k]))
                assert np.array_equal(batch[k], _expected_next(kernel, v[k : k + 1])[0])
    values = rng.random((T - 1, S) + tail)
    stack = _expected_next(mdp.kernels, values)
    assert stack.shape == (T - 1, S, A) + tail
    for t in range(T - 1):
        assert np.array_equal(stack[t], _expected_next(mdp.kernels[t], values[t : t + 1])[0])


@pytest.mark.parametrize("S, A, T, d", SUCCESSOR_SIZES + [(4, 3, 1, 5)])
def test_feature_values_and_occupancy_match_einsum(S, A, T, d):
    rng = np.random.default_rng(S * T)
    mdp = random_mdp(rng, S=S, A=A, T=T)
    policy = random_policy(rng, mdp)
    phi = rng.random((T, S, A, d))
    Q, V = feature_values(mdp, phi, policy)
    Q_ref, V_ref = einsum_feature_values(mdp, phi, policy)
    assert_matches_einsum(Q, Q_ref)
    assert_matches_einsum(V, V_ref)
    assert_matches_einsum(forward_occupancy(mdp, policy), einsum_occupancy(mdp, policy))


def test_one_step_mdp_runs_every_successor_path():
    """T = 1: no kernels, so every successor product is skipped; each changed
    path must still give its closed form."""
    rng = np.random.default_rng(41)
    mdp = random_mdp(rng, S=4, A=3, T=1)
    assert mdp.kernels.shape == (0, 4, 3, 4)
    policy = random_policy(rng, mdp)
    phi = rng.random((1, 4, 3, 2))
    Q, V = feature_values(mdp, phi, policy)
    assert np.array_equal(Q, phi)
    assert_matches_einsum(V[0], np.einsum("sa,sad->sd", policy.probs[0], phi[0]))
    mu = forward_occupancy(mdp, policy)
    assert np.array_equal(mu[0], mdp.initial_dist[:, None] * policy.probs[0])

    features = FeatureMap(phi=rng.normal(size=(1, 4, 3, 2)))
    model = LinearRewardModel(features=features, theta=np.array([0.3, -0.7]))
    beta = 0.8
    pi = soft_backward(mdp, RewardTable(r=features.phi @ model.theta), beta).pi_star
    # one step: the Hessian is the initial-weighted action covariance of phi / beta
    mean = np.einsum("sa,sad->sd", pi.probs[0], features.phi[0])
    centred = features.phi[0] - mean[:, None, :]
    cov = np.einsum("s,sa,sai,saj->ij", mdp.initial_dist, pi.probs[0], centred, centred)
    bundle = derivative_bundle(mdp, model, beta)
    np.testing.assert_allclose(bundle.hessian, cov / beta, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(bundle.grad, mdp.initial_dist @ mean, rtol=1e-12)
    # the one-step third moment of the score, and the split of its covariance
    xi, zeta, omega = np.eye(2)[0], np.eye(2)[1], np.array([1.0, 1.0])
    third = np.einsum(
        "s,sa,sa,sa,sa->", mdp.initial_dist, pi.probs[0],
        centred @ xi, centred @ zeta, centred @ omega,
    )
    value = third_derivative(mdp, model, beta, xi, zeta, omega)
    assert value == pytest.approx(third / beta**2, rel=1e-12)
    split = effective_dimension(mdp, features, pi, bundle.hessian)
    np.testing.assert_allclose(split.action_part, cov, rtol=1e-12, atol=1e-15)
    init_mean = mdp.initial_dist @ mean
    dynamics = np.einsum("s,si,sj->ij", mdp.initial_dist, mean - init_mean, mean - init_mean)
    np.testing.assert_allclose(split.dynamics_part, dynamics, rtol=1e-12, atol=1e-15)
    # a fit reuses its line-search passes; the divergence needs no kernel either
    fit = fit_population(mdp, features, policy, FitConfig(beta=beta))
    assert fit.converged
    at_fit = derivative_bundle(mdp, LinearRewardModel(features=features, theta=fit.theta_hat), beta)
    assert np.array_equal(fit.hessian_at_solution, at_fit.hessian)
    assert trajectory_kl(mdp, policy, pi) > 0.0 and trajectory_kl(mdp, pi, pi) == 0.0


# ---------------------------------------------------------------------------
# batches of one: each single-table function is one member of the batched kernel


def sparse_instance(rng, S, A, T, deterministic):
    """An MDP with zero-mass initial and kernel entries (or one-hot ones) and
    a non-uniform reference measure."""
    if deterministic:
        return random_mdp(rng, S=S, A=A, T=T, deterministic=True)
    return Mdp(T=T, S=S, A=A, initial_dist=sparse_distributions(rng, (S,)),
               kernels=sparse_distributions(rng, (T - 1, S, A, S)),
               ref_measure=0.5 + rng.random(A))


# entries a reduction must carry through with numpy's bits: infinities, NaNs
# of both signs, signed zeros and subnormals
SPECIAL_ENTRIES = np.array([np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 5e-324, -2.5e-310, 1.0])


def layouts(base: np.ndarray) -> dict:
    """Views of a ``(K, T, S, A)`` table with the layouts the package reduces:
    C order, the ``(T, K, S, A)`` transpose of a value pass, Fortran order,
    reversed actions and a member broadcast over the batch."""
    return {
        "c": base,
        "transpose": base.transpose(1, 0, 2, 3),
        "fortran": np.asfortranarray(base),
        "reversed": base[..., ::-1],
        "broadcast": np.broadcast_to(base[:1], base.shape),
    }


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """NaN where the other is NaN, and the same bits everywhere else (so a
    signed zero counts)."""
    nan = np.isnan(a)
    return (
        a.shape == b.shape
        and np.array_equal(nan, np.isnan(b))
        and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))
    )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=10),
    st.sampled_from([1, 5, 42, 43, 100]),  # 6K rows: 252 and 258 straddle the size rule
    st.sampled_from(["c", "transpose", "fortran", "reversed", "broadcast"]),
    st.sampled_from([0.0, 0.1, 0.5, 1.0]),
)
def test_the_action_reductions_are_numpys_bit_for_bit_property(seed, A, K, layout, special):
    """The action-axis max and sum equal ``x.max(axis=-1)`` and
    ``x.sum(axis=-1)`` bit for bit, on tables of 1 to 10 actions with rows on
    both sides of the size rule, entries that include infinities, NaNs,
    signed zeros and subnormals, and non-contiguous views.  The folds
    themselves match for at most 7 actions at every row count, and they are
    taken for at most 7 actions and 256 rows or more only: a reduction over 8
    or more takes numpy's path."""
    rng = np.random.default_rng(seed)
    base = np.ldexp(rng.normal(size=(K, 2, 3, A)), rng.integers(-1074, 1000, size=(K, 2, 3, A)))
    mask = rng.random(base.shape) < special
    base[mask] = rng.choice(SPECIAL_ENTRIES, size=int(mask.sum()))
    x = layouts(base)[layout]
    with np.errstate(over="ignore", invalid="ignore"):
        top, total = x.max(axis=-1), x.sum(axis=-1)
        assert same_bits(_action_max(x), top) and same_bits(_action_sum(x), total)
        if A <= 7:
            assert same_bits(soft_dp._fold_max(x), top) and same_bits(soft_dp._fold_sum(x), total)
    folds = A <= 7 and x.size // A >= 256
    expected = (soft_dp._fold_max, soft_dp._fold_sum) if folds else (soft_dp._numpy_max, soft_dp._numpy_sum)
    assert _action_reductions(x.shape) == expected


BATCH_SIZES = (st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=5),
               st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
               st.booleans())


@settings(max_examples=40, deadline=None)
@given(*BATCH_SIZES)
def test_path_max_of_a_stack_is_each_tables_own_property(rng_seed, S, A, T, deterministic):
    rng = np.random.default_rng(rng_seed)
    mdp = sparse_instance(rng, S, A, T, deterministic)
    tables = rng.normal(size=(3, T, S, A))
    batch = _path_max(mdp, np.stack(list(tables), axis=1))
    assert batch.shape == (3,)
    for k, table in enumerate(tables):
        assert np.array_equal(batch[k : k + 1], _path_max(mdp, table[:, None]))


@settings(max_examples=40, deadline=None)
@given(*BATCH_SIZES, st.integers(min_value=1, max_value=4), st.sampled_from([0.0, 0.4, 1.7]))
def test_policy_values_of_a_policy_are_its_member_of_a_batch_property(
    rng_seed, S, A, T, deterministic, d, beta
):
    """``feature_values`` and ``policy_evaluate`` of each of three policies
    (with zero-mass actions) equal its member of the batch of three, bit for
    bit; the batched evaluation runs the kernel with ``policy_evaluate``'s
    regularized backup."""
    rng = np.random.default_rng(rng_seed)
    mdp = sparse_instance(rng, S, A, T, deterministic)
    policies = [Policy(probs=sparse_distributions(rng, (T, S, A)), label="sparse") for _ in range(3)]
    phis = rng.normal(size=(3, T, S, A, d))
    rewards = rng.normal(size=(3, T, S, A))
    probs = np.stack([pi.probs for pi in policies], axis=1)
    penalty = np.stack([_regularizer(mdp, pi, beta) for pi in policies], axis=1)

    def expected_regularized(t, q):
        return (probs[t] * np.where(probs[t] > 0.0, q - penalty[t], 0.0)).sum(axis=-1)

    Q_phi, V_phi = _policy_values(mdp, np.stack(list(phis), axis=1), probs)
    Q_r, V_r = _backward(mdp.kernels, np.stack(list(rewards), axis=1), expected_regularized)
    for k, pi in enumerate(policies):
        Q, V = feature_values(mdp, phis[k], pi)
        assert np.array_equal(Q, Q_phi[:, k]) and np.array_equal(V, V_phi[:, k])
        evaluation = policy_evaluate(mdp, RewardTable(r=rewards[k]), pi, beta)
        assert np.array_equal(evaluation.Q, Q_r[:, k]) and np.array_equal(evaluation.V, V_r[:, k])
        assert evaluation.J == float(mdp.initial_dist @ V_r[0, k])
