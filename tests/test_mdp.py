"""Tests for MDP containers, occupancy propagation, sampling, and enumeration."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soft_irl import (
    Dataset,
    DimensionError,
    EmptyDatasetError,
    InputError,
    InvariantError,
    Mdp,
    Policy,
    empirical_feature_expectation,
    feature_advantage,
    feature_expectation,
    feature_values,
    forward_occupancy,
    sample_trajectories,
    solve_model,
    trajectory_log_prob,
    uniform_policy,
)
from soft_irl.experiments import InstanceSpec, generate_instance
from soft_irl.linear_reward import LinearRewardModel
from soft_irl.io import dataset_to_dict, to_json_text
from soft_irl.mdp import _inverse_cdf, _sample_counts, _split
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


def trajectory_probs(mdp, policy, states, actions):
    """Exact probability of each ``(states[i], actions[i])`` path: the product
    of its ``2T`` initial, policy and kernel factors."""
    n, T = states.shape
    factors = np.empty((n, 2 * T))
    factors[:, 0] = mdp.initial_dist[states[:, 0]]
    factors[:, 1::2] = policy.probs[np.arange(T), states, actions]
    for t in range(T - 1):
        factors[:, 2 * t + 2] = mdp.kernels[t][states[:, t], actions[:, t], states[:, t + 1]]
    return factors.prod(axis=1)


ENUMERATION_CAP = 2_000_000  # (S*A)**T paths at most, for the oracles below


def enumerate_support(mdp, policy):
    """Oracle: every positive-probability trajectory of ``policy``.

    Returns ``(states, actions, probs)`` with shapes ``(N, T)``, ``(N, T)``,
    ``(N,)``; probabilities are exact products of the model factors and sum to
    one.  Trajectories appear in lexicographic ``(s_0, a_0, s_1, ...)`` order.
    Only for instances with at most ``ENUMERATION_CAP`` paths.
    """
    assert (mdp.S * mdp.A) ** mdp.T <= ENUMERATION_CAP, "too many paths to enumerate"
    keep = mdp.initial_dist > 0.0
    states = np.nonzero(keep)[0][:, None]
    actions = np.empty((states.shape[0], 0), dtype=np.int64)
    probs = mdp.initial_dist[keep]

    for t in range(mdp.T):
        # branch over actions
        rows = policy.probs[t][states[:, -1]]  # (N, A)
        probs = (probs[:, None] * rows).reshape(-1)
        states = np.repeat(states, mdp.A, axis=0)
        actions = np.concatenate(
            [np.repeat(actions, mdp.A, axis=0), np.tile(np.arange(mdp.A), rows.shape[0])[:, None]],
            axis=1,
        )
        keep = probs > 0.0
        states, actions, probs = states[keep], actions[keep], probs[keep]
        if t < mdp.T - 1:
            # branch over successor states
            rows = mdp.kernels[t][states[:, -1], actions[:, -1]]  # (N, S)
            probs = (probs[:, None] * rows).reshape(-1)
            actions = np.repeat(actions, mdp.S, axis=0)
            states = np.concatenate(
                [np.repeat(states, mdp.S, axis=0), np.tile(np.arange(mdp.S), rows.shape[0])[:, None]],
                axis=1,
            )
            keep = probs > 0.0
            states, actions, probs = states[keep], actions[keep], probs[keep]

    return states, actions, probs


def max_cumulative_feature_norm(features, states, actions):
    """Oracle: max over the given paths and start times of ``||sum_{k>=t} phi_k||``."""
    gathered = features.phi[np.arange(states.shape[1])[None, :], states, actions]  # (N, T, d)
    suffix = np.cumsum(gathered[:, ::-1, :], axis=1)[:, ::-1, :]
    return float(np.sqrt((suffix**2).sum(axis=2)).max())


def max_score_norm(mdp, features, beta, thetas, states, actions):
    """Oracle: max trajectory-score norm ``||sum_t adv_t(s_t, a_t)||`` over the
    given paths and parameters."""
    best = 0.0
    for theta in thetas:
        model = LinearRewardModel(features=features, theta=np.asarray(theta, dtype=np.float64))
        adv = feature_advantage(mdp, features, solve_model(mdp, model, beta).pi_star)
        Z = adv[np.arange(states.shape[1])[None, :], states, actions].sum(axis=1)
        best = max(best, float(np.linalg.norm(Z, axis=1).max()))
    return best


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
    """Not a distribution, or not one float array (a mapping, a ragged list)."""
    for initial in ([0.7, 0.7], {"a": 1}, [[1.0], [0.0, 0.0]]):
        with pytest.raises(InvariantError, match="initial_dist"):
            Mdp(T=2, S=2, A=2, initial_dist=initial,
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


def test_builtin_instances_read_their_sizes():
    """The built-in builders read ``S``, ``A`` and ``T`` as counts before any
    array is made: a size that is not an integer >= 1 is a ``SoftIrlError``
    naming it, with no bare error and no warning.  The chain of one state and
    one action is valid; its one entry pays 0."""
    from soft_irl import SoftIrlError, deterministic_chain_instance, zero_reward_instance

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mdp, reward = deterministic_chain_instance(1, 1, 1)
        assert (mdp.S, mdp.A, mdp.T) == (1, 1, 1) and reward.r.tolist() == [[[0.0]]]
        cases = [
            (deterministic_chain_instance, (0, 2, 3), "S"),
            (deterministic_chain_instance, (2.5, 2, 3), "S"),
            (deterministic_chain_instance, (3, True, 3), "A"),
            (deterministic_chain_instance, (3, 2, 0), "T"),
            (zero_reward_instance, (0, 2, 3), "S"),
            (zero_reward_instance, (3, 2, "4"), "T"),
        ]
        for build, sizes, name in cases:
            with pytest.raises(SoftIrlError, match=f"{name} must be a positive integer"):
                build(*sizes)


def boundary_inputs():
    """The public array inputs that no test of their own covers, as two
    dicts, the fields of the frozen types and the inputs of functions: by
    name, the field, a valid value, whether some axis of its shape has a fixed
    size, and a call that reads a value in its place."""
    from soft_irl import (
        check_local_geometry,
        delta_terms,
        derivative_bundle,
        dikin_boundary_pair,
        effective_dimension,
        nonconvexity_probe,
        policy_evaluate,
        third_derivative,
    )

    inst = generate_instance(InstanceSpec(S=3, A=2, T=3, d=3, beta=0.7, seed=1))
    mdp, features, expert, beta = inst.mdp, inst.features, inst.expert, 0.7
    model = LinearRewardModel(features=features, theta=np.zeros(features.d))
    reward = RewardTable(r=np.ones((mdp.T, mdp.S, mdp.A)))
    data = sample_trajectories(mdp, expert, 4, seed=0)
    u = np.ones(features.d)
    fields = {name: getattr(mdp, name) for name in ("T", "S", "A", "initial_dist", "kernels", "ref_measure")}
    types = {
        f"Mdp.{name}": (name, fields[name], True, lambda x, name=name: Mdp(**dict(fields, **{name: x})))
        for name in ("initial_dist", "kernels", "ref_measure")
    }
    types["Policy.probs"] = ("probs", expert.probs, False, lambda x: Policy(probs=x))
    types["RewardTable.r"] = ("r", reward.r, False, lambda x: RewardTable(r=x))
    functions = {
        "feature_expectation.features": (
            "features", features.phi, True, lambda x: feature_expectation(mdp, expert, x)
        ),
        "third_derivative.xi": ("xi", u, True, lambda x: third_derivative(mdp, model, beta, x, u, u)),
        "third_derivative.zeta": ("zeta", u, True, lambda x: third_derivative(mdp, model, beta, u, x, u)),
        "third_derivative.omega": ("omega", u, True, lambda x: third_derivative(mdp, model, beta, u, u, x)),
        "effective_dimension.H_star": (
            "H_star",
            derivative_bundle(mdp, model, beta).hessian,
            True,
            lambda x: effective_dimension(mdp, features, expert, x),
        ),
        "delta_terms.V": (
            "V",
            policy_evaluate(mdp, reward, expert, beta).V,
            True,
            lambda x: delta_terms(mdp, x, data.states, data.actions),
        ),
        "nonconvexity_probe.theta_a": ("theta_a", np.array([2.0, 4.0]), True, lambda x: nonconvexity_probe(theta_a=x)),
        "nonconvexity_probe.theta_b": ("theta_b", np.array([-4.0, 2.0]), True, lambda x: nonconvexity_probe(theta_b=x)),
        "check_local_geometry.theta0": (
            "theta0", 0.1 * u, True, lambda x: check_local_geometry(mdp, features, beta, x, -0.1 * u)
        ),
        "check_local_geometry.theta1": (
            "theta1", -0.1 * u, True, lambda x: check_local_geometry(mdp, features, beta, 0.1 * u, x)
        ),
        "dikin_boundary_pair.theta0": (
            "theta0", 0.1 * u, True, lambda x: dikin_boundary_pair(mdp, features, beta, x, u)
        ),
    }
    return types, functions


def malformed(good: np.ndarray, case: str):
    """``good`` made into a value no array reader may accept."""
    if case == "mapping":
        return {"a": 1}
    if case == "ragged":  # the first entry one level deeper than the rest
        ragged = good.tolist()
        ragged[0] = [ragged[0]]
        return ragged
    if case == "strings":  # numbers numpy would parse
        return good.astype(str).tolist()
    if case == "flags":
        return good != 0.0
    if case == "nan":
        bad = good.copy()
        bad.flat[0] = np.nan
        return bad
    if case == "rank":
        return good[None]
    return np.pad(good, [(0, 1)] * good.ndim)  # "size": every axis one longer


TYPE_FIELDS, FUNCTION_INPUTS = boundary_inputs()
BOUNDARY_INPUTS = TYPE_FIELDS | FUNCTION_INPUTS
MALFORMED_CASES = [
    (name, case)
    for name, (_, _, sized, _) in BOUNDARY_INPUTS.items()
    for case in ("mapping", "ragged", "strings", "flags", "nan", "rank", "size")
    if sized or case != "size"  # where every axis is named, any size is valid
]


@pytest.mark.parametrize("name, case", MALFORMED_CASES, ids=[f"{n}-{c}" for n, c in MALFORMED_CASES])
def test_array_inputs_reject_malformed_data(name, case):
    """Every public array input read through ``mdp._as_float_array`` turns
    malformed data into a ``SoftIrlError`` whose message starts with its
    field, with no bare numpy error, no warning and no NaN in a result."""
    from soft_irl import SoftIrlError

    field, good, _, call = BOUNDARY_INPUTS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SoftIrlError, match=f"^{field}: "):
            call(malformed(good, case))


@pytest.mark.parametrize("name", list(FUNCTION_INPUTS))
def test_functions_leave_the_callers_array_writeable(name):
    """A function reads an array input without changing the caller's flags."""
    _, good, _, call = FUNCTION_INPUTS[name]
    mine = good.copy()
    call(mine)
    assert mine.flags.writeable


@pytest.mark.parametrize("name", list(TYPE_FIELDS) + ["FeatureMap.phi", "LinearRewardModel.theta"])
def test_frozen_types_store_their_arrays_contiguous_and_read_only(name):
    """Each frozen type stores a float64 field C-contiguous and read-only: the
    caller's own array when it needs no conversion (which the store makes
    read-only), else a converted copy, leaving the caller's array as it was."""
    features = generate_instance(InstanceSpec(S=3, A=2, T=3, d=3, beta=0.7, seed=1)).features
    fields = {name: (field, good, build) for name, (field, good, _, build) in TYPE_FIELDS.items()}
    fields["FeatureMap.phi"] = ("phi", features.phi, lambda x: type(features)(phi=x))
    fields["LinearRewardModel.theta"] = (
        "theta", np.zeros(3), lambda x: LinearRewardModel(features=features, theta=x)
    )
    field, good, build = fields[name]
    mine = good.copy()
    assert getattr(build(mine), field) is mine and not mine.flags.writeable
    strided = np.repeat(good, 2, axis=-1)[..., ::2]
    for other in (strided, good.tolist()):
        stored = getattr(build(other), field)
        assert stored is not other and stored.dtype == np.float64
        assert stored.flags.c_contiguous and not stored.flags.writeable
        np.testing.assert_array_equal(stored, good)
        assert not isinstance(other, np.ndarray) or other.flags.writeable


def scalar_inputs():
    """Every public entry point that takes the temperature, and
    ``LinearRewardModel.B_theta``: by name, the field its message names, the
    edge cases it accepts, and a call that reads a value in its place."""
    from soft_irl import (
        FitConfig,
        check_concentration,
        check_local_geometry,
        derivative_bundle,
        dikin_boundary_pair,
        equivalence_report,
        fit_empirical,
        fit_population,
        geometry_constants,
        irl_empirical_loss,
        irl_population_loss,
        nonconvexity_probe,
        policy_evaluate,
        return_decomposition,
        score,
        shaping_projector,
        soft_optimal_residuals,
        third_derivative,
        variance_decomposition,
    )

    inst = generate_instance(InstanceSpec(S=3, A=2, T=3, d=3, beta=0.7, seed=1))
    mdp, features, expert = inst.mdp, inst.features, inst.expert
    model = LinearRewardModel(features=features, theta=np.zeros(features.d))
    reward = RewardTable(r=np.ones((mdp.T, mdp.S, mdp.A)))
    data = sample_trajectories(mdp, expert, 4, seed=0)
    u = np.ones(features.d)
    solved = {  # through soft_backward, so beta > 0
        "soft_backward": lambda b: soft_backward(mdp, reward, b),
        "solve_model": lambda b: solve_model(mdp, model, b),
        "derivative_bundle": lambda b: derivative_bundle(mdp, model, b),
        "score": lambda b: score(mdp, model, b, data),
        "third_derivative": lambda b: third_derivative(mdp, model, b, u, u, u),
        "geometry_constants": lambda b: geometry_constants(mdp, features, model, b),
        "irl_empirical_loss": lambda b: irl_empirical_loss(mdp, model, b, data),
        "irl_population_loss": lambda b: irl_population_loss(mdp, model, b, expert),
        "soft_optimal_residuals": lambda b: soft_optimal_residuals(mdp, model, b, data),
        "equivalence_report": lambda b: equivalence_report(mdp, model, b, data, expert),
        "nonconvexity_probe": lambda b: nonconvexity_probe(beta=b),
        # these make their own value pass (the fitter's at its start), not
        # a soft_backward, and must fail there as it does
        "check_local_geometry": lambda b: check_local_geometry(mdp, features, b, 0 * u, 0.1 * u),
        "dikin_boundary_pair": lambda b: dikin_boundary_pair(mdp, features, b, 0 * u, u),
        "fit_empirical": lambda b: fit_empirical(mdp, features, data, FitConfig(beta=b)),
        "fit_population": lambda b: fit_population(mdp, features, expert, FitConfig(beta=b)),
        "check_concentration": lambda b: check_concentration(mdp, features, b, expert, 4, trials=2),
    }
    huge_valid = {"nonconvexity_probe"}  # T = 2 and A = 2: 1e308 * T * log A is a float
    evaluated = {  # through policy_evaluate, so beta >= 0
        "policy_evaluate": lambda b: policy_evaluate(mdp, reward, expert, b),
        "shaping_projector": lambda b: shaping_projector(mdp, reward, expert, b),
        "variance_decomposition": lambda b: variance_decomposition(mdp, reward, expert, b),
        "return_decomposition": lambda b: return_decomposition(mdp, reward, expert, b, data),
    }
    inputs = {
        name: ("beta", ("huge",) if name in huge_valid else (), call)
        for name, call in solved.items()
    }
    inputs |= {name: ("beta", ("zero",), call) for name, call in evaluated.items()}
    inputs["LinearRewardModel.B_theta"] = (
        "B_theta", ("inf", "huge", "max"),
        lambda b: LinearRewardModel(features=features, theta=u, B_theta=b),
    )
    return inputs


SCALAR_INPUTS = scalar_inputs()
SCALAR_CASES = {"string": "1", "true": True, "false": False, "nan": np.nan, "inf": np.inf,
                "negative": -1.0, "zero": 0.0, "huge": 1e308, "max": np.finfo(float).max}


@pytest.mark.parametrize("case", list(SCALAR_CASES))
@pytest.mark.parametrize("name", list(SCALAR_INPUTS))
def test_scalar_inputs_reject_malformed_values(name, case):
    """The temperature and ``B_theta`` are read by ``mdp._check_real``: a
    string, a flag, a NaN, an infinity or a number below the domain is a
    ``SoftIrlError`` naming the field, with no bare error and no warning.
    So is a finite temperature whose values leave the float range (``beta =
    1e308`` makes ``beta * T * log A`` one, on this instance, and the largest
    float does too).  ``beta = 0`` is valid exactly where a policy is
    evaluated, and ``B_theta = inf`` is no ball."""
    from soft_irl import SoftIrlError

    field, valid, call = SCALAR_INPUTS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if case in valid:
            call(SCALAR_CASES[case])
            return
        with pytest.raises(SoftIrlError, match=field):
            call(SCALAR_CASES[case])


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=-8.0, max_value=8.0),
    st.floats(min_value=-3.0, max_value=16.0),
    st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
    st.booleans(),
)
def test_extreme_temperatures_and_rewards_give_finite_values_or_a_typed_error(
    log_beta, log_norm, direction, deterministic
):
    """At a temperature log-uniform in [1e-8, 1e8] and a parameter of norm up
    to 1e16 (or 0, for a zero direction), on an instance with stochastic or
    with deterministic dynamics (one-hot kernel rows and start, so most
    entries have probability zero), every public solve, derivative,
    divergence, loss and fit returns finite values or raises a
    ``SoftIrlError``, with no ``RuntimeWarning``.  The one exception is a
    trajectory KL or a likelihood loss of ``+inf``, exactly where the first
    law puts mass on an entry the second gives none: at a large parameter
    the Gibbs policy underflows to 0 on actions the expert takes."""
    from soft_irl import (
        FitConfig,
        SoftIrlError,
        derivative_bundle,
        fit_population,
        irl_empirical_loss,
        irl_population_loss,
        mle_loss,
        mle_population_loss,
        third_derivative,
        trajectory_hellinger,
        trajectory_kl,
    )

    spec = InstanceSpec(S=3, A=2, T=3, d=3, beta=0.7, seed=1, deterministic=deterministic)
    inst = generate_instance(spec)
    mdp, features, expert = inst.mdp, inst.features, inst.expert
    data = sample_trajectories(mdp, expert, 8, seed=0)
    beta, u = 10.0**log_beta, np.array(direction, dtype=float)
    theta = u * (10.0**log_norm / np.linalg.norm(u)) if u.any() else u
    model = LinearRewardModel(features=features, theta=theta)

    def lacks(p, q):
        """Whether ``p`` puts mass on an entry, reachable under ``p``, that ``q`` gives none."""
        return bool(((forward_occupancy(mdp, p) > 0.0) & (q.probs == 0.0)).any())

    def divergences():  # (value, whether +inf is allowed)
        pi = solve_model(mdp, model, beta).pi_star
        taken = pi.probs[np.arange(mdp.T), data.states, data.actions]
        return [
            (trajectory_kl(mdp, expert, pi), lacks(expert, pi)),
            (trajectory_kl(mdp, pi, expert), lacks(pi, expert)),
            (trajectory_hellinger(mdp, expert, pi), False),
            (mle_population_loss(mdp, pi, expert), lacks(expert, pi)),
            (mle_loss(mdp, pi, data), bool((taken == 0.0).any())),
        ]

    def finite(values):
        return lambda: [(value, False) for value in values()]

    def solution():
        solved = solve_model(mdp, model, beta)
        return [solved.V, solved.Q, solved.pi_star.probs, solved.J_star]

    def bundle():
        bundle = derivative_bundle(mdp, model, beta)
        return [bundle.J_star, bundle.grad, bundle.hessian]

    def fit():
        result = fit_population(mdp, features, expert, FitConfig(beta=beta))
        return [result.theta_hat, result.final_loss, result.final_decrement,
                result.gradient_norm, result.hessian_at_solution]

    calls = {
        "solve_model": finite(solution),
        "derivative_bundle": finite(bundle),
        "third_derivative": finite(lambda: [third_derivative(mdp, model, beta, *np.eye(3))]),
        "irl losses": finite(lambda: [irl_population_loss(mdp, model, beta, expert),
                                      irl_empirical_loss(mdp, model, beta, data)]),
        "divergences": divergences,
        "fit_population": finite(fit),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name, call in calls.items():
            try:
                values = call()
            except SoftIrlError:
                continue
            for value, may_be_inf in values:
                value = np.asarray(value)
                assert np.isfinite(value).all() or (may_be_inf and value == np.inf), name


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


STREAM_SEEDS = (0, 1, 7, 2**32 + 5, 14449357594836781232, 2**64 - 1, 2**100 + 3, 2**200 + 11)


def test_sampling_prefix_stability():
    """The first k trajectories do not depend on n: the stream fills one row
    of uniforms per trajectory, in order."""
    rng = np.random.default_rng(8)
    mdp = random_mdp(rng)
    policy = random_policy(rng, mdp)
    for seed in STREAM_SEEDS:
        large = sample_trajectories(mdp, policy, 50, seed)
        for k in (1, 10):
            small = sample_trajectories(mdp, policy, k, seed)
            np.testing.assert_array_equal(small.states, large.states[:k])
            np.testing.assert_array_equal(small.actions, large.actions[:k])


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


# (seed, n, row, states, actions) sampled from the expert of the rates instance
# from the stream ``Generator(PCG64(seed)).random((n, 2T))``; any change to the
# stream must show up here.
PINNED_ROWS = [
    (1, 1024, 0, [1, 0, 2, 4], [2, 2, 0, 2]),
    (1, 1024, 1, [1, 2, 1, 1], [0, 0, 1, 2]),
    (1, 1024, 2, [0, 1, 2, 3], [1, 0, 0, 2]),
    (1, 1024, 1023, [1, 1, 1, 2], [0, 0, 1, 1]),
    (0, 300, 0, [1, 0, 4, 2], [0, 0, 1, 1]),
    (0, 300, 299, [1, 1, 3, 1], [2, 0, 0, 2]),
    (2**64 - 1, 300, 150, [3, 4, 2, 1], [2, 1, 0, 2]),
    (2**64 - 1, 300, 299, [3, 0, 1, 4], [2, 2, 1, 2]),
    (2**200 + 11, 300, 0, [1, 2, 0, 0], [0, 0, 1, 0]),
    (2**200 + 11, 300, 299, [4, 2, 1, 1], [0, 0, 1, 2]),
]


def test_sampling_reproduces_pinned_rows():
    instance = generate_instance(InstanceSpec(S=5, A=3, T=4, d=6, beta=0.5, seed=5))
    for seed, n, row, states, actions in PINNED_ROWS:
        data = sample_trajectories(instance.mdp, instance.expert, n, seed)
        assert data.states[row].tolist() == states, (seed, row)
        assert data.actions[row].tolist() == actions, (seed, row)


# (row, states, actions) of the fit_large benchmark data: seed 1, n = 4096,
# from the expert of the S50 A10 T20 instance below.  These pin the sampler on
# 50-wide kernel rows and 10-wide policy rows over twenty steps.
WIDE_PINNED_ROWS = [
    (0, [25, 11, 14, 37, 21, 37, 13, 16, 6, 9, 40, 27, 46, 25, 10, 21, 35, 29, 5, 21],
     [0, 5, 4, 6, 3, 1, 3, 0, 7, 3, 3, 9, 9, 6, 9, 5, 7, 4, 4, 7]),
    (1, [30, 21, 43, 29, 7, 30, 10, 12, 39, 43, 10, 37, 42, 11, 41, 11, 46, 26, 36, 40],
     [3, 0, 0, 9, 9, 4, 4, 9, 6, 1, 8, 7, 3, 7, 5, 1, 2, 5, 2, 9]),
    (2047, [21, 15, 4, 40, 29, 36, 5, 29, 33, 4, 2, 32, 40, 49, 1, 46, 25, 24, 45, 11],
     [7, 3, 9, 6, 3, 6, 7, 9, 9, 0, 1, 6, 9, 5, 6, 1, 1, 1, 5, 7]),
    (4095, [30, 36, 3, 46, 20, 22, 13, 11, 20, 1, 38, 30, 31, 9, 28, 17, 1, 42, 2, 26],
     [3, 2, 9, 8, 4, 1, 3, 1, 0, 5, 5, 7, 8, 5, 0, 3, 7, 2, 2, 6]),
]


def test_sampling_reproduces_wide_pinned_rows():
    instance = generate_instance(InstanceSpec(S=50, A=10, T=20, d=50, beta=0.5, seed=11))
    data = sample_trajectories(instance.mdp, instance.expert, 4096, 1)
    for row, states, actions in WIDE_PINNED_ROWS:
        assert data.states[row].tolist() == states, row
        assert data.actions[row].tolist() == actions, row


def reference_samples(mdp, policy, n, seed):
    """``(states, actions)`` by the per-draw formula: gather each draw's row,
    take its running totals, count those at or below the uniform and clamp to
    the last index; row ``i`` of ``Generator(PCG64(seed)).random((n, 2T))``
    holds trajectory ``i``'s uniforms.

    ``sample_trajectories`` sums each table row once per call and caps draws at
    the row's last positive entry.  The two differ only where this formula is
    wrong: a uniform at or above a row's rounded total, with zero mass after
    it, here draws a zero-mass entry (``test_draw_from_a_row_short_of_one``).
    """
    u = np.random.Generator(np.random.PCG64(seed)).random((n, 2 * mdp.T))

    def draw(rows, uniforms):
        cum = np.cumsum(rows, axis=1)
        return np.minimum((cum <= uniforms[:, None]).sum(axis=1), rows.shape[1] - 1)

    states = np.empty((n, mdp.T), dtype=np.int64)
    actions = np.empty((n, mdp.T), dtype=np.int64)
    s = draw(np.broadcast_to(mdp.initial_dist, (n, mdp.S)), u[:, 0])
    for t in range(mdp.T):
        states[:, t] = s
        a = draw(policy.probs[t][s], u[:, 2 * t + 1])
        actions[:, t] = a
        if t < mdp.T - 1:
            s = draw(mdp.kernels[t][s, a], u[:, 2 * t + 2])
    return states, actions


def sparse_distributions(rng, shape):
    """Random distributions along the last axis of ``shape``, about half of
    each row's entries zero and at least one positive."""
    x = rng.random(shape) * (rng.random(shape) < 0.5)
    keep = rng.integers(shape[-1], size=shape[:-1])
    np.put_along_axis(x, keep[..., None], 1.0 + rng.random(shape[:-1])[..., None], axis=-1)
    return x / x.sum(axis=-1, keepdims=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
       st.booleans(), st.integers(min_value=1, max_value=300),
       st.one_of(st.integers(min_value=0, max_value=2**64 - 1),
                 st.integers(min_value=2**128, max_value=2**200)))
def test_sampling_matches_the_per_draw_reference_property(rng_seed, S, A, T, deterministic, n, seed):
    """States and actions equal ``reference_samples``' exactly, on random MDPs
    and policies with zero-mass entries and on deterministic kernels under a
    one-hot policy; ``T = 1`` (no kernels), ``S = 1``, ``A = 1`` and seeds of
    more than four 32-bit words are in range."""
    rng = np.random.default_rng(rng_seed)
    if deterministic:
        mdp = random_mdp(rng, S=S, A=A, T=T, deterministic=True)
        policy = Policy(probs=np.eye(A)[rng.integers(A, size=(T, S))])
    else:
        mdp = Mdp(T=T, S=S, A=A, initial_dist=sparse_distributions(rng, (S,)),
                  kernels=sparse_distributions(rng, (T - 1, S, A, S)), ref_measure=np.ones(A))
        policy = Policy(probs=sparse_distributions(rng, (T, S, A)))
    data = sample_trajectories(mdp, policy, n, seed)
    states, actions = reference_samples(mdp, policy, n, seed)
    np.testing.assert_array_equal(data.states, states)
    np.testing.assert_array_equal(data.actions, actions)


def test_draw_from_a_row_short_of_one():
    """This row passes the distribution check, but its running total rounds to
    ``1 - 2**-53``, the largest uniform.  The draw is its last positive entry,
    not the zero after it."""
    row = np.array([[0.20381898702851367, 0.7463113329614236, 0.049869680010062596, 0.0]])
    Policy(probs=row[None])
    assert np.cumsum(row)[-1] == 1 - 2**-53
    assert _inverse_cdf(row, np.zeros(1, dtype=np.int64), np.array([1 - 2**-53])).tolist() == [2]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.just(0.0) | st.floats(min_value=1e-3, max_value=1.0),
                min_size=1, max_size=6).filter(any),
       st.integers(min_value=1, max_value=4), st.floats(min_value=1 - 1e-12, max_value=1.0),
       st.floats(min_value=0.0, max_value=1 - 2**-53))
def test_draws_have_positive_mass_property(weights, zeros, scale, u):
    """A row with trailing zeros, whose total may be short of 1 by up to the
    distribution check's tolerance, never yields a zero-mass index, for any
    uniform the stream can emit."""
    row = np.concatenate([np.asarray(weights) / np.sum(weights) * scale, np.zeros(zeros)])
    index = _inverse_cdf(row[None, :], np.zeros(1, dtype=np.int64), np.array([u]))[0]
    assert row[index] > 0.0


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
# visit counts drawn by multinomial splitting


def exact_count_law(mdp, policy, n):
    """Oracle: the law of the ``(T, S, A)`` visit-count table of ``n`` i.i.d.
    trajectories, as a dict from the flattened table to its probability; the
    ``n``-fold convolution of the enumerated path law."""
    states, actions, probs = enumerate_support(mdp, policy)
    cells = (np.arange(mdp.T) * mdp.S + states) * mdp.A + actions
    law = {(0,) * (mdp.T * mdp.S * mdp.A): 1.0}
    for _ in range(n):
        step = {}
        for table, p in law.items():
            for path, q in zip(cells.tolist(), probs):
                counts = list(table)
                for cell in path:
                    counts[cell] += 1
                key = tuple(counts)
                step[key] = step.get(key, 0.0) + p * q
        law = step
    return law


CHI2_LEVEL = 1e-3  # fixed before the first run


@pytest.mark.parametrize("S, A, T, n", [(2, 2, 2, 4), (2, 2, 3, 2)])
def test_count_table_follows_its_exact_law(S, A, T, n):
    """Chi-square of 10 000 drawn count tables against the enumerated law;
    tables expected fewer than 5 times are pooled into one bin."""
    import scipy.stats

    rng = np.random.default_rng(100 * S + 10 * T + n)
    mdp = random_mdp(rng, S=S, A=A, T=T)
    policy = random_policy(rng, mdp)
    law = exact_count_law(mdp, policy, n)
    draws = 10_000
    observed = {}
    for seed in range(draws):
        key = tuple(_sample_counts(mdp, policy, n, seed).ravel().tolist())
        assert key in law, "a count table outside the support"
        observed[key] = observed.get(key, 0) + 1
    keys = sorted(law, key=law.get, reverse=True)
    expected = np.array([draws * law[k] for k in keys])
    counts = np.array([observed.get(k, 0) for k in keys])
    big = expected >= 5.0
    expected = np.r_[expected[big], expected[~big].sum()]
    counts = np.r_[counts[big], counts[~big].sum()]
    assert big.sum() >= 10 and expected[-1] >= 5.0
    statistic = float(((counts - expected) ** 2 / expected).sum())
    assert scipy.stats.chi2.sf(statistic, len(expected) - 1) >= CHI2_LEVEL


COUNT_Z = 4.0  # fixed before the first run


def test_count_feature_averages_have_the_exact_mean_and_covariance():
    """Over 4000 replicates at n = 64, the mean of the feature average and
    ``n`` times its covariance match the exact ``phi*`` and ``Sigma_E``, each
    entry within ``COUNT_Z`` standard errors of its replicate average."""
    from soft_irl import FeatureMap, effective_dimension

    rng = np.random.default_rng(31)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    policy = random_policy(rng, mdp)
    features = FeatureMap(phi=rng.normal(size=(mdp.T, mdp.S, mdp.A, 3)))
    phi_star = feature_expectation(mdp, policy, features)
    sigma = effective_dimension(mdp, features, policy, np.eye(3)).Sigma_E
    n, reps = 64, 4000
    flat = features.phi.reshape(-1, 3)
    averages = np.array(
        [_sample_counts(mdp, policy, n, seed).ravel() @ flat / n for seed in range(reps)]
    )
    se = averages.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(averages.mean(axis=0) - phi_star) <= COUNT_Z * se)
    centred = averages - phi_star
    products = n * centred[:, :, None] * centred[:, None, :]
    se = products.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(products.mean(axis=0) - sigma) <= COUNT_Z * se)


def sparse_rows(rng, shape, deterministic):
    """Distributions over the last axis: one-hot rows, or rows with a random
    set of exact zeros, some entries near 1e-300 and the rest of order one."""
    if deterministic:
        return np.eye(shape[-1])[rng.integers(shape[-1], size=shape[:-1])]
    scale = rng.choice([0.0, 1e-300, 1.0], p=[0.3, 0.2, 0.5], size=shape)
    weights = rng.random(shape) * scale
    empty = weights.sum(axis=-1) == 0.0
    weights[empty, rng.integers(shape[-1], size=int(empty.sum()))] = 1.0
    return weights / weights.sum(axis=-1, keepdims=True)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
       st.booleans(), st.integers(min_value=1, max_value=63),
       st.integers(min_value=0, max_value=2**64 - 1))
def test_counts_never_land_on_an_entry_of_probability_zero_property(
    rng_seed, S, A, T, deterministic, log_n, seed
):
    """On deterministic and low-coverage instances, with rows whose last
    entries are exact zeros and ``n = 2**log_n - 1`` up to ``2**63 - 1``, every
    step holds ``n`` visits and each lies on a reachable entry of positive
    probability.  At ``n = 2**62``, numpy's multinomial alone leaves counts on
    such zeros in about one S3 A3 T3 instance of five."""
    n = 2**log_n - 1
    rng = np.random.default_rng(rng_seed)
    mdp = Mdp(
        T=T, S=S, A=A,
        initial_dist=sparse_rows(rng, (S,), deterministic),
        kernels=sparse_rows(rng, (T - 1, S, A, S), deterministic),
        ref_measure=np.ones(A),
    )
    policy = Policy(probs=sparse_rows(rng, (T, S, A), deterministic))
    counts = _sample_counts(mdp, policy, n, seed)
    assert np.all(counts >= 0) and np.all(counts.sum(axis=(1, 2)) == n)
    reach = mdp.initial_dist > 0.0
    for t in range(T):
        allowed = reach[:, None] & (policy.probs[t] > 0.0)
        assert not np.any(counts[t][~allowed])
        if t < T - 1:
            reach = np.any(allowed[:, :, None] & (mdp.kernels[t] > 0.0), axis=(0, 1))


def test_counts_left_on_a_zero_last_column_move_to_the_last_positive_entry():
    """numpy's multinomial gives its last column what its binomials leave over;
    at n = 2**62 the rounding of the running remainder leaves counts on a zero
    last column.  The sampler moves them to the row's last positive entry."""
    table = np.concatenate(
        [np.random.default_rng(3).dirichlet(np.ones(3), size=200), np.zeros((200, 2))], axis=1
    )
    raw = np.random.Generator(np.random.PCG64(0)).multinomial(2**62, table)
    assert raw[:, 3:].any()
    kept = _split(np.random.Generator(np.random.PCG64(0)), 2**62, table)
    assert not kept[:, 3:].any()
    np.testing.assert_array_equal(kept[:, :2], raw[:, :2])
    np.testing.assert_array_equal(kept[:, 2], raw[:, 2:].sum(axis=1))


def test_a_replicates_counts_depend_only_on_its_seed():
    rng = np.random.default_rng(12)
    mdp = random_mdp(rng)
    policy = random_policy(rng, mdp)
    seeds = [0, 1, 2**40 + 7, 2**64 - 1]
    first = [_sample_counts(mdp, policy, 1000, seed) for seed in seeds]
    again = [_sample_counts(mdp, policy, 1000, seed) for seed in reversed(seeds)][::-1]
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert len({a.tobytes() for a in first}) == len(seeds)


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
    np.testing.assert_allclose(trajectory_probs(mdp, policy, states, actions), probs,
                               rtol=1e-13)


def test_enumeration_order_is_lexicographic():
    rng = np.random.default_rng(15)
    mdp = random_mdp(rng, S=2, A=2, T=2)
    states, actions, _ = enumerate_support(mdp, uniform_policy(mdp))
    interleaved = np.stack([states[:, 0], actions[:, 0], states[:, 1], actions[:, 1]], axis=1)
    assert (np.diff([tuple(row) for row in interleaved], axis=0) != 0).any(axis=1).all()
    order = np.lexsort(interleaved.T[::-1])
    np.testing.assert_array_equal(order, np.arange(len(order)))


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
    assert np.all(trajectory_probs(mdp, pi2, states, actions) > 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=3), st.booleans(), st.sampled_from([0.3, 0.9, 2.5]))
def test_path_maxima_match_enumeration_property(rng_seed, S, A, T, d, deterministic, beta):
    """The max-plus sup constants against enumeration of every path the MDP
    can take, on kernels and initial distributions with zero-mass entries, on
    deterministic kernels, and at ``T = 1``, ``S = 1`` and ``A = 1``.  The
    density ratio, as two path maxima and as ``check_local_geometry``
    reports it where the Hessian at ``theta0`` is definite, equals the
    enumerated maximum to 1e-12 relative; ``B_A_phi`` (of the constants and
    of the checked segment) and ``B_phi`` are never below the enumerated
    maxima, and ``B_A_phi`` is at most ``2 T B_phi``."""
    from soft_irl import FeatureMap, check_local_geometry, geometry_constants
    from soft_irl.soft_dp import _log_gibbs, _path_max

    rng = np.random.default_rng(rng_seed)
    if deterministic:
        mdp = random_mdp(rng, S=S, A=A, T=T, deterministic=True)
    else:
        mdp = Mdp(T=T, S=S, A=A, initial_dist=sparse_distributions(rng, (S,)),
                  kernels=sparse_distributions(rng, (T - 1, S, A, S)), ref_measure=np.ones(A))
    features = FeatureMap(phi=rng.normal(size=(T, S, A, d)))
    theta0, theta1 = rng.normal(size=d), 2.0 * rng.normal(size=d)
    states, actions, _ = enumerate_support(mdp, uniform_policy(mdp))
    steps = np.arange(T)[None, :]

    tol = 1e-12
    model0 = LinearRewardModel(features=features, theta=theta0)
    constants = geometry_constants(mdp, features, model0, beta, theta_grid=[theta1])
    exact_B_phi = max_cumulative_feature_norm(features, states, actions)
    exact_B_A_phi = max_score_norm(mdp, features, beta, [theta0, theta1], states, actions)
    assert constants.B_phi >= exact_B_phi * (1.0 - tol)
    assert constants.B_A_phi >= exact_B_A_phi * (1.0 - tol)
    assert constants.B_A_phi <= 2 * T * constants.B_phi * (1.0 + tol)

    solutions = [solve_model(mdp, LinearRewardModel(features=features, theta=theta), beta)
                 for theta in (theta0, theta1)]
    log_ratio = _log_gibbs(mdp, beta, solutions[1].Q) - _log_gibbs(mdp, beta, solutions[0].Q)
    exact_ratio = float(np.abs(log_ratio[steps, states, actions].sum(axis=1)).max())
    path_ratio = max(float(_path_max(mdp, log_ratio[:, None])[0]),
                     float(_path_max(mdp, -log_ratio[:, None])[0]))
    assert path_ratio == pytest.approx(exact_ratio, rel=tol, abs=tol)
    if constants.lambda_star > 1e-6:  # check_local_geometry needs a definite Hessian
        report = check_local_geometry(mdp, features, beta, theta0, theta1)
        ratio = report.checks[0]
        assert ratio.name == "density_ratio"
        assert ratio.value == pytest.approx(exact_ratio, rel=tol, abs=tol)
        segment = [theta0 + a * (theta1 - theta0) for a in np.linspace(0.0, 1.0, 17)]
        exact_segment = max_score_norm(mdp, features, beta, segment, states, actions)
        assert report.B_A_phi >= exact_segment * (1.0 - tol)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, "ragged", "mapping", "strings", "flags"])
@pytest.mark.parametrize(
    "reader", ["feature_expectation", "empirical_feature_expectation", "feature_values", "feature_advantage"]
)
def test_raw_features_must_be_finite(reader, bad):
    """A NaN or infinite entry of a raw feature array is an ``InvariantError``,
    not a NaN in the result; so is a ragged raw feature list, not numpy's
    ``ValueError``, a mapping, not numpy's ``TypeError``, and strings or
    flags, which a feature file may not hold either."""
    rng = np.random.default_rng(24)
    mdp = random_mdp(rng, S=3, A=2, T=3)
    policy = uniform_policy(mdp)
    phi = rng.normal(size=(mdp.T, mdp.S, mdp.A, 2))
    if bad == "ragged":
        phi = phi.tolist()
        phi[1][2][0] = [0.0]
        message = "features: cannot be read as one array"
    elif bad == "mapping":
        phi = {"a": 1}
        message = "features: cannot be read as one array"
    elif bad in ("strings", "flags"):
        phi = phi.astype(str).tolist() if bad == "strings" else phi > 0.0
        message = "features: expected a nested array of numbers"
    else:
        phi[1, 2, 0, 1] = bad
        message = "features: entries must be finite"
    read = {
        "feature_expectation": lambda: feature_expectation(mdp, policy, phi),
        "empirical_feature_expectation": lambda: empirical_feature_expectation(
            sample_trajectories(mdp, policy, 8, seed=0), phi
        ),
        "feature_values": lambda: feature_values(mdp, phi, policy),
        "feature_advantage": lambda: feature_advantage(mdp, phi, policy),
    }[reader]
    with pytest.raises(InvariantError, match=message):
        read()


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
