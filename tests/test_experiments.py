"""Tests for instance generation, geometry/concentration checks and rates."""

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from soft_irl import (
    Dataset,
    DimensionError,
    DomainError,
    FeatureMap,
    FitConfig,
    GeometryCheck,
    GeometryCheckReport,
    InputError,
    InvariantError,
    InstanceSpec,
    Policy,
    RATE_METRICS,
    RateConfig,
    check_concentration,
    check_local_geometry,
    chi,
    derivative_bundle,
    dikin_boundary_pair,
    empirical_feature_expectation,
    feature_advantage,
    feature_expectation,
    fit_empirical,
    fit_population,
    generate_instance,
    kernel_basis,
    psi,
    run_rate_experiment,
    sample_trajectories,
    solve_model,
    trajectory_hellinger,
    trajectory_kl,
    trajectory_log_prob,
    uniform_policy,
)
from soft_irl.experiments import _SEGMENT_POINTS, _cell_seed, _exp, _spawn_rng
from soft_irl.mdp import _occupancy_average, _sample_counts
from soft_irl.linear_reward import LinearRewardModel, _dikin_radius, _score_bound
from soft_irl.soft_dp import _log_gibbs, _path_max

from test_mdp import enumerate_support, trajectory_probs

TINY = InstanceSpec(S=3, A=2, T=3, d=3, beta=0.7, seed=1)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# ---------------------------------------------------------------------------
# scalar bound helpers


def test_psi_chi_at_zero():
    assert psi(0.0) == 0.5
    assert chi(0.0) == 1.0


@pytest.mark.parametrize("x", [-3.0, -0.5, 0.7, 2.0])
def test_psi_chi_match_direct_formula(x):
    assert psi(x) == pytest.approx((math.exp(x) - x - 1.0) / x**2, rel=1e-14)
    assert chi(x) == pytest.approx(math.expm1(x) / x, rel=1e-14)


def test_psi_chi_branch_continuity():
    # probe points straddle the series/direct switch so closely that the true
    # function difference is ~1e-16; any gap visible here is branch error
    for f in (psi, chi):
        below = f(1e-4 * (1 - 1e-12))
        above = f(1e-4 * (1 + 1e-12))
        assert abs(above - below) <= 1e-11
    out = chi(np.array([-1.0, 0.0, 1.0]))
    assert out.shape == (3,) and out[1] == 1.0


def test_psi_chi_are_infinite_past_the_float_range():
    x = np.array([1.0, 709.0, 709.8, 1266.0, 1e5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p, c = psi(x), chi(x)
        assert psi(1266.0) == chi(1266.0) == math.inf
    assert np.all(np.isinf(p[2:])) and np.all(np.isinf(c[2:]))
    assert p[1] == pytest.approx(math.exp(709.0) / 709.0**2, rel=1e-12)
    assert c[1] == pytest.approx(math.exp(709.0) / 709.0, rel=1e-12)


def test_psi_chi_over_the_whole_float_range():
    """Over ``+-1e-300`` to ``+-1.7e308`` and ``+-inf``, no branch warns, both
    functions are non-negative and non-decreasing, with ``0`` at ``-inf`` and
    ``+inf`` at ``+inf``, and they match their series near 0.  A NaN, a
    string and a ragged list are typed errors naming ``x``."""
    grid = np.geomspace(1e-300, 1.7e308, 613)
    x = np.concatenate([[-np.inf], -grid[::-1], grid, [np.inf]])
    near = np.abs(x) <= 1e-3
    series = {
        psi: 0.5 + x[near] / 6.0 + x[near] ** 2 / 24.0 + x[near] ** 3 / 120.0,
        chi: 1.0 + x[near] / 2.0 + x[near] ** 2 / 6.0 + x[near] ** 3 / 24.0,
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (psi, chi):
            y = f(x)
            assert np.all(y >= 0.0) and np.all(y[1:] >= y[:-1])
            assert f(-np.inf) == 0.0 and f(np.inf) == math.inf
            # psi's direct branch cancels to about 2 eps / |x|: 4.4e-12 at the switch
            np.testing.assert_allclose(y[near], series[f], rtol=1e-11)
            with pytest.raises(DomainError, match="x"):
                f(np.nan)
            for bad in ("x", [1.0, [2.0]]):
                with pytest.raises(InvariantError, match="x"):
                    f(bad)


def test_chi_lower_bound_on_grid():
    S = np.linspace(0.0, 50.0, 501)
    assert np.all(chi(-S) >= 1.0 / (1.0 + S) - 1e-15)


@pytest.mark.parametrize("R", [0.5, 2.0])
def test_increasing_function_round_trip(R):
    # keep R*x <= 6 so inverting 1 - R*y stays well conditioned
    x = np.linspace(0.0, min(5.0, 6.0 / R), 101)
    y = x * chi(-R * x)  # equals (1 - exp(-R x)) / R, strictly increasing
    recovered = -np.log1p(-R * y) / R
    assert np.abs(recovered - x).max() <= 1e-12


# ---------------------------------------------------------------------------
# instance generation


def test_same_seed_identical_instance():
    a = generate_instance(TINY)
    b = generate_instance(TINY)
    np.testing.assert_array_equal(a.mdp.kernels, b.mdp.kernels)
    np.testing.assert_array_equal(a.mdp.initial_dist, b.mdp.initial_dist)
    np.testing.assert_array_equal(a.features.phi, b.features.phi)
    np.testing.assert_array_equal(a.expert.probs, b.expert.probs)
    np.testing.assert_array_equal(a.theta_expert, b.theta_expert)


def test_different_seed_different_instance():
    a = generate_instance(TINY)
    b = generate_instance(dataclasses.replace(TINY, seed=2))
    assert not np.array_equal(a.mdp.kernels, b.mdp.kernels)


def test_deterministic_flag_gives_one_hot_rows():
    inst = generate_instance(dataclasses.replace(TINY, deterministic=True))
    kernels = inst.mdp.kernels
    assert np.isin(kernels, (0.0, 1.0)).all()
    np.testing.assert_array_equal(kernels.sum(axis=-1), np.ones(kernels.shape[:-1]))
    assert np.isin(inst.mdp.initial_dist, (0.0, 1.0)).all()


def test_exclude_kernel_makes_hessian_definite():
    inst = generate_instance(TINY)
    model = LinearRewardModel(features=inst.features, theta=np.zeros(TINY.d))
    H = derivative_bundle(inst.mdp, model, TINY.beta).hessian
    assert float(np.linalg.eigvalsh(H).min()) > 1e-8


def test_a_spec_with_no_identifiable_draw_is_an_input_error():
    """S = 2, A = 2, T = 1 moves the law along S (A - 1) = 2 directions only, so
    every draw of d = 4 features has a Hessian kernel at zero."""
    with pytest.raises(InputError, match="could not draw identifiable features"):
        generate_instance(InstanceSpec(S=2, A=2, T=1, d=4))


def test_well_specified_expert_is_the_gibbs_policy_of_its_parameter():
    inst = generate_instance(TINY)
    assert inst.theta_expert is not None
    model = LinearRewardModel(features=inst.features, theta=inst.theta_expert)
    pi = solve_model(inst.mdp, model, TINY.beta).pi_star
    np.testing.assert_allclose(inst.expert.probs, pi.probs, atol=1e-15)


def test_random_softmax_expert_has_no_parameter():
    inst = generate_instance(dataclasses.replace(TINY, expert_kind="random_softmax"))
    assert inst.theta_expert is None
    np.testing.assert_allclose(inst.expert.probs.sum(axis=-1), 1.0, atol=1e-12)
    assert np.abs(inst.expert.probs - 1.0 / TINY.A).max() > 0.05


def test_unknown_expert_kind_rejected():
    with pytest.raises(InputError, match="expert_kind"):
        dataclasses.replace(TINY, expert_kind="greedy")


# ---------------------------------------------------------------------------
# local geometry


def _instance_pair(seed, boundary_factor):
    rng = np.random.default_rng(seed)
    inst = generate_instance(dataclasses.replace(TINY, seed=seed))
    theta0 = 0.5 * rng.normal(size=TINY.d)
    direction = rng.normal(size=TINY.d)
    theta1 = dikin_boundary_pair(
        inst.mdp, inst.features, TINY.beta, theta0, direction, boundary_factor=boundary_factor
    )
    return inst, theta0, theta1


def test_geometry_equal_parameters_all_zero():
    inst = generate_instance(TINY)
    theta = np.full(TINY.d, 0.3)
    report = check_local_geometry(inst.mdp, inst.features, TINY.beta, theta, theta)
    assert report.mode == "local"
    assert report.delta_h0_norm == 0.0
    for check in report.checks:
        assert check.passed
        if check.name != "hessian_sandwich_min" and check.name != "hessian_sandwich_max":
            assert check.value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_geometry_boundary_pairs_pass(seed):
    inst, theta0, theta1 = _instance_pair(seed, boundary_factor=1.0)
    report = check_local_geometry(inst.mdp, inst.features, TINY.beta, theta0, theta1)
    assert report.mode == "local"
    # the pair generator shrinks monotonically, so it lands inside but near
    # the trust-region boundary that the checker recomputes
    assert 0.9 * report.dikin_radius <= report.delta_h0_norm <= report.dikin_radius * (1 + 1e-9)
    for check in report.checks:
        assert check.passed, f"{check.name}: {check.lower} <= {check.value} <= {check.upper}"


def test_geometry_far_pair_uses_global_bounds():
    inst, theta0, theta1 = _instance_pair(11, boundary_factor=10.0)
    report = check_local_geometry(inst.mdp, inst.features, TINY.beta, theta0, theta1)
    assert report.mode == "global"
    assert report.delta_h0_norm > report.dikin_radius
    for check in report.checks:
        assert check.passed, f"{check.name}: {check.lower} <= {check.value} <= {check.upper}"


def test_an_infinite_bound_leaves_the_other_tolerance_alone():
    assert not GeometryCheck("sandwich", 1.0, 0.5, math.inf).passed
    assert GeometryCheck("sandwich", 1.0, 1.0 - 1e-10, math.inf).passed
    assert not GeometryCheck("bregman", -math.inf, 2.0, 1.0).passed
    assert not GeometryCheck("density_ratio", 0.0, math.inf, 5.0).passed


def _far_pairs(count, far_factor):
    """The first pairs of ``soft-irl geometry`` on configs/geometry.json, placed far."""
    spec = InstanceSpec(S=4, A=2, T=3, d=4, beta=0.5, seed=1)
    inst = generate_instance(spec)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(1, spawn_key=(7,))))
    for _ in range(count):
        theta0 = 0.5 * rng.normal(size=spec.d)
        direction = rng.normal(size=spec.d)
        theta1 = dikin_boundary_pair(
            inst.mdp, inst.features, spec.beta, theta0, direction, boundary_factor=far_factor
        )
        yield inst, spec.beta, theta0, theta1


def test_far_pair_density_ratio_is_finite_where_trajectory_probabilities_underflow():
    """Deviations past exp's float range: finite ratios, infinite upper bounds, no warning."""
    underflows = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for inst, beta, theta0, theta1 in _far_pairs(2, far_factor=2500.0):
            mdp, features = inst.mdp, inst.features
            report = check_local_geometry(mdp, features, beta, theta0, theta1)
            assert report.mode == "global" and report.deviation_bound > 1000.0
            ratio = report.checks[0]
            assert ratio.name == "density_ratio"
            assert math.isfinite(ratio.value) and 500.0 < ratio.value <= report.deviation_bound
            assert report.all_passed
            upper = {check.name: check.upper for check in report.checks}
            assert upper["hessian_sandwich_max"] == upper["bregman"] == math.inf

            pi0 = solve_model(mdp, LinearRewardModel(features=features, theta=theta0), beta).pi_star
            pi1 = solve_model(mdp, LinearRewardModel(features=features, theta=theta1), beta).pi_star
            states, actions, _ = enumerate_support(mdp, uniform_policy(mdp))
            underflows.append(np.any(trajectory_probs(mdp, pi1, states, actions) == 0.0))
            # oracle: per-path log-likelihood ratio wherever neither law underflows
            data = Dataset(states=states, actions=actions, seed=0)
            with np.errstate(divide="ignore"):
                gap = trajectory_log_prob(mdp, pi1, data) - trajectory_log_prob(mdp, pi0, data)
            finite = np.abs(gap[np.isfinite(gap)])
            assert finite.max() <= ratio.value * (1.0 + 1e-12)
    # the first pair has a path whose product of factors underflows to 0, so a
    # ratio of trajectory probabilities would read inf there
    assert underflows == [True, False]


def test_dikin_boundary_pair_scores_each_segment_once(monkeypatch):
    """Once a round's radius stops shrinking, the fixed-point loop ends."""
    from soft_irl import experiments

    spec = InstanceSpec(S=5, A=3, T=4, d=6, beta=0.5, seed=5)  # the configs/rates.json instance
    inst = generate_instance(spec)
    rng = np.random.default_rng(2605)
    pairs = [(0.5 * rng.normal(size=spec.d), rng.normal(size=spec.d)) for _ in range(3)]
    theta0, direction = pairs[2]  # this pair's radius grows after its second round

    segments = []
    score_bound = experiments._score_bound

    def recording(mdp, features, beta, thetas):
        segments.append(np.asarray(thetas).tobytes())
        return score_bound(mdp, features, beta, thetas)

    monkeypatch.setattr(experiments, "_score_bound", recording)
    theta1 = dikin_boundary_pair(inst.mdp, inst.features, spec.beta, theta0, direction)
    assert len(segments) == len(set(segments))
    report = check_local_geometry(inst.mdp, inst.features, spec.beta, theta0, theta1)
    assert report.mode == "local" and report.all_passed


def test_dikin_boundary_pair_rejects_a_zero_direction():
    """A zero direction has no Dikin boundary point: a ``DomainError`` before
    the 0/0 division, which would otherwise warn and then fail as a non-finite
    parameter."""
    from soft_irl import DomainError

    inst = generate_instance(TINY)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="non-zero direction"):
            dikin_boundary_pair(inst.mdp, inst.features, TINY.beta, np.zeros(TINY.d), np.zeros(TINY.d))


def test_dikin_boundary_pair_checks_its_direction():
    """A direction of the wrong shape is a ``DimensionError``, and a NaN one,
    a mapping, a ragged list, strings or flags an ``InvariantError``, each at
    entry; a huge finite direction, whose H0-norm would overflow, gives the
    boundary point of its unit vector, and leaves the caller's array
    writeable.  None of them warns."""
    inst = generate_instance(TINY)
    theta0 = np.zeros(TINY.d)

    def pair(direction):
        return dikin_boundary_pair(inst.mdp, inst.features, TINY.beta, theta0, direction)

    huge = np.full(TINY.d, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionError, match="direction"):
            pair(np.ones(TINY.d - 1))
        for bad in (np.full(TINY.d, np.nan), {"a": 1}, [[1.0], 1.0, 1.0], ["1"] * TINY.d, [True] * TINY.d):
            with pytest.raises(InvariantError, match="direction"):
                pair(bad)
        theta1 = pair(huge)
    assert huge.flags.writeable
    np.testing.assert_allclose(theta1, pair(np.ones(TINY.d)), rtol=1e-12)
    assert np.linalg.norm(theta1) > 0.0


def test_geometry_requires_definite_hessian():
    from soft_irl import DomainError, FeatureMap, Mdp

    mdp = generate_instance(TINY).mdp
    constant = FeatureMap(phi=np.ones((TINY.T, TINY.S, TINY.A, 2)))
    with pytest.raises(DomainError, match="positive-definite"):
        check_local_geometry(mdp, constant, TINY.beta, np.zeros(2), np.ones(2))


def test_geometry_with_a_numerically_singular_hessian_is_a_domain_error():
    """A Hessian at theta0 whose smallest eigenvalue is positive but lost in
    rounding (two nearly collinear features) is a typed error, not an
    untyped ``LinAlgError`` from the generalized eigenproblem."""
    from soft_irl import DomainError, FeatureMap

    inst = generate_instance(InstanceSpec(S=4, A=2, T=3, d=3, beta=0.5, seed=1))
    phi = inst.features.phi.copy()
    phi[..., 2] = phi[..., 1] * (1 + 1e-7) + 1e-7 * phi[..., 0]
    with pytest.raises(DomainError, match="positive-definite"):
        check_local_geometry(inst.mdp, FeatureMap(phi=phi), 0.5, np.zeros(3), 1e-3 * np.ones(3))


def shaping_planted_pair(seed):
    """An instance whose last feature is a potential-shaping column
    ``h_t(s) - (P_t h_{t+1})(s, a)`` with ``h_T = 0``, a direction that moves
    no trajectory law (a one-dimensional Hessian kernel), and a parameter
    ``theta0`` and ``direction`` drawn after ``h``."""
    spec = InstanceSpec(S=4, A=2, T=3, d=4, beta=0.5, seed=seed, exclude_kernel=False)
    inst = generate_instance(spec)
    mdp = inst.mdp
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(mdp.T + 1, mdp.S))
    h[mdp.T] = 0.0
    shaping = np.repeat(h[:-1, :, None], mdp.A, axis=2)
    shaping[:-1] -= np.einsum("tsaz,tz->tsa", mdp.kernels, h[1:-1])
    phi = inst.features.phi.copy()
    phi[..., -1] = shaping
    return mdp, FeatureMap(phi=phi), 0.5 * rng.normal(size=spec.d), rng.normal(size=spec.d)


@pytest.mark.parametrize("seed", range(6))
def test_the_geometry_pair_refuses_a_hessian_with_a_kernel(seed):
    """A Hessian with a kernel is refused by both geometry functions, though
    rounding leaves its smallest eigenvalue (2e-32 to 3e-31 here) above 0:
    without the kernel test the pair is ``theta0`` itself, at a Dikin radius
    near 1e-17, and the check fails on seeds 0 and 3."""
    mdp, features, theta0, direction = shaping_planted_pair(seed)
    assert kernel_basis(mdp, features).shape[1] == 1
    with pytest.raises(DomainError, match="dikin_boundary_pair requires a positive-definite"):
        dikin_boundary_pair(mdp, features, 0.5, theta0, direction)
    with pytest.raises(DomainError, match="check_local_geometry requires a positive-definite"):
        check_local_geometry(mdp, features, 0.5, theta0, theta0 + direction)


@pytest.mark.parametrize("seed", range(6))
def test_a_feature_in_small_units_still_gets_its_geometry_pair(seed):
    """A feature column scaled by 1e-6 takes the Hessian's eigenvalue ratio
    below 1e-10, where the kernel is looked for in the features' units; it
    finds none there, so the pair is placed and every check passes.  The
    step is then near 1e-7 against entries of theta0 near 1, so theta1 -
    theta0 keeps about eight of its digits; the pair still lands inside the
    radius that the checker recomputes."""
    inst = generate_instance(InstanceSpec(S=4, A=2, T=3, d=4, beta=0.5, seed=seed))
    phi = inst.features.phi.copy()
    phi[..., -1] *= 1e-6
    features = FeatureMap(phi=phi)
    rng = np.random.default_rng(seed)
    theta0, direction = 0.5 * rng.normal(size=4), rng.normal(size=4)
    model = LinearRewardModel(features=features, theta=theta0)
    eigs = np.linalg.eigvalsh(derivative_bundle(inst.mdp, model, 0.5).hessian)
    assert 0.0 < eigs[0] <= 1e-10 * eigs[-1]
    theta1 = dikin_boundary_pair(inst.mdp, features, 0.5, theta0, direction)
    report = check_local_geometry(inst.mdp, features, 0.5, theta0, theta1)
    assert report.all_passed
    assert report.mode == "local" and report.delta_h0_norm <= report.dikin_radius * (1.0 + 1e-12)


def test_check_local_geometry_checks_both_parameter_shapes_before_any_work(monkeypatch):
    """A parameter of the wrong shape is a ``DimensionError`` at entry, not
    numpy's broadcast ``ValueError`` from ``theta1 - theta0``, and no value
    pass is made."""
    from soft_irl import experiments

    inst = generate_instance(TINY)
    passes = []
    monkeypatch.setattr(experiments, "_batch_soft_values", lambda *args: passes.append(args))
    d = TINY.d
    for shape0, shape1 in ((d + 1, d - 1), (d, d - 1), (d + 1, d)):
        with pytest.raises(DimensionError, match="theta"):
            check_local_geometry(
                inst.mdp, inst.features, TINY.beta, np.zeros(shape0), np.ones(shape1)
            )
    assert passes == []


@pytest.mark.parametrize("beta", [0.0, -0.5, math.nan, math.inf])
def test_geometry_entry_points_check_beta_before_any_solve(monkeypatch, beta):
    """A temperature that is not a positive finite number is a
    ``DomainError`` at entry of both geometry functions, with no value pass
    and no warning: a zero one used to divide by zero into a NaN, and a NaN
    one to end in numpy's untyped ``LinAlgError``."""
    from soft_irl import experiments

    inst = generate_instance(TINY)
    passes = []
    monkeypatch.setattr(experiments, "_batch_soft_values", lambda *args: passes.append(args))
    theta0, theta1 = np.zeros(TINY.d), np.full(TINY.d, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="beta"):
            check_local_geometry(inst.mdp, inst.features, beta, theta0, theta1)
        with pytest.raises(DomainError, match="beta"):
            dikin_boundary_pair(inst.mdp, inst.features, beta, theta0, theta1)
    assert passes == []


@pytest.mark.parametrize(
    "factor, error",
    [(math.nan, DomainError), (math.inf, DomainError), (0.0, DomainError), (-1.0, DomainError),
     (True, InputError)],
)
def test_dikin_boundary_pair_rejects_a_bad_boundary_factor(factor, error):
    """A boundary factor must be a positive finite number: a bool is an
    ``InputError`` (not 1.0), and NaN, infinity, zero or a negative factor (which
    would flip the direction) a ``DomainError``, each before any warning."""
    inst = generate_instance(TINY)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match="boundary_factor") as info:
            dikin_boundary_pair(
                inst.mdp, inst.features, TINY.beta, np.zeros(TINY.d), np.ones(TINY.d),
                boundary_factor=factor,
            )
    assert type(info.value) is error


def test_a_parameter_whose_reward_overflows_is_an_invariant_error():
    """A parameter so large that its reward overflows is an ``InvariantError``
    on the batch path too, never a silent NaN: without the finite check of the
    shared value pass, ``check_local_geometry`` at ``theta1 = 1e308 * 1`` fails
    with scipy's untyped ``ValueError: array must not contain infs or NaNs``."""
    inst = generate_instance(TINY)
    huge = np.full(TINY.d, 1e308)
    with pytest.raises(InvariantError):
        check_local_geometry(inst.mdp, inst.features, TINY.beta, np.zeros(TINY.d), huge)
    with pytest.raises(InvariantError):
        dikin_boundary_pair(inst.mdp, inst.features, TINY.beta, huge, np.ones(TINY.d))


def test_geometry_constants_check_each_grid_point_at_entry(monkeypatch):
    """A grid point of the wrong shape is a ``DimensionError``, and a
    non-finite one or a ragged grid an ``InvariantError``, each before any
    soft solve: the grid is read as one ``(K, d)`` array."""
    import soft_irl.linear_reward as linear_reward
    from soft_irl import geometry_constants

    inst = generate_instance(TINY)
    model = LinearRewardModel(features=inst.features, theta=np.zeros(TINY.d))
    monkeypatch.setattr(linear_reward, "soft_backward", None)  # any solve would fail untyped
    for grid, error in (
        (np.zeros(TINY.d + 1), DimensionError),
        (np.zeros((2, TINY.d - 1)), DimensionError),
        ([np.full(TINY.d, np.nan)], InvariantError),
        ([np.zeros(TINY.d), np.zeros(TINY.d + 1)], InvariantError),
    ):
        with pytest.raises(error, match="theta"):
            geometry_constants(inst.mdp, inst.features, model, TINY.beta, theta_grid=grid)


def per_parameter_score_bound(mdp, features, beta, thetas):
    """The score bound solved one parameter at a time through the public API:
    the oracle of the batched ``_score_bound``."""
    policies = [
        solve_model(mdp, LinearRewardModel(features=features, theta=theta), beta).pi_star
        for theta in thetas
    ]
    norms = [np.linalg.norm(feature_advantage(mdp, features, pi), axis=-1) for pi in policies]
    return float(_path_max(mdp, np.stack(norms, axis=1)).max())


def per_parameter_geometry_report(mdp, features, beta, theta0, theta1):
    """``check_local_geometry`` with each parameter solved and differentiated
    on its own through the public API: the oracle of the batch of two."""
    delta = theta1 - theta0
    models = [LinearRewardModel(features=features, theta=t) for t in (theta0, theta1)]
    solution0, solution1 = (solve_model(mdp, model, beta) for model in models)
    bundle0, bundle1 = (derivative_bundle(mdp, model, beta) for model in models)
    H0, H1 = bundle0.hessian, bundle1.hessian
    lam0 = float(np.linalg.eigvalsh(H0).min())
    if lam0 <= 0.0:
        raise DomainError("positive-definite")
    try:
        chol = np.linalg.cholesky(H0)
    except np.linalg.LinAlgError as err:
        raise DomainError("numerically singular") from err
    # the library's formula, so that == checks the batch and not the algebra;
    # test_the_sandwich_matches_scipy checks the formula against scipy
    gen_eigs = np.linalg.eigvalsh(np.linalg.solve(chol, np.linalg.solve(chol, H1).T))
    alphas = np.linspace(0.0, 1.0, _SEGMENT_POINTS)
    B_A_phi = per_parameter_score_bound(mdp, features, beta, [theta0 + a * delta for a in alphas])
    delta_h0 = float(np.sqrt(delta @ H0 @ delta))
    dikin = _dikin_radius(beta, lam0, B_A_phi)
    deviation = B_A_phi * float(np.linalg.norm(delta)) / beta
    local = delta_h0 <= dikin * (1.0 + 1e-12)
    log_ratio = (
        _log_gibbs(mdp, beta, solution1.Q)
        - _log_gibbs(mdp, beta, solution0.Q)
    )
    max_log_ratio = float(_path_max(mdp, np.stack([log_ratio, -log_ratio], axis=1)).max())
    bregman = bundle1.J_star - bundle0.J_star - float(delta @ bundle0.grad)
    gradient_gap = float(delta @ (bundle1.grad - bundle0.grad))
    sq = delta_h0**2
    S = 1.0 if local else deviation
    checks = [
        GeometryCheck("density_ratio", 0.0, max_log_ratio, S),
        GeometryCheck("hessian_sandwich_min", math.exp(-S), float(gen_eigs.min()), math.inf),
        GeometryCheck("hessian_sandwich_max", 0.0, float(gen_eigs.max()), _exp(S)),
        GeometryCheck("bregman", psi(-S) * sq, bregman, psi(S) * sq),
        GeometryCheck("gradient_gap", chi(-S) * sq, gradient_gap, chi(S) * sq),
    ]
    if local:
        pi0, pi1 = solution0.pi_star, solution1.pi_star
        hell = trajectory_hellinger(mdp, pi0, pi1)
        kl01 = trajectory_kl(mdp, pi0, pi1)
        checks.append(GeometryCheck("kl_vs_hellinger", hell, kl01, 3.0 * hell))
    return GeometryCheckReport(
        mode="local" if local else "global",
        delta_h0_norm=delta_h0,
        dikin_radius=dikin,
        deviation_bound=deviation,
        B_A_phi=B_A_phi,
        checks=tuple(checks),
    )


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.booleans(),
    st.sampled_from([1.0, 10.0]),
)
def test_the_batch_path_is_the_per_parameter_path_bit_for_bit(
    seed, S, A, T, d, deterministic, factor
):
    """``_score_bound`` on a random segment, and every field of ``check_local_geometry``'s report on a boundary or far
    pair equal, with no tolerance, the same quantities computed one parameter
    at a time through ``solve_model``, ``feature_advantage``,
    ``derivative_bundle``, ``trajectory_kl`` and ``trajectory_hellinger``."""
    spec = InstanceSpec(S=S, A=A, T=T, d=d, beta=0.6, seed=seed, deterministic=deterministic)
    try:
        inst = generate_instance(spec)
    except InputError:
        assume(False)  # no identifiable feature draw for this spec
    mdp, features, beta = inst.mdp, inst.features, spec.beta
    rng = np.random.default_rng(seed)
    segment = rng.normal(size=(int(rng.integers(1, 5)), d))
    batched = _score_bound(mdp, features, beta, segment)
    assert batched == per_parameter_score_bound(mdp, features, beta, segment)

    theta0, direction = 0.5 * rng.normal(size=d), rng.normal(size=d)
    try:
        theta1 = dikin_boundary_pair(mdp, features, beta, theta0, direction, factor)
    except DomainError:
        assume(False)  # a Hessian at theta0 singular to rounding has no Dikin boundary

    def outcome(check):
        try:
            return check(mdp, features, beta, theta0, theta1)
        except DomainError:
            return "refused"

    assert outcome(check_local_geometry) == outcome(per_parameter_geometry_report)


# scipy is an oracle of the suite only: the package takes its factorizations
# from numpy, and these tests hold them to scipy's within a bound fixed
# before they were first run.
ORACLE_RTOL = 1e-12


def assert_sandwich_matches_scipy(mdp, features, beta, theta0, theta1):
    """The sandwich values of ``check_local_geometry`` are the extreme
    eigenvalues of scipy's generalized ``eigh(H1, H0)`` of the bundles'
    Hessians, within ``ORACLE_RTOL``, or within the rounding that a backward
    stable method may make on an ill-conditioned ``H0``, ``16 eps cond(H0)``,
    where that is larger.  (On a drawn pair with ``cond(H0)`` near 1e6,
    scipy's smaller value was 2.1e-11 from its 50-digit value, numpy's 5.4e-12.)"""
    report = check_local_geometry(mdp, features, beta, theta0, theta1)
    H0, H1 = (
        derivative_bundle(mdp, LinearRewardModel(features=features, theta=theta), beta).hessian
        for theta in (theta0, theta1)
    )
    eigs = scipy.linalg.eigh(H1, H0, eigvals_only=True)
    rel = max(ORACLE_RTOL, 16 * np.finfo(float).eps * np.linalg.cond(H0))
    values = {check.name: check.value for check in report.checks}
    assert values["hessian_sandwich_min"] == pytest.approx(eigs.min(), rel=rel, abs=0)
    assert values["hessian_sandwich_max"] == pytest.approx(eigs.max(), rel=rel, abs=0)


def assert_etas_match_scipy(mdp, features, beta, expert, n, trials, seed):
    """``check_concentration``'s ``eta`` of each trial is the norm of scipy's
    triangular solve, against scipy's Cholesky factor of ``H*``, of that
    trial's feature deviation."""
    report = check_concentration(mdp, features, beta, expert, n=n, trials=trials, seed=seed)
    H_star = fit_population(mdp, features, expert, FitConfig(beta=beta)).hessian_at_solution
    chol = scipy.linalg.cholesky(H_star, lower=True)
    target = feature_expectation(mdp, expert, features)
    for trial, eta in enumerate(report.etas):
        counts = _sample_counts(mdp, expert, n, _cell_seed(seed, trial))
        diff = _occupancy_average(counts / n, features.phi) - target
        expected = np.linalg.norm(scipy.linalg.solve_triangular(chol, diff, lower=True))
        assert eta == pytest.approx(expected, rel=ORACLE_RTOL, abs=0)


def test_the_sandwich_matches_scipy_on_the_shipped_geometry_config():
    """The pairs of ``configs/geometry.json``, drawn as the CLI draws them."""
    config = json.loads((CONFIGS / "geometry.json").read_text())
    section = config["geometry"]
    spec = InstanceSpec(**section["instance"])
    inst = generate_instance(spec)
    rng = _spawn_rng(config["seed"], 7)
    for _ in range(section["pairs"]):
        theta0 = section["theta_scale"] * rng.normal(size=spec.d)
        direction = rng.normal(size=spec.d)
        theta1 = dikin_boundary_pair(inst.mdp, inst.features, spec.beta, theta0, direction)
        assert_sandwich_matches_scipy(inst.mdp, inst.features, spec.beta, theta0, theta1)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([1.0, 10.0]),
)
def test_the_sandwich_matches_scipy(seed, S, A, T, d, factor):
    spec = InstanceSpec(S=S, A=A, T=T, d=d, beta=0.6, seed=seed)
    try:
        inst = generate_instance(spec)
    except InputError:
        assume(False)  # no identifiable feature draw for this spec
    rng = np.random.default_rng(seed)
    theta0, direction = 0.5 * rng.normal(size=d), rng.normal(size=d)
    try:
        theta1 = dikin_boundary_pair(inst.mdp, inst.features, spec.beta, theta0, direction, factor)
    except DomainError:
        assume(False)  # a Hessian at theta0 singular to rounding has no Dikin boundary
    assert_sandwich_matches_scipy(inst.mdp, inst.features, spec.beta, theta0, theta1)


def test_the_etas_match_scipy_on_the_shipped_concentration_config():
    section = json.loads((CONFIGS / "concentration.json").read_text())["concentration"]
    spec = InstanceSpec(**section["instance"])
    inst = generate_instance(spec)
    assert_etas_match_scipy(
        inst.mdp, inst.features, spec.beta, inst.expert,
        section["n"], section["trials"], section["data_seed"],
    )


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=10_000),
)
def test_the_etas_match_scipy(seed, S, A, T, d, n):
    spec = InstanceSpec(S=S, A=A, T=T, d=d, beta=0.6, seed=seed)
    try:
        inst = generate_instance(spec)
        assert_etas_match_scipy(inst.mdp, inst.features, spec.beta, inst.expert, n, 8, seed)
    except (InputError, DomainError):
        assume(False)  # no identifiable features, or no converged population fit


def test_the_geometry_study_solves_no_parameter_through_the_public_api(monkeypatch):
    """``_score_bound``, ``check_local_geometry`` and ``dikin_boundary_pair``
    make no public soft solve: each ``_score_bound`` call makes exactly one
    value pass, and each of the other two one more for its own parameters."""
    import soft_irl.linear_reward as linear_reward
    import soft_irl.soft_dp as soft_dp
    from soft_irl import experiments

    spec = shipped_rates_spec()
    inst = generate_instance(spec)
    mdp, features, beta = inst.mdp, inst.features, spec.beta
    rng = np.random.default_rng(2605)
    theta0, direction = 0.5 * rng.normal(size=spec.d), rng.normal(size=spec.d)
    calls = []

    def recorded(name, function):
        def call(*args):
            calls.append((name, args[2]))  # the temperature is each call's third argument
            return function(*args)

        return call

    solve = recorded("solve", soft_dp.soft_backward)
    value_pass = recorded("pass", soft_dp._batch_optimal_values)
    for module in (soft_dp, linear_reward):
        monkeypatch.setattr(module, "soft_backward", solve)
        monkeypatch.setattr(module, "_batch_optimal_values", value_pass)
    monkeypatch.setattr(
        experiments, "_score_bound", recorded("score_bound", experiments._score_bound)
    )

    theta1 = dikin_boundary_pair(mdp, features, beta, theta0, direction)
    rounds = calls.count(("score_bound", beta))
    assert rounds >= 2
    assert calls == [("pass", beta)] + [("score_bound", beta), ("pass", beta)] * rounds

    calls.clear()
    segment = theta0 + np.linspace(0.0, 1.0, _SEGMENT_POINTS)[:, None] * (theta1 - theta0)
    _score_bound(mdp, features, beta, segment)
    assert calls == [("pass", beta)]

    calls.clear()
    check_local_geometry(mdp, features, beta, theta0, theta1)
    assert calls == [("pass", beta), ("score_bound", beta), ("pass", beta)]


# ---------------------------------------------------------------------------
# concentration


def test_concentration_coverage():
    inst = generate_instance(TINY)
    report = check_concentration(
        inst.mdp, inst.features, TINY.beta, inst.expert, n=256, delta=0.1, trials=200, seed=3
    )
    assert report.violation_frequency <= report.frequency_threshold
    assert len(report.etas) == 200
    assert report.bound > 0.0
    assert report.median_eta < report.bound
    assert report.violation_frequency == pytest.approx(
        np.mean(np.array(report.etas) > report.bound), abs=0
    )


def test_concentration_sqrt_n_scaling():
    inst = generate_instance(TINY)
    r1 = check_concentration(
        inst.mdp, inst.features, TINY.beta, inst.expert, n=256, delta=0.1, trials=200, seed=3
    )
    r2 = check_concentration(
        inst.mdp, inst.features, TINY.beta, inst.expert, n=512, delta=0.1, trials=200, seed=4
    )
    assert 0.6 <= r2.median_eta / r1.median_eta <= 0.82


def test_concentration_deterministic_instance_has_zero_deviation():
    spec = dataclasses.replace(TINY, deterministic=True)
    inst = generate_instance(spec)
    probs = np.zeros((spec.T, spec.S, spec.A))
    probs[:, :, 0] = 1.0  # expert always plays the first action
    expert = Policy(probs=probs, label="deterministic")
    report = check_concentration(
        inst.mdp,
        inst.features,
        spec.beta,
        expert,
        n=16,
        delta=0.1,
        trials=32,
        seed=5,
        fit_config=FitConfig(beta=spec.beta, B_theta=3.0),
    )
    assert report.violation_frequency == 0.0
    assert all(eta == 0.0 for eta in report.etas)


def test_concentration_rejects_bad_delta():
    inst = generate_instance(TINY)
    with pytest.raises(InputError, match="delta"):
        check_concentration(inst.mdp, inst.features, TINY.beta, inst.expert, n=8, delta=1.5)


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("n", {"n": 0}),
        ("n", {"n": -3}),
        ("n", {"n": 2.5}),
        ("n", {"n": True}),
        ("trials", {"n": 8, "trials": 0}),
        ("trials", {"n": 8, "trials": "10"}),
    ],
)
def test_concentration_rejects_bad_counts_before_any_work(monkeypatch, name, kwargs):
    import soft_irl.experiments as experiments

    def no_fit(*args, **kw):
        raise AssertionError("the population fit ran before the inputs were checked")

    monkeypatch.setattr(experiments, "fit_population", no_fit)
    inst = generate_instance(TINY)
    with pytest.raises(InputError, match=name):
        check_concentration(inst.mdp, inst.features, TINY.beta, inst.expert, **kwargs)


def test_concentration_rejects_a_fit_config_of_another_temperature(monkeypatch):
    """The population fit and the geometry constants share one temperature: a
    ``fit_config`` at another ``beta`` is an ``InputError`` before any work,
    as in the rate experiment, instead of a report that mixes the two."""
    import soft_irl.experiments as experiments

    def no_fit(*args, **kw):
        raise AssertionError("the population fit ran before the inputs were checked")

    monkeypatch.setattr(experiments, "fit_population", no_fit)
    inst = generate_instance(TINY)
    with pytest.raises(InputError, match="temperature"):
        check_concentration(
            inst.mdp, inst.features, TINY.beta, inst.expert, n=8,
            fit_config=FitConfig(beta=4 * TINY.beta),
        )


# ---------------------------------------------------------------------------
# rate experiment


def assert_grid_shape(report, n_sizes, replicates):
    """``report`` holds every metric of :data:`RATE_METRICS`, and the fit
    statuses, as ``(n_sizes, replicates)`` nested tuples."""
    assert tuple(report.values) == RATE_METRICS
    for grid in (*report.values.values(), report.statuses):
        assert isinstance(grid, tuple) and len(grid) == n_sizes
        assert all(isinstance(row, tuple) and len(row) == replicates for row in grid)


@pytest.mark.parametrize("n_grid", [(64, 64, 128), (128, 64), (64, 128, 128)])
def test_rate_config_requires_a_strictly_increasing_n_grid(n_grid):
    """A repeated sample size would write duplicate ``(metric, n, replicate)``
    records and pool both cells into one median reported twice."""
    with pytest.raises(InputError, match="strictly increasing"):
        RateConfig(instance=TINY, n_grid=n_grid)
    assert RateConfig(instance=TINY, n_grid=(64, 65, 128)).n_grid == (64, 65, 128)


def test_rate_config_rejects_an_n_that_counts_cannot_hold():
    """Visit counts are int64, so an ``n`` of ``2**63`` or more is a
    ``DomainError`` when the config is built, before any draw or solve."""
    for n_grid in ((64, 2**63), (64, 2**70)):
        with pytest.raises(DomainError, match="2\\*\\*63"):
            RateConfig(instance=TINY, n_grid=n_grid)
    assert RateConfig(instance=TINY, n_grid=(64, 2**63 - 1)).n_grid == (64, 2**63 - 1)


def test_concentration_rejects_an_n_that_counts_cannot_hold(monkeypatch):
    import soft_irl.experiments as experiments

    def no_work(*args, **kw):
        raise AssertionError("a fit or a draw ran before the inputs were checked")

    monkeypatch.setattr(experiments, "fit_population", no_work)
    monkeypatch.setattr(experiments, "_sample_counts", no_work)
    inst = generate_instance(TINY)
    for n in (2**63, 2**70):
        with pytest.raises(DomainError, match="2\\*\\*63"):
            check_concentration(inst.mdp, inst.features, TINY.beta, inst.expert, n=n)


def test_a_rate_cell_at_n_2_to_the_40_runs_and_fits():
    """Counts cost the same at any ``n``: a cell far past the trajectory
    sampler's limit of ``2**32`` is drawn and fitted."""
    config = RateConfig(instance=TINY, n_grid=(2**39, 2**40), replicates=2, data_seed=2)
    report = run_rate_experiment(config)
    assert report.fit_statuses["converged"] == 4
    errors = [value for row in report.values["param_err_hess"] for value in row]
    assert all(0.0 <= value < 1e-9 for value in errors)


def test_the_count_studies_draw_no_trajectory(monkeypatch):
    """The rate experiment and the concentration check draw visit counts: with
    the trajectory sampler made to raise, both finish."""
    import soft_irl
    import soft_irl.mdp as mdp_module

    def no_trajectories(*args, **kw):
        raise AssertionError("trajectories were sampled")

    monkeypatch.setattr(mdp_module, "sample_trajectories", no_trajectories)
    monkeypatch.setattr(soft_irl, "sample_trajectories", no_trajectories)
    report = run_rate_experiment(RateConfig(instance=TINY, n_grid=(64, 128), replicates=2))
    assert_grid_shape(report, 2, 2)
    inst = generate_instance(TINY)
    concentration = check_concentration(
        inst.mdp, inst.features, TINY.beta, inst.expert, n=64, trials=4
    )
    assert len(concentration.etas) == 4


def test_rate_experiment_reproducible():
    cfg = RateConfig(instance=TINY, n_grid=(64, 128), replicates=3, data_seed=2)
    a = run_rate_experiment(cfg)
    b = run_rate_experiment(cfg)
    assert a.values == b.values
    assert a.statuses == b.statuses
    assert a.slopes == b.slopes
    assert a.medians == b.medians
    assert a.theta_star == b.theta_star


def test_rate_experiment_needs_no_trajectory_probabilities(monkeypatch):
    import soft_irl
    import soft_irl.experiments as experiments
    import soft_irl.mdp as mdp_module

    def no_gather(*args, **kwargs):
        raise AssertionError("trajectory probabilities were gathered")

    monkeypatch.setattr(mdp_module, "trajectory_log_prob", no_gather)
    monkeypatch.setattr(soft_irl, "trajectory_log_prob", no_gather)
    assert not hasattr(experiments, "trajectory_log_prob")
    cfg = RateConfig(instance=TINY, n_grid=(64, 128), replicates=2, data_seed=2)
    report = run_rate_experiment(cfg)
    assert_grid_shape(report, 2, 2)
    assert all(np.isfinite(v) and v > 0.0 for v in report.medians["hellinger_star"])

    inst, theta0, theta1 = _instance_pair(3, boundary_factor=1.0)
    geometry = check_local_geometry(inst.mdp, inst.features, TINY.beta, theta0, theta1)
    assert geometry.mode == "local" and geometry.all_passed


def test_rate_records_are_complete_and_nonnegative():
    cfg = RateConfig(instance=TINY, n_grid=(64, 128), replicates=3, data_seed=2)
    report = run_rate_experiment(cfg)
    assert_grid_shape(report, 2, 3)
    for metric, grid in report.values.items():
        assert metric in RATE_METRICS
        for value_row, status_row in zip(grid, report.statuses):
            for value, status in zip(value_row, status_row):
                if status == "converged":
                    assert value >= -1e-12
    assert report.lambda_star > 1e-8
    assert report.d_star > 0.0
    assert set(report.slope_window).issubset(set(cfg.n_grid))


def test_rate_well_specified_slopes_near_minus_one():
    cfg = RateConfig(instance=TINY, n_grid=(256, 1024, 4096), replicates=8, data_seed=2)
    report = run_rate_experiment(cfg)
    assert -1.6 <= report.slopes["param_err_hess"] <= -0.5
    assert -1.6 <= report.slopes["expert_kl"] <= -0.5
    assert report.approx_floor_kl <= 1e-12  # well-specified: no approximation error
    # medians decrease along the grid for every slope metric
    for metric in ("expert_kl", "param_err_hess", "sym_kl_star", "hellinger_star"):
        meds = report.medians[metric]
        assert meds[0] > meds[-1] > 0.0


def test_rate_misspecified_excess_decays_but_raw_kl_plateaus():
    spec = dataclasses.replace(TINY, expert_kind="random_softmax")
    cfg = RateConfig(instance=spec, n_grid=(256, 1024, 4096), replicates=8, data_seed=2)
    report = run_rate_experiment(cfg)
    assert report.approx_floor_kl > 0.01
    assert -1.6 <= report.slopes["excess_kl"] <= -0.5
    assert abs(report.slopes["expert_kl"]) <= 0.2  # plateau at the floor
    largest_n_median = report.medians["expert_kl"][-1]
    assert largest_n_median == pytest.approx(report.approx_floor_kl, rel=0.05)


def test_deterministic_well_specified_d_star_is_beta_d():
    """Without dynamics noise the feature-return covariance at theta* is beta H*,
    so d* = beta d."""
    spec = dataclasses.replace(TINY, deterministic=True)
    report = run_rate_experiment(RateConfig(instance=spec, n_grid=(16, 32), replicates=2))
    assert report.d_star_beta_d_gap is not None and report.d_star_beta_d_gap <= 1e-6


def test_rate_experiment_rejects_mismatched_fit_temperature():
    cfg = RateConfig(
        instance=TINY, n_grid=(64, 128), replicates=2, data_seed=2, fit=FitConfig(beta=1.0)
    )
    with pytest.raises(InputError, match="temperature"):
        run_rate_experiment(cfg)


RATES_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "rates.json"


def shipped_rates_spec():
    return InstanceSpec(**json.loads(RATES_CONFIG.read_text())["rates"]["instance"])


def dataset_with_counts(counts):
    """A dataset whose visit counts are ``counts``, shape ``(T, S, A)``: row
    ``i`` takes the ``i``-th visit of each step, in ``(s, a)`` order.  The
    empirical loss sees a dataset only through these counts."""
    T, S, A = counts.shape
    visits = np.stack([np.repeat(np.arange(S * A), counts[t].ravel()) for t in range(T)], axis=1)
    return Dataset(states=visits // A, actions=visits % A, seed=0)


def per_fit_rate_report(config):
    """The rate experiment fitted and measured one replicate at a time, through
    the public API: the oracle of the lockstep batch."""
    from soft_irl import (
        RateReport,
        SLOPE_METRICS,
        fit_population,
        geometry_constants,
        trajectory_hellinger,
        trajectory_kl,
    )

    inst = generate_instance(config.instance)
    mdp, features, expert = inst.mdp, inst.features, inst.expert
    beta = config.instance.beta
    fit_cfg = config.fit_config()
    population = fit_population(mdp, features, expert, fit_cfg)
    theta_star, H_star = population.theta_hat, population.hessian_at_solution
    model_star = LinearRewardModel(features=features, theta=theta_star)
    pi_star = solve_model(mdp, model_star, beta).pi_star
    floor = trajectory_kl(mdp, expert, pi_star)
    constants = geometry_constants(
        mdp, features, model_star, beta, theta_grid=[np.zeros(features.d)], expert=expert
    )
    burn_in = (
        constants.B_A_phi**2 * constants.d_star * math.log(1.0 / config.burn_in_delta)
        / (beta**2 * constants.lambda_star)
    )
    values, statuses = {m: [] for m in RATE_METRICS}, []
    for i_n, n in enumerate(config.n_grid):
        cells, row = [], []
        for rep in range(config.replicates):
            counts = _sample_counts(mdp, expert, n, _cell_seed(config.data_seed, i_n, rep))
            result = fit_empirical(mdp, features, dataset_with_counts(counts), fit_cfg)
            model_hat = LinearRewardModel(features=features, theta=result.theta_hat)
            pi_hat = solve_model(mdp, model_hat, beta).pi_star
            diff = result.theta_hat - theta_star
            expert_kl = trajectory_kl(mdp, expert, pi_hat)
            to_hat = trajectory_kl(mdp, pi_star, pi_hat)
            to_star = trajectory_kl(mdp, pi_hat, pi_star)
            cells.append({
                "expert_kl": expert_kl,
                "excess_kl": expert_kl - floor,
                "param_err_hess": float(diff @ H_star @ diff),
                "kl_star_to_hat": to_hat,
                "kl_hat_to_star": to_star,
                "sym_kl_star": to_hat + to_star,
                "hellinger_star": trajectory_hellinger(mdp, pi_star, pi_hat),
            })
            row.append(result.status)
        statuses.append(tuple(row))
        for m in RATE_METRICS:
            values[m].append(tuple(cell[m] for cell in cells))
    medians = {
        m: tuple(
            float(np.median(vals)) if vals else float("nan")
            for vals in (
                [v for v, s in zip(values[m][i_n], statuses[i_n]) if s == "converged"]
                for i_n in range(len(config.n_grid))
            )
        )
        for m in RATE_METRICS
    }
    window = [n for n in config.n_grid if n >= burn_in]
    if len(window) < config.min_slope_points:
        window = list(config.n_grid[-config.min_slope_points :])
    slopes, intercepts = {}, {}
    for m in SLOPE_METRICS:
        ys = np.array([medians[m][config.n_grid.index(n)] for n in window])
        if np.any(~np.isfinite(ys)) or np.any(ys <= 0.0):
            slopes[m] = intercepts[m] = float("nan")
            continue
        slope, intercept = np.polyfit(np.log(np.asarray(window, dtype=np.float64)), np.log(ys), 1)
        slopes[m], intercepts[m] = float(slope), float(intercept)
    return RateReport(
        config=config,
        theta_star=tuple(float(x) for x in theta_star),
        lambda_star=constants.lambda_star,
        d_star=constants.d_star,
        B_phi=constants.B_phi,
        B_A_phi=constants.B_A_phi,
        rho_star=constants.rho_star,
        burn_in_n=float(burn_in),
        slope_window=tuple(window),
        approx_floor_kl=float(floor),
        values={m: tuple(grid) for m, grid in values.items()},
        statuses=tuple(statuses),
        medians=medians,
        slopes=slopes,
        intercepts=intercepts,
        d_star_beta_d_gap=None,
    )


def test_rate_experiment_writes_the_bytes_of_a_per_fit_loop(tmp_path):
    """The lockstep batches of the shipped instance at two small sizes (8
    replicates, 4 of them infeasible fits) write the ``rates.json`` and
    ``rates.csv`` bytes of a loop that fits and measures each replicate alone."""
    from soft_irl.io import rate_report_to_csv, to_json_text

    config = RateConfig(instance=shipped_rates_spec(), n_grid=(16, 32), replicates=8, data_seed=1)
    report = run_rate_experiment(config)
    oracle = per_fit_rate_report(config)
    assert report.fit_statuses["infeasible"] == 4
    assert to_json_text(report) == to_json_text(oracle)
    rate_report_to_csv(report, tmp_path / "batch.csv")
    rate_report_to_csv(oracle, tmp_path / "per_fit.csv")
    assert (tmp_path / "batch.csv").read_bytes() == (tmp_path / "per_fit.csv").read_bytes()


def test_rates_csv_marks_only_converged_fits_as_converged(tmp_path):
    """The CSV's ``converged`` column is ``True`` for a ``converged`` fit and
    ``False`` for each of the other statuses, ``max_iters`` and ``stalled``
    included: no shipped config has those, so the statuses are set here."""
    import csv

    from soft_irl.io import rate_report_to_csv

    report = run_rate_experiment(RateConfig(instance=TINY, n_grid=(64, 128), replicates=2))
    statuses = (("converged", "max_iters"), ("stalled", "infeasible"))
    rate_report_to_csv(dataclasses.replace(report, statuses=statuses), tmp_path / "rates.csv")
    with open(tmp_path / "rates.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4 * len(report.values)
    for row in rows:
        status = statuses[(64, 128).index(int(row["n"]))][int(row["replicate"])]
        assert row["status"] == status
        assert row["converged"] == str(status == "converged")


def test_the_rate_grid_is_fitted_as_one_lockstep_batch(monkeypatch):
    """A rate experiment makes two calls of the Newton loop: the population
    fit, a batch of one, and one batch of every replicate of every ``n``."""
    from soft_irl import experiments, opt

    batches = []
    fit_batch = opt._fit_batch

    def recorded(mdp, features, targets, config):
        batches.append(len(targets))
        return fit_batch(mdp, features, targets, config)

    monkeypatch.setattr(opt, "_fit_batch", recorded)
    monkeypatch.setattr(experiments, "_fit_batch", recorded)
    run_rate_experiment(RateConfig(instance=TINY, n_grid=(64, 128, 256), replicates=3))
    assert batches == [1, 9]


def test_the_studies_report_the_public_geometry_constants_at_theta_star():
    """A rate experiment's and a concentration check's constants are, bit for
    bit, those of ``geometry_constants`` at the population solution with the
    grid ``[0]`` and the expert: the studies reach them by the public path."""
    from soft_irl import geometry_constants

    spec = shipped_rates_spec()
    inst = generate_instance(spec)
    mdp, features, beta = inst.mdp, inst.features, spec.beta
    rates = run_rate_experiment(
        RateConfig(instance=spec, n_grid=(64, 128), replicates=2, data_seed=1)
    )
    concentration = check_concentration(mdp, features, beta, inst.expert, n=64, trials=3)
    theta_star = fit_population(mdp, features, inst.expert, FitConfig(beta=beta)).theta_hat
    assert rates.theta_star == tuple(theta_star.tolist())
    model = LinearRewardModel(features=features, theta=theta_star)
    constants = geometry_constants(mdp, features, model, beta, [np.zeros(spec.d)], inst.expert)
    assert (rates.B_phi, rates.B_A_phi) == (constants.B_phi, constants.B_A_phi)
    assert (rates.lambda_star, rates.d_star) == (constants.lambda_star, constants.d_star)
    assert rates.rho_star == constants.rho_star
    assert (concentration.lambda_star, concentration.d_star, concentration.B_phi) == (
        constants.lambda_star,
        constants.d_star,
        constants.B_phi,
    )


# ---------------------------------------------------------------------------
# fit status against an occupancy LP


def occupancy_lp_margin(mdp, phi, target):
    """Largest ``eps`` with an occupancy-like ``mu >= eps`` whose feature sum is ``target``.

    ``mu`` satisfies the initial and flow equations of ``mdp``; ``eps`` is
    capped to ``[-1, 1]``.  So ``eps < 0`` means ``target`` lies outside the
    moment set, and ``eps > 0`` that it lies in its interior.  (HiGHS, test
    only.)
    """
    T, S, A, d = phi.shape
    m = T * S * A
    index = np.arange(m).reshape(T, S, A)
    rows, rhs = [], []
    for t in range(T):
        for s in range(S):
            row = np.zeros(m + 1)
            row[index[t, s]] = 1.0
            if t > 0:
                row[index[t - 1].ravel()] -= mdp.kernels[t - 1][:, :, s].ravel()
            rows.append(row)
            rhs.append(mdp.initial_dist[s] if t == 0 else 0.0)
    features = np.hstack([phi.reshape(m, d).T, np.zeros((d, 1))])
    result = scipy.optimize.linprog(
        c=np.r_[np.zeros(m), -1.0],
        A_ub=np.hstack([-np.eye(m), np.ones((m, 1))]),
        b_ub=np.zeros(m),
        A_eq=np.vstack(rows + [features]),
        b_eq=np.r_[rhs, target],
        bounds=[(None, None)] * m + [(-1.0, 1.0)],
        method="highs",
    )
    return -result.fun if result.status == 0 else -np.inf


def assert_infeasible_exactly_outside(config):
    """Check that a fit of ``config``'s experiment stops as infeasible exactly
    when the LP puts its target outside the moment set; return their number."""
    report = run_rate_experiment(config)
    status = {
        (n, rep): s
        for n, row in zip(config.n_grid, report.statuses)
        for rep, s in enumerate(row)
    }
    assert sum(report.fit_statuses.values()) == len(status)
    for name, count in report.fit_statuses.items():
        assert count == sum(1 for s in status.values() if s == name)

    inst = generate_instance(config.instance)
    outside = set()
    for i_n, n in enumerate(config.n_grid):
        for rep in range(config.replicates):
            seed = _cell_seed(config.data_seed, i_n, rep)
            counts = _sample_counts(inst.mdp, inst.expert, n, seed)
            target = empirical_feature_expectation(dataset_with_counts(counts), inst.features)
            eps = occupancy_lp_margin(inst.mdp, inst.features.phi, target)
            assert abs(eps) > 1e-6  # the LP verdict is clear of its own tolerances
            if eps < 0.0:
                outside.add((n, rep))
    assert outside == {cell for cell, s in status.items() if s == "infeasible"}
    assert len(outside) == report.non_converged
    return len(outside)


def test_infeasible_fits_are_exactly_the_targets_outside_the_moment_set():
    """On every target of the shipped rates experiment, a fit stops as
    infeasible exactly when the LP puts the target outside the moment set
    (here: never)."""
    section = json.loads(RATES_CONFIG.read_text())["rates"]
    config = RateConfig(
        instance=InstanceSpec(**section["instance"]),
        n_grid=tuple(section["n_grid"]),
        replicates=section["replicates"],
        data_seed=section["data_seed"],
    )
    assert assert_infeasible_exactly_outside(config) == 0


def test_infeasible_fits_at_small_n_are_exactly_the_targets_outside_the_moment_set():
    """At n = 16 and 32 on the shipped instance about a fifth of the targets
    lie outside the moment set; exactly those fits stop as infeasible."""
    config = RateConfig(instance=shipped_rates_spec(), n_grid=(16, 32), replicates=32, data_seed=1)
    assert assert_infeasible_exactly_outside(config) == 21


@pytest.mark.parametrize("seed", range(4))
def test_deterministic_targets_are_never_infeasible(seed):
    """Under deterministic dynamics every sample path is an occupancy, so an
    empirical target lies in the moment set at every n (on its boundary for
    small samples, where the fit may not converge but must not be called
    infeasible)."""
    for spec in (
        InstanceSpec(S=3, A=2, T=3, d=3, beta=0.7, seed=seed, deterministic=True),
        InstanceSpec(S=5, A=3, T=4, d=6, beta=0.5, seed=seed, deterministic=True),
    ):
        inst = generate_instance(spec)
        for n in (1, 2, 16):
            data = sample_trajectories(inst.mdp, inst.expert, n, seed=100 * seed + n)
            result = fit_empirical(inst.mdp, inst.features, data, FitConfig(beta=spec.beta))
            assert result.status != "infeasible", (spec, n)
