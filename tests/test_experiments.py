"""Tests for instance generation, geometry/concentration checks and rates."""

import dataclasses
import math

import numpy as np
import pytest

from soft_irl import (
    FitConfig,
    InputError,
    InstanceSpec,
    Policy,
    RATE_METRICS,
    RateConfig,
    check_concentration,
    check_local_geometry,
    chi,
    derivative_bundle,
    dikin_boundary_pair,
    generate_instance,
    psi,
    run_rate_experiment,
    solve_model,
)
from soft_irl.linear_reward import LinearRewardModel

TINY = InstanceSpec(S=3, A=2, T=3, d=3, beta=0.7, seed=1)


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


def test_dikin_boundary_pair_scores_each_segment_once(monkeypatch):
    """Once a round's radius stops shrinking, the fixed-point loop ends."""
    from soft_irl import experiments

    spec = InstanceSpec(S=5, A=3, T=4, d=6, beta=0.5, seed=5)  # the configs/rates.json instance
    inst = generate_instance(spec)
    rng = np.random.default_rng(2605)
    pairs = [(0.5 * rng.normal(size=spec.d), rng.normal(size=spec.d)) for _ in range(3)]
    theta0, direction = pairs[2]  # this pair's radius grows after its second round

    segments = []
    score_norm = experiments.max_score_norm

    def recording(mdp, features, beta, thetas, states, actions):
        segments.append(np.asarray(thetas).tobytes())
        return score_norm(mdp, features, beta, thetas, states, actions)

    monkeypatch.setattr(experiments, "max_score_norm", recording)
    theta1 = dikin_boundary_pair(inst.mdp, inst.features, spec.beta, theta0, direction)
    assert len(segments) == len(set(segments))
    report = check_local_geometry(inst.mdp, inst.features, spec.beta, theta0, theta1)
    assert report.mode == "local" and report.all_passed


def test_geometry_requires_definite_hessian():
    from soft_irl import DomainError, FeatureMap, Mdp

    mdp = generate_instance(TINY).mdp
    constant = FeatureMap(phi=np.ones((TINY.T, TINY.S, TINY.A, 2)))
    with pytest.raises(DomainError, match="positive-definite"):
        check_local_geometry(mdp, constant, TINY.beta, np.zeros(2), np.ones(2))


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


# ---------------------------------------------------------------------------
# rate experiment


def test_rate_experiment_reproducible():
    cfg = RateConfig(instance=TINY, n_grid=(64, 128), replicates=3, data_seed=2)
    a = run_rate_experiment(cfg)
    b = run_rate_experiment(cfg)
    assert a.records == b.records
    assert a.slopes == b.slopes
    assert a.medians == b.medians
    assert a.theta_star == b.theta_star


def test_rate_records_are_complete_and_nonnegative():
    cfg = RateConfig(instance=TINY, n_grid=(64, 128), replicates=3, data_seed=2)
    report = run_rate_experiment(cfg)
    assert len(report.records) == len(RATE_METRICS) * 2 * 3
    for record in report.records:
        assert record.metric in RATE_METRICS
        if record.converged:
            assert record.value >= -1e-12
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


def test_rate_experiment_rejects_mismatched_fit_temperature():
    cfg = RateConfig(
        instance=TINY, n_grid=(64, 128), replicates=2, data_seed=2, fit=FitConfig(beta=1.0)
    )
    with pytest.raises(InputError, match="temperature"):
        run_rate_experiment(cfg)
