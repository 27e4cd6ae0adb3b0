"""Empirical studies: instance generation, rates, geometry and concentration.

Everything here is a pure function of its config (seeds included), so reports
are reproducible bit-for-bit and independent of how work is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DomainError, InputError
from .mdp import (
    Mdp,
    Policy,
    batch_trajectory_probs,
    empirical_feature_expectation,
    enumerate_support,
    feature_expectation,
    sample_trajectories,
    uniform_policy,
    _check_count,
    _check_flag,
    _check_real,
    _check_seed,
)
from .soft_dp import trajectory_hellinger, trajectory_kl
from .linear_reward import (
    FeatureMap,
    LinearRewardModel,
    derivative_bundle,
    effective_dimension,
    kernel_basis,
    max_cumulative_feature_norm,
    max_score_norm,
    solve_model,
)
from .opt import FitConfig, fit_empirical, fit_population


# --------------------------------------------------------------------------
# scalar helper functions for the self-concordance bounds


def psi(x):
    """``(exp(x) - x - 1) / x**2`` with a series branch near zero."""
    x = np.asarray(x, dtype=np.float64)
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    # expm1 keeps the numerator accurate where exp(x) - 1 - x would cancel
    exact = (np.expm1(safe) - safe) / safe**2
    series = 0.5 + x / 6.0 + x**2 / 24.0
    out = np.where(small, series, exact)
    return float(out) if out.ndim == 0 else out


def chi(x):
    """``(exp(x) - 1) / x`` with a series branch near zero."""
    x = np.asarray(x, dtype=np.float64)
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    exact = np.expm1(safe) / safe
    series = 1.0 + x / 2.0 + x**2 / 6.0
    out = np.where(small, series, exact)
    return float(out) if out.ndim == 0 else out


# --------------------------------------------------------------------------
# random instances


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for a random tabular instance.

    ``deterministic`` makes the initial state and every kernel row one-hot
    (random permutation maps), which kills all dynamics noise.
    ``exclude_kernel`` post-conditions the feature map on an identifiable
    parameterization (positive-definite Hessian at zero).  The expert is
    either the Gibbs policy of a random parameter (``well_specified``) or a
    random softmax policy unrelated to the feature map (``random_softmax``).
    """

    S: int = 5
    A: int = 3
    T: int = 4
    d: int = 6
    beta: float = 0.5
    seed: int = 0
    deterministic: bool = False
    exclude_kernel: bool = True
    expert_kind: str = "well_specified"
    expert_theta_scale: float = 1.0
    expert_temperature: float = 1.0

    def __post_init__(self) -> None:
        for name in ("S", "A", "T", "d"):
            _check_count(getattr(self, name), f"InstanceSpec.{name}")
        _check_real(self.beta, "InstanceSpec.beta", 0.0)
        _check_seed(self.seed)
        for name in ("deterministic", "exclude_kernel"):
            _check_flag(getattr(self, name), f"InstanceSpec.{name}")
        if self.expert_kind not in ("well_specified", "random_softmax"):
            raise InputError(f"unknown expert_kind {self.expert_kind!r}")
        _check_real(self.expert_theta_scale, "InstanceSpec.expert_theta_scale")
        _check_real(self.expert_temperature, "InstanceSpec.expert_temperature", 0.0)


@dataclass(frozen=True, eq=False)
class Instance:
    """A generated problem: dynamics, features and the demonstrating expert."""

    mdp: Mdp
    features: FeatureMap
    expert: Policy
    theta_expert: np.ndarray | None
    spec: InstanceSpec


def _spawn_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def _hessian_at_zero(mdp: Mdp, features: FeatureMap, beta: float) -> np.ndarray:
    model0 = LinearRewardModel(features=features, theta=np.zeros(features.d))
    return derivative_bundle(mdp, model0, beta).hessian


def _identifiable_features(mdp: Mdp, spec: InstanceSpec) -> FeatureMap:
    """Draw N(0,1) features; if requested, retry/project until the Hessian at
    zero is positive definite (no unidentifiable parameter directions)."""
    last_error = None
    for attempt in range(20):
        rng = _spawn_rng(spec.seed, 1, attempt)
        phi = rng.normal(size=(mdp.T, mdp.S, mdp.A, spec.d))
        features = FeatureMap(phi=phi)
        if not spec.exclude_kernel:
            return features
        H0 = _hessian_at_zero(mdp, features, spec.beta)
        kernel = kernel_basis(H0)
        if kernel.shape[1] > 0:
            # remove the unidentifiable component and re-check
            phi = phi - phi @ kernel @ kernel.T
            features = FeatureMap(phi=phi)
            H0 = _hessian_at_zero(mdp, features, spec.beta)
        eigvals = np.linalg.eigvalsh(H0)
        if eigvals[0] > 1e-8 * max(eigvals[-1], 1e-300):
            return features
        last_error = f"min/max Hessian eigenvalues {eigvals[0]:.3e}/{eigvals[-1]:.3e}"
    raise InputError(
        f"could not draw identifiable features for spec {spec} ({last_error}); "
        "reduce d or disable exclude_kernel"
    )


def generate_instance(spec: InstanceSpec) -> Instance:
    """Generate the seeded random instance described by ``spec``."""
    rng = _spawn_rng(spec.seed, 0)
    if spec.deterministic:
        initial = np.zeros(spec.S)
        initial[int(rng.integers(spec.S))] = 1.0
        kernels = np.zeros((spec.T - 1, spec.S, spec.A, spec.S))
        eye = np.eye(spec.S)
        for t in range(spec.T - 1):
            for a in range(spec.A):
                kernels[t, :, a, :] = eye[rng.permutation(spec.S)]
    else:
        initial = rng.dirichlet(np.ones(spec.S))
        kernels = rng.dirichlet(np.ones(spec.S), size=(spec.T - 1, spec.S, spec.A))
    mdp = Mdp(
        T=spec.T,
        S=spec.S,
        A=spec.A,
        initial_dist=initial,
        kernels=kernels,
        ref_measure=np.ones(spec.A),
    )

    features = _identifiable_features(mdp, spec)

    rng_expert = _spawn_rng(spec.seed, 2)
    if spec.expert_kind == "well_specified":
        theta_expert = spec.expert_theta_scale * rng_expert.normal(size=spec.d)
        model = LinearRewardModel(features=features, theta=theta_expert)
        expert_probs = solve_model(mdp, model, spec.beta).pi_star.probs
        expert = Policy(probs=expert_probs, label=f"gibbs-expert(seed={spec.seed})")
    else:
        theta_expert = None
        logits = rng_expert.normal(size=(spec.T, spec.S, spec.A)) / spec.expert_temperature
        probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        expert = Policy(probs=probs, label=f"random-softmax(seed={spec.seed})")
    return Instance(mdp=mdp, features=features, expert=expert, theta_expert=theta_expert, spec=spec)


def _cell_seed(seed: int, *key: int) -> int:
    """Derive a 64-bit child seed for one unit of work."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1, dtype=np.uint64)[0])


# --------------------------------------------------------------------------
# convergence-rate experiment


_DEFAULT_N_GRID = tuple(2**k for k in range(6, 15))


@dataclass(frozen=True)
class RateConfig:
    """Settings of a convergence-rate experiment (a pure function input)."""

    instance: InstanceSpec = InstanceSpec()
    n_grid: tuple[int, ...] = _DEFAULT_N_GRID
    replicates: int = 32
    data_seed: int = 1
    fit: FitConfig | None = None
    burn_in_delta: float = 0.1
    min_slope_points: int = 4

    def __post_init__(self) -> None:
        if not isinstance(self.n_grid, (list, tuple)) or len(self.n_grid) < 2:
            raise InputError(f"n_grid must list at least two sample sizes, got {self.n_grid!r}")
        n_grid = tuple(_check_count(n, "each n_grid entry") for n in self.n_grid)
        if sorted(n_grid) != list(n_grid):
            raise InputError("n_grid must be increasing")
        _check_count(self.replicates, "replicates")
        _check_seed(self.data_seed)
        _check_real(self.burn_in_delta, "burn_in_delta", 0.0, 1.0)
        if _check_count(self.min_slope_points, "min_slope_points") < 2:
            raise InputError("min_slope_points must be at least 2: a slope needs two points")
        object.__setattr__(self, "n_grid", n_grid)

    def fit_config(self) -> FitConfig:
        return self.fit if self.fit is not None else FitConfig(beta=self.instance.beta)


@dataclass(frozen=True)
class RateRecord:
    metric: str
    n: int
    replicate: int
    value: float
    converged: bool


RATE_METRICS = (
    "expert_kl",
    "excess_kl",
    "param_err_hess",
    "kl_star_to_hat",
    "kl_hat_to_star",
    "sym_kl_star",
    "hellinger_star",
)

SLOPE_METRICS = ("expert_kl", "excess_kl", "param_err_hess", "sym_kl_star", "hellinger_star")


@dataclass(frozen=True)
class RateReport:
    """Everything produced by :func:`run_rate_experiment`."""

    config: RateConfig
    theta_star: tuple[float, ...]
    lambda_star: float
    d_star: float
    B_phi: float
    B_A_phi: float
    rho_star: float
    burn_in_n: float
    slope_window: tuple[int, ...]
    approx_floor_kl: float
    records: tuple[RateRecord, ...]
    medians: dict
    slopes: dict
    intercepts: dict
    non_converged: int
    d_star_beta_d_gap: float | None

    def median(self, metric: str, n: int) -> float:
        return self.medians[metric][self.config.n_grid.index(n)]


def _rate_cell(
    instance: Instance,
    fit_cfg: FitConfig,
    theta_star: np.ndarray,
    H_star: np.ndarray,
    pi_star: Policy,
    approx_floor: float,
    n: int,
    seed: int,
) -> tuple[dict, bool]:
    mdp, features, expert = instance.mdp, instance.features, instance.expert
    data = sample_trajectories(mdp, expert, n, seed)
    result = fit_empirical(mdp, features, data, fit_cfg)
    model_hat = LinearRewardModel(features=features, theta=result.theta_hat, B_theta=fit_cfg.B_theta)
    pi_hat = solve_model(mdp, model_hat, fit_cfg.beta).pi_star

    diff = result.theta_hat - theta_star
    expert_kl = trajectory_kl(mdp, expert, pi_hat)
    kl_star_to_hat = trajectory_kl(mdp, pi_star, pi_hat)
    kl_hat_to_star = trajectory_kl(mdp, pi_hat, pi_star)
    values = {
        "expert_kl": expert_kl,
        "excess_kl": expert_kl - approx_floor,
        "param_err_hess": float(diff @ H_star @ diff),
        "kl_star_to_hat": kl_star_to_hat,
        "kl_hat_to_star": kl_hat_to_star,
        "sym_kl_star": kl_star_to_hat + kl_hat_to_star,
        "hellinger_star": trajectory_hellinger(mdp, pi_star, pi_hat),
    }
    return values, result.converged


def run_rate_experiment(config: RateConfig) -> RateReport:
    """Measure how fast empirical fits approach the population solution.

    For each sample size in the grid and each replicate, draws a dataset from
    the expert, fits the reward, and records divergence metrics between the
    fitted Gibbs policy and both the expert and the population solution.
    Log-log slopes are fitted on per-``n`` medians over the post-burn-in part
    of the grid.
    """
    instance = generate_instance(config.instance)
    mdp, features, expert = instance.mdp, instance.features, instance.expert
    beta = config.instance.beta
    fit_cfg = config.fit_config()
    if fit_cfg.beta != beta:
        raise InputError("fit config temperature must match the instance temperature")

    population = fit_population(mdp, features, expert, fit_cfg)
    if not population.converged:
        raise DomainError("population fit did not converge; cannot define theta_star")
    theta_star = population.theta_hat
    H_star = population.hessian_at_solution
    lambda_star = float(np.linalg.eigvalsh(H_star).min())
    model_star = LinearRewardModel(features=features, theta=theta_star, B_theta=fit_cfg.B_theta)
    pi_star = solve_model(mdp, model_star, beta).pi_star
    approx_floor = trajectory_kl(mdp, expert, pi_star)

    ed = effective_dimension(mdp, features, expert, H_star)
    support_states, support_actions, _ = enumerate_support(mdp, uniform_policy(mdp))
    B_phi = max_cumulative_feature_norm(features, support_states, support_actions)
    B_A_phi = max_score_norm(
        mdp, features, beta, [theta_star, np.zeros(features.d)], support_states, support_actions
    )
    rho_star = beta * math.sqrt(max(lambda_star, 0.0)) / B_A_phi if B_A_phi > 0 else float("inf")
    burn_in = (
        B_A_phi**2 * ed.d_star * math.log(1.0 / config.burn_in_delta) / (beta**2 * lambda_star)
    )

    records = []
    non_converged = 0
    for i_n, n in enumerate(config.n_grid):
        for rep in range(config.replicates):
            seed = _cell_seed(config.data_seed, i_n, rep)
            values, converged = _rate_cell(
                instance, fit_cfg, theta_star, H_star, pi_star, approx_floor, n, seed
            )
            non_converged += 0 if converged else 1
            records.extend(
                RateRecord(metric=m, n=n, replicate=rep, value=values[m], converged=converged)
                for m in RATE_METRICS
            )

    def _median(metric: str, n: int) -> float:
        # Non-converged fits stay in the records as flagged rows but are left
        # out of the medians that the slopes are computed on.
        values = [r.value for r in records if r.metric == metric and r.n == n and r.converged]
        return float(np.median(values)) if values else float("nan")

    medians = {
        metric: tuple(_median(metric, n) for n in config.n_grid) for metric in RATE_METRICS
    }

    window = [n for n in config.n_grid if n >= burn_in]
    if len(window) < config.min_slope_points:
        window = list(config.n_grid[-config.min_slope_points :])
    slope_window = tuple(window)
    window_idx = [config.n_grid.index(n) for n in slope_window]

    slopes, intercepts = {}, {}
    for metric in SLOPE_METRICS:
        ys = np.array([medians[metric][i] for i in window_idx])
        if np.any(~np.isfinite(ys)) or np.any(ys <= 0.0):  # empty or exactly-zero medians
            slopes[metric] = float("nan")
            intercepts[metric] = float("nan")
            continue
        coeffs = np.polyfit(np.log(np.asarray(slope_window, dtype=np.float64)), np.log(ys), 1)
        slopes[metric] = float(coeffs[0])
        intercepts[metric] = float(coeffs[1])

    d_star_gap = None
    if config.instance.deterministic and config.instance.expert_kind == "well_specified":
        target = beta * features.d
        d_star_gap = abs(ed.d_star - target) / target

    return RateReport(
        config=config,
        theta_star=tuple(float(x) for x in theta_star),
        lambda_star=lambda_star,
        d_star=ed.d_star,
        B_phi=B_phi,
        B_A_phi=B_A_phi,
        rho_star=rho_star,
        burn_in_n=float(burn_in),
        slope_window=slope_window,
        approx_floor_kl=float(approx_floor),
        records=tuple(records),
        medians=medians,
        slopes=slopes,
        intercepts=intercepts,
        non_converged=non_converged,
        d_star_beta_d_gap=d_star_gap,
    )


# --------------------------------------------------------------------------
# local geometry checks


_SEGMENT_POINTS = 17  # parameters per segment over which the score bound is maximized


@dataclass(frozen=True)
class GeometryCheck:
    name: str
    lower: float
    value: float
    upper: float

    @property
    def passed(self) -> bool:
        tol = 1e-9 * max(1.0, abs(self.lower), abs(self.value), abs(self.upper))
        return self.lower - tol <= self.value <= self.upper + tol


@dataclass(frozen=True)
class GeometryCheckReport:
    """Inequality checks between two parameters; see :func:`check_local_geometry`."""

    mode: str
    delta_h0_norm: float
    dikin_radius: float
    deviation_bound: float
    B_A_phi: float
    checks: tuple[GeometryCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)


def check_local_geometry(
    mdp: Mdp,
    features: FeatureMap,
    beta: float,
    theta0: np.ndarray,
    theta1: np.ndarray,
) -> GeometryCheckReport:
    """Verify the curvature/divergence inequalities between two parameters.

    Inside the trust region (the ``theta1`` displacement at most the Dikin
    radius in ``H(theta0)`` norm) the absolute-constant bounds are checked:
    log density ratios within 1, Hessian sandwich within a factor ``e``,
    Bregman divergence and gradient gap within fixed multiples of the squared
    displacement, and KL within [1, 3] times squared Hellinger.  Outside it,
    the deviation-dependent global bounds are checked instead.
    """
    theta0 = np.asarray(theta0, dtype=np.float64)
    theta1 = np.asarray(theta1, dtype=np.float64)
    delta = theta1 - theta0

    bundle0 = derivative_bundle(mdp, LinearRewardModel(features=features, theta=theta0), beta)
    bundle1 = derivative_bundle(mdp, LinearRewardModel(features=features, theta=theta1), beta)
    H0, H1 = bundle0.hessian, bundle1.hessian
    lam0 = float(np.linalg.eigvalsh(H0).min())
    if lam0 <= 0.0:
        raise DomainError("check_local_geometry requires a positive-definite Hessian at theta0")

    states, actions, _ = enumerate_support(mdp, uniform_policy(mdp))
    alphas = np.linspace(0.0, 1.0, _SEGMENT_POINTS)
    thetas = [theta0 + a * delta for a in alphas]
    B_A_phi = max_score_norm(mdp, features, beta, thetas, states, actions)

    delta_h0 = float(np.sqrt(delta @ H0 @ delta))
    dikin = beta * math.sqrt(lam0) / B_A_phi if B_A_phi > 0 else float("inf")
    deviation = B_A_phi * float(np.linalg.norm(delta)) / beta
    local = delta_h0 <= dikin * (1.0 + 1e-12)

    pi0 = solve_model(mdp, LinearRewardModel(features=features, theta=theta0), beta).pi_star
    pi1 = solve_model(mdp, LinearRewardModel(features=features, theta=theta1), beta).pi_star

    p0 = batch_trajectory_probs(mdp, pi0, states, actions)
    p1 = batch_trajectory_probs(mdp, pi1, states, actions)
    max_log_ratio = float(np.abs(np.log(p1) - np.log(p0)).max())

    gen_eigs = scipy.linalg.eigh(H1, H0, eigvals_only=True)
    bregman = bundle1.J_star - bundle0.J_star - float(delta @ bundle0.grad)
    gradient_gap = float(delta @ (bundle1.grad - bundle0.grad))
    sq = delta_h0**2

    checks: list[GeometryCheck]
    if local:
        kl01 = trajectory_kl(mdp, pi0, pi1)
        hell = trajectory_hellinger(mdp, pi0, pi1)
        checks = [
            GeometryCheck("density_ratio", 0.0, max_log_ratio, 1.0),
            GeometryCheck("hessian_sandwich_min", math.exp(-1.0), float(gen_eigs.min()), math.inf),
            GeometryCheck("hessian_sandwich_max", 0.0, float(gen_eigs.max()), math.e),
            GeometryCheck("bregman", psi(-1.0) * sq, bregman, psi(1.0) * sq),
            GeometryCheck("gradient_gap", chi(-1.0) * sq, gradient_gap, chi(1.0) * sq),
            GeometryCheck("kl_vs_hellinger", hell, kl01, 3.0 * hell),
        ]
        mode = "local"
    else:
        S = deviation
        checks = [
            GeometryCheck("density_ratio", 0.0, max_log_ratio, S),
            GeometryCheck("hessian_sandwich_min", math.exp(-S), float(gen_eigs.min()), math.inf),
            GeometryCheck("hessian_sandwich_max", 0.0, float(gen_eigs.max()), math.exp(S)),
            GeometryCheck("bregman", psi(-S) * sq, bregman, psi(S) * sq),
            GeometryCheck("gradient_gap", chi(-S) * sq, gradient_gap, chi(S) * sq),
        ]
        mode = "global"

    return GeometryCheckReport(
        mode=mode,
        delta_h0_norm=delta_h0,
        dikin_radius=dikin,
        deviation_bound=deviation,
        B_A_phi=B_A_phi,
        checks=tuple(checks),
    )


def dikin_boundary_pair(
    mdp: Mdp,
    features: FeatureMap,
    beta: float,
    theta0: np.ndarray,
    direction: np.ndarray,
    boundary_factor: float = 1.0,
) -> np.ndarray:
    """Place ``theta1`` along ``direction`` at ``boundary_factor`` times the
    Dikin radius (in ``H(theta0)`` norm).

    The radius depends on the score bound over the segment being constructed,
    so a short fixed-point iteration is used; for ``boundary_factor <= 1`` the
    result is guaranteed to sit inside (or exactly on) the trust region that
    :func:`check_local_geometry` will recompute for the same pair.
    """
    theta0 = np.asarray(theta0, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    H0 = derivative_bundle(mdp, LinearRewardModel(features=features, theta=theta0), beta).hessian
    lam0 = float(np.linalg.eigvalsh(H0).min())
    if lam0 <= 0.0:
        raise DomainError("dikin_boundary_pair requires a positive-definite Hessian at theta0")
    unit = direction / float(np.sqrt(direction @ H0 @ direction))

    states, actions, _ = enumerate_support(mdp, uniform_policy(mdp))
    rho = beta * math.sqrt(lam0) / max_score_norm(mdp, features, beta, [theta0], states, actions)
    for _ in range(8):
        alphas = np.linspace(0.0, 1.0, _SEGMENT_POINTS)
        thetas = [theta0 + a * (boundary_factor * rho) * unit for a in alphas]
        B = max_score_norm(mdp, features, beta, thetas, states, actions)
        new_rho = beta * math.sqrt(lam0) / B
        if abs(new_rho - rho) <= 1e-12 * rho:
            rho = new_rho
            break
        if new_rho > rho:
            break  # rho stays put, so every later round would rebuild this segment
        # move monotonically downward so the final segment's own bound is valid
        rho = new_rho
    return theta0 + (boundary_factor * rho) * unit


# --------------------------------------------------------------------------
# concentration of the empirical feature expectation


@dataclass(frozen=True)
class ConcentrationReport:
    """Observed violation frequency of the feature-deviation bound."""

    n: int
    delta: float
    trials: int
    d_star: float
    lambda_star: float
    B_phi: float
    bound: float
    violation_frequency: float
    frequency_threshold: float
    median_eta: float
    max_eta: float
    etas: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return self.violation_frequency <= self.frequency_threshold


def check_concentration(
    mdp: Mdp,
    features: FeatureMap,
    beta: float,
    expert: Policy,
    n: int,
    delta: float = 0.1,
    trials: int = 500,
    seed: int = 0,
    fit_config: FitConfig | None = None,
) -> ConcentrationReport:
    """Estimate how often the dual-norm feature deviation exceeds its bound.

    ``eta_n`` is the deviation of the empirical feature average from its
    expectation, measured in the inverse-Hessian norm at the population
    solution; the bound is ``sqrt(2 d* log(1/delta) / n) +
    4 B_phi log(1/delta) / (sqrt(lambda*) n)`` and should fail with frequency
    at most ``delta`` (plus binomial noise).  ``n`` and ``trials`` must be
    positive integers, ``delta`` a number in ``(0, 1)`` and ``seed`` a
    non-negative integer; anything else raises an ``InputError`` before any
    work.
    """
    _check_count(n, "n")
    _check_count(trials, "trials")
    _check_real(delta, "delta", 0.0, 1.0)
    _check_seed(seed)
    cfg = fit_config if fit_config is not None else FitConfig(beta=beta)
    population = fit_population(mdp, features, expert, cfg)
    if not population.converged:
        raise DomainError("population fit did not converge")
    H_star = population.hessian_at_solution
    lambda_star = float(np.linalg.eigvalsh(H_star).min())
    if lambda_star <= 1e-10:
        raise DomainError("concentration bound requires a positive-definite Hessian")

    ed = effective_dimension(mdp, features, expert, H_star)
    states, actions, _ = enumerate_support(mdp, uniform_policy(mdp))
    B_phi = max_cumulative_feature_norm(features, states, actions)

    target = feature_expectation(mdp, expert, features)
    chol = scipy.linalg.cholesky(H_star, lower=True)
    log_inv_delta = math.log(1.0 / delta)
    bound = math.sqrt(2.0 * ed.d_star * log_inv_delta / n) + 4.0 * B_phi * log_inv_delta / (
        math.sqrt(lambda_star) * n
    )

    etas = np.empty(trials)
    for trial in range(trials):
        data = sample_trajectories(mdp, expert, n, _cell_seed(seed, trial))
        diff = empirical_feature_expectation(data, features) - target
        etas[trial] = float(
            np.linalg.norm(scipy.linalg.solve_triangular(chol, diff, lower=True))
        )

    violations = int((etas > bound).sum())
    frequency = violations / trials
    threshold = delta + 2.0 * math.sqrt(delta * (1.0 - delta) / trials)
    return ConcentrationReport(
        n=int(n),
        delta=float(delta),
        trials=int(trials),
        d_star=ed.d_star,
        lambda_star=lambda_star,
        B_phi=B_phi,
        bound=float(bound),
        violation_frequency=float(frequency),
        frequency_threshold=float(threshold),
        median_eta=float(np.median(etas)),
        max_eta=float(etas.max()),
        etas=tuple(float(x) for x in etas),
    )
