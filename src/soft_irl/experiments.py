"""Empirical studies: instance generation, rates, geometry and concentration.

Everything here is a pure function of its config (seeds included), so reports
are reproducible bit-for-bit and independent of how work is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from .mdp import (
    Mdp,
    Policy,
    feature_expectation,
    _as_float_array,
    _as_numbers,
    _check_count,
    _check_flag,
    _check_real,
    _check_sample_size,
    _check_seed,
    _sample_counts,
)
from .soft_dp import (
    _batch_trajectory_hellinger,
    _batch_trajectory_kl,
    _dots,
    _gibbs_probs,
    _log_gibbs,
    _path_max,
)
from .linear_reward import (
    FeatureMap,
    LinearRewardModel,
    geometry_constants,
    kernel_basis,
    solve_model,
    _batch_derivatives,
    _batch_soft_values,
    _dikin_radius,
    _identifiable_split,
    _score_bound,
)
from .opt import FIT_STATUSES, FitConfig, _fit_batch, _Start


# --------------------------------------------------------------------------
# scalar helper functions for the self-concordance bounds

_LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)  # exp overflows past this


def _exp(x: float) -> float:
    """``exp(x)``, ``+inf`` past the float range instead of an ``OverflowError``."""
    return math.exp(x) if x < _LOG_FLOAT_MAX else math.inf


def _guarded(x, exact, series):
    """``exact(x)``, with ``series(x)`` near zero, ``-1 / x`` below ``-2**53``
    (both functions' value to double precision, ``0`` at ``-inf``) and ``+inf``
    where ``exp(x)`` leaves the float range, each on its own entries only; a
    float for a scalar ``x``.  A NaN is a ``DomainError``."""
    x = _as_numbers(x, "x")
    if np.isnan(x).any():
        raise DomainError("x: entries must not be NaN")
    small, far = np.abs(x) < 1e-4, x < -(2.0**53)
    rest = ~small & ~far & (x < _LOG_FLOAT_MAX)
    out = np.full(x.shape, np.inf)
    out[small] = series(x[small])
    out[far] = -1.0 / x[far]
    out[rest] = exact(x[rest])
    return float(out) if out.ndim == 0 else out


def psi(x):
    """``(exp(x) - x - 1) / x**2`` with a series branch near zero.

    ``0`` at ``-inf``, ``+inf`` where ``exp(x)`` leaves the float range.
    """
    # expm1 keeps the numerator accurate where exp(x) - 1 - x would cancel
    return _guarded(x, lambda x: (np.expm1(x) - x) / x**2, lambda x: 0.5 + x / 6.0 + x**2 / 24.0)


def chi(x):
    """``(exp(x) - 1) / x`` with a series branch near zero.

    ``0`` at ``-inf``, ``+inf`` where ``exp(x)`` leaves the float range.
    """
    return _guarded(x, lambda x: np.expm1(x) / x, lambda x: 1.0 + x / 2.0 + x**2 / 6.0)


# --------------------------------------------------------------------------
# random instances


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for a random tabular instance.

    ``deterministic`` makes the initial state and every kernel row one-hot
    (random permutation maps), which kills all dynamics noise.
    ``exclude_kernel`` redraws the feature map until its
    :func:`linear_reward.kernel_basis` is empty.  The expert is either the
    Gibbs policy of a random parameter (``well_specified``) or a random
    softmax policy unrelated to the feature map (``random_softmax``).
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


def _identifiable_features(mdp: Mdp, spec: InstanceSpec) -> FeatureMap:
    """Draw N(0,1) features; if requested, redraw until the Hessian's kernel
    is empty (no unidentifiable parameter directions)."""
    for attempt in range(20):
        rng = _spawn_rng(spec.seed, 1, attempt)
        features = FeatureMap(phi=rng.normal(size=(mdp.T, mdp.S, mdp.A, spec.d)))
        if not spec.exclude_kernel or not (dimension := kernel_basis(mdp, features).shape[1]):
            return features
    raise InputError(
        f"could not draw identifiable features for spec {spec} (a Hessian kernel of "
        f"dimension {dimension}); reduce d or disable exclude_kernel"
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


def _count_averages(mdp: Mdp, expert: Policy, phi: np.ndarray, cells) -> np.ndarray:
    """The feature average of ``n`` expert trajectories for each ``(n, seed)``
    cell, stacked ``(len(cells), d)``, from visit counts drawn from their exact
    law: no trajectory is held, so a cell costs the same at any ``n``.

    One stacked product ``(cells, 1, T*S*A) @ (T*S*A, d)`` takes every
    average, which makes for each cell the ``gemv`` of its own
    :func:`~soft_irl.mdp._occupancy_average`, so each row has that call's bits.
    """
    counts = np.stack([_sample_counts(mdp, expert, n, seed) for n, seed in cells])
    sizes = np.array([n for n, _ in cells], dtype=np.float64)
    mu = counts.reshape(len(cells), 1, -1) / sizes[:, None, None]
    return (mu @ phi.reshape(mu.shape[-1], -1))[:, 0]


def _population_reference(mdp: Mdp, features: FeatureMap, expert: Policy, beta: float, cfg):
    """``(start, constants)`` of the population fit to ``expert`` at ``cfg``,
    whose temperature must be ``beta``: its last iterate as a start, which
    holds ``theta*``, ``J*(theta*)``, its gradient and the fit's own ``H*``,
    and the geometry constants at ``theta*`` (score bound over it and 0), but
    no ``pi*``.  The population fit is ``fit_population``'s, a batch of one."""
    if cfg.beta != beta:
        raise InputError("fit config temperature must match the instance temperature")
    target = feature_expectation(mdp, expert, features)
    population = _fit_batch(mdp, features, target[None], cfg)
    if population.status[0] != "converged":
        raise DomainError("population fit did not converge; cannot define theta_star")
    start = population.start(0, target)
    model = LinearRewardModel(features=features, theta=start.theta[0], B_theta=cfg.B_theta)
    constants = geometry_constants(mdp, features, model, beta, np.zeros((1, features.d)), expert)
    return start, constants


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
    # the fewest sizes a slope is fitted on: at least 2 and at most the grid's;
    # unset, 4, or every size of a shorter grid
    min_slope_points: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.n_grid, (list, tuple)) or len(self.n_grid) < 2:
            raise InputError(f"n_grid must list at least two sample sizes, got {self.n_grid!r}")
        n_grid = tuple(_check_sample_size(n, "each n_grid entry") for n in self.n_grid)
        if any(a >= b for a, b in zip(n_grid, n_grid[1:])):
            raise InputError(f"n_grid must be strictly increasing, got {n_grid!r}")
        _check_count(self.replicates, "replicates")
        _check_seed(self.data_seed)
        _check_real(self.burn_in_delta, "burn_in_delta", 0.0, 1.0)
        slope_points = self.min_slope_points
        if slope_points is None:
            slope_points = min(4, len(n_grid))
        elif _check_count(slope_points, "min_slope_points") < 2:
            raise InputError("min_slope_points must be at least 2: a slope needs two points")
        elif slope_points > len(n_grid):
            raise InputError(
                f"min_slope_points = {slope_points} is more than the {len(n_grid)} sizes of n_grid"
            )
        object.__setattr__(self, "n_grid", n_grid)
        object.__setattr__(self, "min_slope_points", int(slope_points))

    def fit_config(self) -> FitConfig:
        return self.fit if self.fit is not None else FitConfig(beta=self.instance.beta)


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
    """Everything produced by :func:`run_rate_experiment`.

    ``values[metric][i][rep]`` is the metric of replicate ``rep`` at
    ``config.n_grid[i]``, and ``statuses[i][rep]`` that fit's status, one of
    ``opt.FIT_STATUSES``.
    """

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
    values: dict  # metric -> (len(n_grid), replicates) nested tuple of floats
    statuses: tuple[tuple[str, ...], ...]  # (len(n_grid), replicates)
    medians: dict
    slopes: dict
    intercepts: dict
    d_star_beta_d_gap: float | None

    @property
    def fit_statuses(self) -> dict:
        """The number of fits per status, in ``opt.FIT_STATUSES`` order."""
        flat = [status for row in self.statuses for status in row]
        return {name: flat.count(name) for name in FIT_STATUSES}

    @property
    def non_converged(self) -> int:
        return sum(count for status, count in self.fit_statuses.items() if status != "converged")


def _rate_grid(
    instance: Instance, config: RateConfig, start: _Start
) -> tuple[dict[str, np.ndarray], np.ndarray, float]:
    """Each metric of :data:`RATE_METRICS`, and the fit status, of every
    replicate of every sample size of the grid, as arrays of shape
    ``(len(n_grid), replicates)``, and the floor ``KL(expert || pi*)``.

    Each replicate's feature average is drawn from its cell seed
    (:func:`_count_averages`); the whole grid is then fitted as one lockstep
    batch from ``start``, the population fit's last iterate ``theta*``, near
    which every target's minimizer lies.  The value pass over the fits takes
    ``theta*`` as its last row, and each metric is one array expression over
    the batch.  Every value is bit for bit that of a replicate fitted from
    ``start`` and measured alone.
    """
    mdp, features, expert = instance.mdp, instance.features, instance.expert
    beta = config.instance.beta
    cells = [
        (n, _cell_seed(config.data_seed, i_n, rep))
        for i_n, n in enumerate(config.n_grid)
        for rep in range(config.replicates)
    ]
    targets = _count_averages(mdp, expert, features.phi, cells)
    fits = _fit_batch(mdp, features, targets, config.fit_config(), start)
    thetas, theta_star, H_star = fits.theta, start.theta[0], start.hessian[0]
    points = np.vstack([thetas, theta_star])  # theta* last: its row gives pi* and the floor
    probs = _gibbs_probs(mdp, beta, _batch_soft_values(mdp, features.phi, beta, points)[0])
    pi_hat = probs[:, :-1]
    star_b = np.broadcast_to(probs[:, -1:], pi_hat.shape)
    expert_kl = _batch_trajectory_kl(mdp, np.broadcast_to(expert.probs[:, None], probs.shape), probs)
    expert_kl, approx_floor = expert_kl[:-1], expert_kl[-1]
    kl_star_to_hat = _batch_trajectory_kl(mdp, star_b, pi_hat)
    kl_hat_to_star = _batch_trajectory_kl(mdp, pi_hat, star_b)
    diff = thetas - theta_star
    values = {
        "expert_kl": expert_kl,
        "excess_kl": expert_kl - approx_floor,
        "param_err_hess": _dots((diff[:, None] @ H_star)[:, 0], diff),
        "kl_star_to_hat": kl_star_to_hat,
        "kl_hat_to_star": kl_hat_to_star,
        "sym_kl_star": kl_star_to_hat + kl_hat_to_star,
        "hellinger_star": _batch_trajectory_hellinger(mdp, star_b, pi_hat),
    }
    shape = (len(config.n_grid), config.replicates)
    status = fits.status.reshape(shape)
    return {metric: values[metric].reshape(shape) for metric in RATE_METRICS}, status, approx_floor


def run_rate_experiment(config: RateConfig) -> RateReport:
    """Measure how fast empirical fits approach the population solution.

    For each sample size in the grid and each replicate, draws the visit
    counts of ``n`` expert trajectories, fits the reward to their feature
    average, and records divergence metrics between the fitted Gibbs policy
    and both the expert and the population solution.  The grid's fits run as
    one lockstep batch, and its metrics and statuses stay ``(n, replicate)``
    arrays, which the report holds as nested tuples; the status counts and
    the per-``n`` medians of converged fits are read off them.  Log-log
    slopes are fitted on the medians over the post-burn-in part of the grid.
    """
    instance = generate_instance(config.instance)
    mdp, features, expert = instance.mdp, instance.features, instance.expert
    beta = config.instance.beta
    start, constants = _population_reference(mdp, features, expert, beta, config.fit_config())
    burn_in = float("nan")  # undefined, as d* is, for a singular Hessian at theta*
    if constants.lambda_star > 0.0:
        log_term = constants.B_A_phi**2 * constants.d_star * math.log(1.0 / config.burn_in_delta)
        burn_in = log_term / (beta**2 * constants.lambda_star)

    values, status, approx_floor = _rate_grid(instance, config, start)
    # Non-converged fits stay in the grid with their status but are left out
    # of the medians that the slopes are computed on.
    converged = status == "converged"
    medians = {
        metric: tuple(
            float(np.median(row[keep])) if keep.any() else float("nan")
            for row, keep in zip(values[metric], converged)
        )
        for metric in RATE_METRICS
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
        d_star_gap = abs(constants.d_star - target) / target

    return RateReport(
        config=config,
        theta_star=tuple(float(x) for x in start.theta[0]),
        lambda_star=constants.lambda_star,
        d_star=constants.d_star,
        B_phi=constants.B_phi,
        B_A_phi=constants.B_A_phi,
        rho_star=constants.rho_star,
        burn_in_n=float(burn_in),
        slope_window=slope_window,
        approx_floor_kl=float(approx_floor),
        values={metric: tuple(map(tuple, grid.tolist())) for metric, grid in values.items()},
        statuses=tuple(map(tuple, status.tolist())),
        medians=medians,
        slopes=slopes,
        intercepts=intercepts,
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
        # an infinite bound must not widen the tolerance of the other one
        finite = [abs(x) for x in (self.lower, self.value, self.upper) if math.isfinite(x)]
        tol = 1e-9 * max([1.0] + finite)
        return self.lower - tol <= self.value <= self.upper + tol


def _smallest_curvature(
    mdp: Mdp, features: FeatureMap, beta: float, H0: np.ndarray, caller: str
) -> float:
    """The smallest eigenvalue of the Hessian ``H0`` at ``theta0`` and
    temperature ``beta``, or a ``DomainError`` naming ``caller`` unless ``H0``
    is positive definite: above 0 and, within 1e-10 of the largest, with no
    kernel in the features' units (:func:`linear_reward._identifiable_split`,
    asked only there)."""
    w = np.linalg.eigvalsh(H0)
    if w[0] <= 0.0 or (
        w[0] <= 1e-10 * w[-1] and _identifiable_split(mdp, features.phi, H0, beta)[0].shape[1]
    ):
        raise DomainError(f"{caller} requires a positive-definite Hessian at theta0")
    return float(w[0])


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

    Everything comes from one value pass over the segment's
    ``_SEGMENT_POINTS`` parameters from ``theta0`` (its first row, exactly)
    to ``theta1``, plus ``theta1``: the values, gradients and Hessians at the
    two ends, their policies' log ratios, KL and Hellinger, and the score
    bound over the segment.  A ``beta`` whose values leave the float range
    is a ``DomainError`` naming it, with no warning.
    """
    beta = _check_real(beta, "beta", 0.0)
    theta0 = _as_float_array(theta0, "theta0", (features.d,))
    theta1 = _as_float_array(theta1, "theta1", (features.d,))
    delta = theta1 - theta0

    segment = theta0 + np.linspace(0.0, 1.0, _SEGMENT_POINTS)[:, None] * delta  # row 0 is theta0
    Q, V = _batch_soft_values(mdp, features.phi, beta, np.vstack([segment, theta1]))
    tables = _gibbs_probs(mdp, beta, Q)
    Q, V, probs = Q[:, [0, -1]], V[:, [0, -1]], tables[:, [0, -1]]  # at theta0 and theta1
    grads, (H0, H1) = _batch_derivatives(mdp, features.phi, beta, probs)
    lam0 = _smallest_curvature(mdp, features, beta, H0, "check_local_geometry")
    try:
        chol = np.linalg.cholesky(H0)
    except np.linalg.LinAlgError as err:
        # H0's Cholesky factorization fails when its smallest eigenvalue is
        # positive but lost in rounding
        raise DomainError(
            "check_local_geometry requires a positive-definite Hessian at theta0 "
            f"(smallest eigenvalue {lam0:.3e} is numerically singular)"
        ) from err
    # the eigenvalues of H1 in the metric of H0: those of L^-1 H1 L^-T, H0 = L L^T
    gen_eigs = np.linalg.eigvalsh(np.linalg.solve(chol, np.linalg.solve(chol, H1).T))

    B_A_phi = _score_bound(mdp, features.phi, tables[:, :-1])

    delta_h0 = float(np.sqrt(delta @ H0 @ delta))
    dikin = _dikin_radius(beta, lam0, B_A_phi)
    deviation = B_A_phi * float(np.linalg.norm(delta)) / beta
    local = delta_h0 <= dikin * (1.0 + 1e-12)

    # The initial and kernel factors of the two trajectory laws cancel, so the
    # log density ratio of a path is its sum of per-step policy log ratios;
    # its largest absolute value is the larger of two path maxima.
    log_pi = _log_gibbs(mdp, beta, Q)
    log_ratio = log_pi[:, 1] - log_pi[:, 0]
    max_log_ratio = float(_path_max(mdp, np.stack([log_ratio, -log_ratio], axis=1)).max())

    J0, J1 = _dots(mdp.initial_dist, V[0])
    bregman = float(J1 - J0 - float(delta @ grads[0]))
    gradient_gap = float(delta @ (grads[1] - grads[0]))
    sq = delta_h0**2

    # The local bounds are the global ones at deviation 1 (exp(1.0) == e).
    S = 1.0 if local else deviation
    checks = [
        GeometryCheck("density_ratio", 0.0, max_log_ratio, S),
        GeometryCheck("hessian_sandwich_min", math.exp(-S), float(gen_eigs.min()), math.inf),
        GeometryCheck("hessian_sandwich_max", 0.0, float(gen_eigs.max()), _exp(S)),
        GeometryCheck("bregman", psi(-S) * sq, bregman, psi(S) * sq),
        GeometryCheck("gradient_gap", chi(-S) * sq, gradient_gap, chi(S) * sq),
    ]
    if local:
        kl01 = float(_batch_trajectory_kl(mdp, probs[:, :1], probs[:, 1:])[0])
        hell = float(_batch_trajectory_hellinger(mdp, probs[:, :1], probs[:, 1:])[0])
        checks.append(GeometryCheck("kl_vs_hellinger", hell, kl01, 3.0 * hell))

    return GeometryCheckReport(
        mode="local" if local else "global",
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
    :func:`check_local_geometry` will recompute for the same pair.  One value
    pass at ``theta0`` gives ``H(theta0)`` and the first radius's score bound,
    and each round makes one more, over its segment.  A ``beta`` whose values
    leave the float range is a ``DomainError`` naming it, with no warning.
    """
    beta = _check_real(beta, "beta", 0.0)
    boundary_factor = _check_real(boundary_factor, "boundary_factor", 0.0)
    theta0 = _as_float_array(theta0, "theta0", (features.d,))
    direction = _as_float_array(direction, "direction", theta0.shape)
    # scaled by a power of two to entries below 1 in magnitude, so that its
    # H0-norm cannot overflow; the scaling is exact and leaves the unit vector's bits
    direction = np.ldexp(direction, -math.frexp(float(np.abs(direction).max()))[1])
    probs = _gibbs_probs(mdp, beta, _batch_soft_values(mdp, features.phi, beta, theta0[None])[0])
    H0 = _batch_derivatives(mdp, features.phi, beta, probs)[1][0]
    lam0 = _smallest_curvature(mdp, features, beta, H0, "dikin_boundary_pair")
    length = float(np.sqrt(direction @ H0 @ direction))
    if not length > 0.0:
        raise DomainError("dikin_boundary_pair requires a non-zero direction")
    unit = direction / length

    rho = _dikin_radius(beta, lam0, _score_bound(mdp, features.phi, probs))
    for _ in range(8):
        alphas = np.linspace(0.0, 1.0, _SEGMENT_POINTS)
        thetas = theta0 + alphas[:, None] * (boundary_factor * rho) * unit
        probs = _gibbs_probs(mdp, beta, _batch_soft_values(mdp, features.phi, beta, thetas)[0])
        new_rho = _dikin_radius(beta, lam0, _score_bound(mdp, features.phi, probs))
        if abs(new_rho - rho) <= 1e-12 * rho:
            rho = new_rho
            break
        if new_rho > rho:
            break  # rho stays put, so every later round would rebuild this segment
        # move monotonically downward so the final segment's own bound is valid
        rho = new_rho
    length = boundary_factor * rho
    theta1 = theta0 + length * unit
    # theta1 - theta0, as check_local_geometry measures it, keeps only the
    # digits of the step above theta1's ulp.  Where that takes the measure
    # over a tenth of the checker's 1e-12 tolerance (its radius can sit a few
    # ulps below rho), shorten the step by the most H0-norm the rounding adds.
    delta = theta1 - theta0
    if float(np.sqrt(delta @ H0 @ delta)) > length * (1.0 + 1e-13):
        rounding = math.sqrt(np.linalg.norm(H0, 2)) * np.linalg.norm(np.spacing(np.abs(theta1)))
        theta1 = theta0 + (length - rounding) * unit
    return theta1


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
    at most ``delta`` (plus binomial noise).  The trials are cells of the rate
    grid's draw (:func:`_count_averages`), a seed each, and their ``eta_n`` is
    one solve against the Cholesky factor of ``H*``.  ``n`` and ``trials``
    must be positive integers, ``n`` below ``2**63`` (a ``DomainError``
    otherwise), ``delta`` a number in ``(0, 1)``, ``seed`` a non-negative
    integer and ``fit_config``'s temperature ``beta``; anything else raises an
    ``InputError`` before any work.
    """
    _check_sample_size(n, "n")
    _check_count(trials, "trials")
    _check_real(delta, "delta", 0.0, 1.0)
    _check_seed(seed)
    cfg = fit_config if fit_config is not None else FitConfig(beta=beta)
    start, constants = _population_reference(mdp, features, expert, beta, cfg)
    lambda_star = constants.lambda_star
    if math.isnan(constants.d_star):
        raise DomainError("concentration bound requires a positive-definite Hessian")

    log_inv_delta = math.log(1.0 / delta)
    bound = math.sqrt(2.0 * constants.d_star * log_inv_delta / n) + (
        4.0 * constants.B_phi * log_inv_delta / (math.sqrt(lambda_star) * n)
    )
    cells = [(n, _cell_seed(seed, trial)) for trial in range(trials)]
    diffs = _count_averages(mdp, expert, features.phi, cells)
    diffs -= feature_expectation(mdp, expert, features)
    chol = np.linalg.cholesky(start.hessian[0])
    etas = np.linalg.norm(np.linalg.solve(chol, diffs.T), axis=0)

    violations = int((etas > bound).sum())
    frequency = violations / trials
    threshold = delta + 2.0 * math.sqrt(delta * (1.0 - delta) / trials)
    return ConcentrationReport(
        n=int(n),
        delta=float(delta),
        trials=int(trials),
        d_star=constants.d_star,
        lambda_star=lambda_star,
        B_phi=constants.B_phi,
        bound=float(bound),
        violation_frequency=float(frequency),
        frequency_threshold=float(threshold),
        median_eta=float(np.median(etas)),
        max_eta=float(etas.max()),
        etas=tuple(float(x) for x in etas),
    )
