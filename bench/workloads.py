"""The benchmark's workloads, run in-process through soft_irl's public entry points.

Each workload builds its inputs in :meth:`setup` (which also warms up the code
paths it times) and returns its timed operations from :meth:`operations`.  An
operation is a pair ``(run, check)``: only ``run`` is timed; ``check`` takes
its return value and gives ``(reported_ok, verified)``, where ``reported_ok``
says whether the program itself reported success and ``verified`` whether
the output agrees with the oracle or with a property the method must have.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

import oracle
import soft_irl.mdp
from soft_irl import cli, experiments, linear_reward, opt

ROOT = Path(__file__).resolve().parent.parent
RATES_CONFIG = ROOT / "configs" / "rates.json"
FEATURE_TOL = 1e-8
SLOPE_RANGE = (-1.25, -0.75)
RADIUS_RTOL = 1e-12


def oracle_problem(instance):
    mdp = instance.mdp
    return mdp.initial_dist, mdp.kernels, instance.features.phi, mdp.ref_measure


def dataset_arrays(data):
    """``(n, T)`` state and action arrays of a dataset.

    Takes both a dataset of ``Trajectory`` objects and one that holds the
    arrays itself, the layout ROADMAP.md plans, so the oracle check keeps
    working across that change.
    """
    if hasattr(data, "states"):
        return np.asarray(data.states), np.asarray(data.actions)
    return data.stacked()


def seeded_order(operations, seed):
    """The operations in an order drawn from ``seed``."""
    return [operations[i] for i in np.random.default_rng(seed).permutation(len(operations))]


def rates_instance_spec():
    return experiments.InstanceSpec(**json.loads(RATES_CONFIG.read_text())["rates"]["instance"])


def source_digest():
    """SHA-256 of the package sources and the rates config."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "soft_irl").rglob("*.py")) + [RATES_CONFIG]:
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Rates:
    """``soft-irl rates --config configs/rates.json``: one whole experiment per operation.

    Every input is fixed by the shipped config, so ``seed`` is not used.
    ``rates.json`` must be byte-identical to the one written before it from
    the same sources: by an earlier pass, or by an earlier run in the same
    checkout (``source.sha256`` beside it records which sources wrote it).
    """

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir / "rates-cli"
        self.digest_path = self.out_dir / "source.sha256"

    def setup(self) -> None:
        spec = rates_instance_spec()
        self.instance = experiments.generate_instance(spec)
        self.digest = source_digest()
        self.reference = None
        if self.digest_path.exists() and self.digest_path.read_text() == self.digest:
            self.reference = (self.out_dir / "rates.json").read_bytes()
        # warm-up: a two-size, one-replicate experiment on the same instance
        warm_up = experiments.RateConfig(instance=spec, n_grid=(64, 128), replicates=1)
        experiments.run_rate_experiment(warm_up)

    def operations(self):
        return [(self.run, self.check)]

    def run(self):
        argv = ["rates", "--config", str(RATES_CONFIG), "--output", str(self.out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, exit_code):
        if exit_code != 0:
            return False, True
        raw = (self.out_dir / "rates.json").read_bytes()
        report = json.loads(raw)
        lo, hi = SLOPE_RANGE
        slopes_ok = all(lo <= report["slopes"][m] <= hi for m in ("expert_kl", "param_err_hess"))
        initial, kernels, phi, ref = oracle_problem(self.instance)
        theta_star = np.asarray(report["theta_star"])
        beta = self.instance.spec.beta
        gap = oracle.grad_j_star(initial, kernels, phi, theta_star, beta, ref) - oracle.feature_expectation(
            initial, kernels, self.instance.expert.probs, phi
        )
        same = self.reference is None or raw == self.reference
        self.reference = raw
        self.digest_path.write_text(self.digest)
        return True, slopes_ok and float(np.abs(gap).max()) <= FEATURE_TOL and same


class FitLarge:
    """``fit_empirical`` on n=4096 datasets of a 50-state, 10-action, T=20, d=50 instance.

    The first three data seeds make ``opt._fit`` stop "stalled" at a solved
    target; they fail on every run.  The datasets do not depend on ``seed``,
    which sets only the order of the fits: about one random data seed in
    twelve hits the same stall, so seeded datasets would make the failure
    count depend on the seed.
    """

    SPEC = experiments.InstanceSpec(S=50, A=10, T=20, d=50, beta=0.5, seed=11)
    DATA_SEEDS = (14449357594836781232, 17544705512194414841, 6629721135495181608, 1, 2, 3, 4, 5)
    N = 4096

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.failed_fits = []

    def setup(self) -> None:
        self.instance = experiments.generate_instance(self.SPEC)
        mdp, features = self.instance.mdp, self.instance.features
        self.config = opt.FitConfig(beta=self.SPEC.beta)
        expert = self.instance.expert
        self.datasets = [soft_irl.mdp.sample_trajectories(mdp, expert, self.N, s) for s in self.DATA_SEEDS]
        # warm-up: one derivative bundle at the fitter's starting point
        zero = linear_reward.LinearRewardModel(features=features, theta=np.zeros(self.SPEC.d))
        linear_reward.derivative_bundle(mdp, zero, self.SPEC.beta)

    def operations(self):
        mdp, features = self.instance.mdp, self.instance.features
        ops = []
        for data_seed, data in zip(self.DATA_SEEDS, self.datasets):
            target = oracle.feature_average(features.phi, *dataset_arrays(data))

            def run(data=data):
                return opt.fit_empirical(mdp, features, data, self.config)

            def check(result, target=target, data_seed=data_seed):
                return self.check(result, target, data_seed)

            ops.append((run, check))
        return seeded_order(ops, self.seed)

    def check(self, result, target, data_seed):
        initial, kernels, phi, ref = oracle_problem(self.instance)
        grad = oracle.grad_j_star(initial, kernels, phi, result.theta_hat, self.SPEC.beta, ref)
        mismatch = float(np.abs(grad - target).max())
        if not result.converged:
            self.failed_fits.append(
                {
                    "data_seed": data_seed,
                    "iterations": result.iterations,
                    "final_decrement": result.final_decrement,
                    "feature_mismatch": mismatch,
                }
            )
        return bool(result.converged), mismatch <= FEATURE_TOL


class Geometry:
    """``dikin_boundary_pair`` then ``check_local_geometry`` on the ``rates`` instance.

    A fixed pool of pairs, drawn once from ``POOL_SEED``; ``seed`` sets only
    their order.  A pair's cost depends on how many fixed-point rounds
    ``dikin_boundary_pair`` runs (0.35 s for one round, 2.6 s for eight), so
    pairs drawn from ``seed`` would move ``pass_s`` by about 20 % from seed
    to seed.
    """

    POOL_SEED = 2605
    PAIRS = 4
    THETA_SCALE = 0.5

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.instance = experiments.generate_instance(rates_instance_spec())
        self.beta = self.instance.spec.beta
        d = self.instance.features.d
        rng = np.random.default_rng(self.POOL_SEED)
        self.pairs = [(self.THETA_SCALE * rng.normal(size=d), rng.normal(size=d)) for _ in range(self.PAIRS)]
        # warm-up: a short pair through every code path the operations use
        theta0, direction = self.pairs[0]
        self.measure(theta0, theta0 + 1e-3 * direction)

    def measure(self, theta0, theta1):
        mdp, features = self.instance.mdp, self.instance.features
        return experiments.check_local_geometry(mdp, features, self.beta, theta0, theta1)

    def operations(self):
        mdp, features = self.instance.mdp, self.instance.features
        ops = []
        for theta0, direction in self.pairs:

            def run(theta0=theta0, direction=direction):
                theta1 = experiments.dikin_boundary_pair(mdp, features, self.beta, theta0, direction)
                return theta0, theta1, self.measure(theta0, theta1)

            ops.append((run, self.check))
        return seeded_order(ops, self.seed)

    def check(self, outcome):
        theta0, theta1, report = outcome
        initial, kernels, phi, ref = oracle_problem(self.instance)
        j0 = oracle.j_star(initial, kernels, phi, theta0, self.beta, ref)
        j1 = oracle.j_star(initial, kernels, phi, theta1, self.beta, ref)
        grad0 = oracle.grad_j_star(initial, kernels, phi, theta0, self.beta, ref)
        bregman = j1 - j0 - float(grad0 @ (theta1 - theta0))
        reported = next(c.value for c in report.checks if c.name == "bregman")
        # Placing theta1 on the boundary and re-measuring it round off by an
        # ulp or so; check_local_geometry itself calls a pair local up to 1e-12.
        verified = (
            report.delta_h0_norm <= report.dikin_radius * (1.0 + RADIUS_RTOL)
            and abs(reported - bregman) <= 1e-9 * max(1.0, abs(j0), abs(j1))
        )
        return report.all_passed, verified


WORKLOADS = {"rates": Rates, "fit_large": FitLarge, "geometry": Geometry}
