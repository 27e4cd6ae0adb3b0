"""Acceptance gate: one test per published criterion, each ending in a single
``criterion N (<name>): PASS`` line (visible with ``pytest -s`` and in the
verbose test listing) and enforcing the stated tolerance and runtime budget."""

import json
import time

import numpy as np

from soft_irl import (
    FitConfig,
    InstanceSpec,
    LinearRewardModel,
    batch_scores,
    check_concentration,
    check_local_geometry,
    delta_terms,
    derivative_bundle,
    dikin_boundary_pair,
    effective_dimension,
    empirical_feature_expectation,
    equivalence_report,
    feature_advantage,
    fit_empirical,
    fit_population,
    gather_table,
    generate_instance,
    geometry_constants,
    kernel_basis,
    nonconvexity_probe,
    policy_evaluate,
    RewardTable,
    sample_trajectories,
    solve_model,
    third_derivative,
    trajectory_kl,
    variance_decomposition,
)
from soft_irl.cli import main
from soft_irl.linear_reward import _identifiable_split

from test_dp import variance_by_enumeration
from test_mdp import enumerate_support, random_mdp, random_policy
from test_rewards import fd_grad, fd_hessian, model_at, random_features, shaping_feature


def _report(num, name, budget, elapsed, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num} ({name}): {status} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)
    assert elapsed < budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s >= {budget}s"


def test_criterion_1_counterexample_reproduction(tmp_path, capsys):
    start = time.perf_counter()
    failures = []
    code = main(["counterexample", "--output", str(tmp_path)])
    out = capsys.readouterr().out
    report = nonconvexity_probe()
    for value, published in ((report.loss_a, 1.2919), (report.loss_b, 1.4802), (report.loss_mid, 1.6431)):
        if abs(value - published) > 1e-3:
            failures.append(f"{value} != {published} within 1e-3")
    if report.loss_mid <= max(report.loss_a, report.loss_b):
        failures.append("midpoint does not exceed both endpoints")
    if code != 0:
        failures.append(f"exit code {code}")
    for token in ("1.2919", "1.4802", "1.6431"):
        if token not in out:
            failures.append(f"stdout missing {token}")
    _report(1, "counterexample reproduction", 1.0, time.perf_counter() - start, failures)


def test_criterion_2_derivative_oracles():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(2)
    for k in range(20):
        S = int(rng.integers(3, 6))
        A = int(rng.integers(2, 4))
        T = int(rng.integers(2, 5))
        d = int(rng.integers(2, 9))
        beta = float(rng.choice([0.5, 0.8, 1.2]))
        mdp = random_mdp(rng, S=S, A=A, T=T)
        features = random_features(rng, mdp, d)
        theta = 0.7 * rng.normal(size=d)
        model = model_at(features, theta)

        bundle = derivative_bundle(mdp, model, beta)
        grad = bundle.grad
        fd_g = fd_grad(mdp, features, theta, beta)
        rel_g = np.linalg.norm(fd_g - grad) / max(np.linalg.norm(grad), 1e-12)
        if rel_g > 1e-5:
            failures.append(f"instance {k}: gradient FD relative error {rel_g:.2e}")

        H = bundle.hessian
        fd_H = fd_hessian(mdp, features, theta, beta)
        rel_H = np.linalg.norm(fd_H - H) / max(np.linalg.norm(H), 1e-12)
        if rel_H > 1e-5:
            failures.append(f"instance {k}: hessian FD relative error {rel_H:.2e}")

        # dual route: beta * covariance of the per-trajectory score
        pi = solve_model(mdp, model, beta).pi_star
        states, actions, probs = enumerate_support(mdp, pi)
        adv = feature_advantage(mdp, features, pi)
        Z = batch_scores(adv, states, actions)  # score = Z / beta
        score_cov = (Z * probs[:, None]).T @ Z / beta**2
        frob = np.linalg.norm(H - beta * score_cov)
        if frob > 1e-9:
            failures.append(f"instance {k}: score-covariance Frobenius gap {frob:.2e}")
    _report(2, "derivative oracles", 30.0, time.perf_counter() - start, failures)


def test_criterion_3_structural_equivalence():
    start = time.perf_counter()
    failures = []
    for deterministic in (True, False):
        for k in range(10):
            spec = InstanceSpec(
                S=4, A=2, T=3, d=4, beta=0.8, seed=k, deterministic=deterministic
            )
            inst = generate_instance(spec)
            data = sample_trajectories(inst.mdp, inst.expert, 64, seed=100 + k)
            rng = np.random.default_rng(k)
            gaps = []
            for _ in range(3):
                theta = 0.8 * rng.normal(size=spec.d)
                model = LinearRewardModel(features=inst.features, theta=theta)
                rep = equivalence_report(inst.mdp, model, spec.beta, data, inst.expert)
                gaps.append(spec.beta * rep.mle_empirical - rep.irl_empirical)
                if abs(rep.equivalence_gap) > 1e-9:
                    failures.append(f"det={deterministic} seed={k}: gap {rep.equivalence_gap:.2e}")
                if deterministic and rep.residual_term != 0.0:
                    failures.append(f"det seed={k}: residual {rep.residual_term!r} != 0")
                if not deterministic and rep.residual_term == 0.0:
                    failures.append(f"stochastic seed={k}: residual unexpectedly zero")
            if deterministic and max(gaps) - min(gaps) > 1e-9:
                failures.append(f"det seed={k}: beta*MLE - IRL varies with theta")
    _report(3, "structural equivalence", 10.0, time.perf_counter() - start, failures)


def test_criterion_4_orthogonal_decomposition():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(4)
    for k in range(5):
        mdp = random_mdp(rng, S=3, A=2, T=3)
        reward = RewardTable(r=rng.normal(size=(mdp.T, mdp.S, mdp.A)))
        pi = random_policy(rng, mdp)
        beta = float(rng.choice([0.4, 0.8, 1.1]))

        ev = policy_evaluate(mdp, reward, pi, beta)
        states, actions, probs = enumerate_support(mdp, pi)
        adv = gather_table(ev.advantage, states, actions)
        dta = delta_terms(mdp, ev.V, states, actions)
        terms = np.concatenate([adv, dta], axis=1)
        gram = (terms * probs[:, None]).T @ terms
        off = np.abs(gram - np.diag(np.diag(gram))).max()
        if off > 1e-10:
            failures.append(f"instance {k}: max off-diagonal inner product {off:.2e}")

        var = variance_decomposition(mdp, reward, pi, beta)
        if abs(var.total - (var.action + var.dynamics)) > 1e-9:
            failures.append(f"instance {k}: variance parts do not sum")
        oracle = variance_by_enumeration(mdp, reward, pi, beta)
        for field in ("total", "mean_return"):
            value, expected = getattr(var, field), getattr(oracle, field)
            if abs(value - expected) > 1e-10 * abs(expected):
                failures.append(f"instance {k}: {field} {value!r} != enumerated {expected!r}")
    _report(4, "orthogonal decomposition", 10.0, time.perf_counter() - start, failures)


def test_criterion_5_identifiability():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(5)
    for k in range(5):
        mdp = random_mdp(rng, S=3, A=2, T=3)
        d = 4
        phi = rng.normal(size=(mdp.T, mdp.S, mdp.A, d))
        shaping = shaping_feature(rng, mdp)
        phi[:, :, :, d - 1] = shaping
        from soft_irl import FeatureMap

        features = FeatureMap(phi=phi)
        beta = 0.8
        direction = np.zeros(d)
        direction[d - 1] = 1.0

        thetas = [0.5 * rng.normal(size=d) for _ in range(2)]
        bases = [kernel_basis(mdp, features)]  # the kernel at theta = 0
        for theta in thetas:
            H = derivative_bundle(mdp, model_at(features, theta), beta).hessian
            if np.linalg.norm(H @ direction) > 1e-8 * max(np.linalg.norm(H), 1.0):
                failures.append(f"instance {k}: shaping direction not in ker H")
            bases.append(_identifiable_split(mdp, phi, H)[0])
        b0 = bases[0]
        for b1 in bases[1:]:
            if b0.shape != b1.shape:
                failures.append(f"instance {k}: kernel dimension changed with theta")
            else:
                gap = np.linalg.norm(b0 @ b0.T - b1 @ b1.T)
                if gap > 1e-6:
                    failures.append(f"instance {k}: kernel subspace moved by {gap:.2e}")

        pi0 = solve_model(mdp, model_at(features, thetas[0]), beta).pi_star
        pi1 = solve_model(mdp, model_at(features, thetas[0] + 2.0 * direction), beta).pi_star
        kl = trajectory_kl(mdp, pi0, pi1)
        if kl > 1e-8:
            failures.append(f"instance {k}: trajectory law moved along kernel (KL {kl:.2e})")
    _report(5, "identifiability", 10.0, time.perf_counter() - start, failures)


def test_criterion_6_local_geometry_suite():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(6)
    for k in range(20):
        spec = InstanceSpec(S=3, A=2, T=3, d=3, beta=0.7, seed=k)
        inst = generate_instance(spec)
        theta0 = 0.5 * rng.normal(size=spec.d)
        direction = rng.normal(size=spec.d)
        theta1 = dikin_boundary_pair(inst.mdp, inst.features, spec.beta, theta0, direction)
        report = check_local_geometry(inst.mdp, inst.features, spec.beta, theta0, theta1)
        if report.mode != "local":
            failures.append(f"pair {k}: expected local mode")
        for check in report.checks:
            if not check.passed:
                failures.append(
                    f"pair {k}: {check.name} failed "
                    f"({check.lower:.3e} <= {check.value:.3e} <= {check.upper:.3e})"
                )

    # pseudo self-concordance on 50 random direction pairs
    checked = 0
    inst_rng = np.random.default_rng(60)
    while checked < 50:
        mdp = random_mdp(inst_rng, S=3, A=2, T=3)
        features = random_features(inst_rng, mdp, 3)
        beta = float(inst_rng.choice([0.6, 0.9]))
        theta = 0.5 * inst_rng.normal(size=3)
        model = model_at(features, theta)
        H = derivative_bundle(mdp, model, beta).hessian
        gc = geometry_constants(mdp, features, model, beta)
        for _ in range(10):
            xi = inst_rng.normal(size=3)
            zeta = inst_rng.normal(size=3)
            lhs = abs(third_derivative(mdp, model, beta, xi, xi, zeta))
            rhs = gc.B_A_phi / beta * np.linalg.norm(zeta) * float(xi @ H @ xi)
            if lhs > rhs + 1e-9:
                failures.append(f"self-concordance violated: {lhs:.3e} > {rhs:.3e}")
            checked += 1
    _report(6, "local geometry suite", 60.0, time.perf_counter() - start, failures)


def test_criterion_7_fast_rate_verification(tmp_path, capsys):
    start = time.perf_counter()
    failures = []
    code = main(["rates", "--config", "configs/rates.json", "--output", str(tmp_path)])
    capsys.readouterr()
    if code != 0:
        failures.append(f"rates exit code {code}")
    report = json.loads((tmp_path / "rates.json").read_text())

    # CSV slope column exists and matches the report
    header, *rows = (tmp_path / "rates.csv").read_text().strip().splitlines()
    if "slope" not in header.split(","):
        failures.append("rates.csv has no slope column")

    for metric in ("expert_kl", "param_err_hess"):
        slope = report["slopes"][metric]
        if not -1.25 <= slope <= -0.75:
            failures.append(f"slope[{metric}] = {slope:.4f} outside [-1.25, -0.75]")

    beta = report["config"]["instance"]["beta"]
    at_largest = {m: report["medians"][m][-1] for m in report["medians"]}
    part3 = [
        at_largest["param_err_hess"] / beta,
        at_largest["kl_star_to_hat"],
        at_largest["kl_hat_to_star"],
        at_largest["sym_kl_star"],
        at_largest["hellinger_star"],
    ]
    if max(part3) / min(part3) > 10.0:
        failures.append(f"part-3 metrics spread beyond factor 10: {part3}")

    # deterministic well-specified instances report d* = beta * d
    det_spec = InstanceSpec(S=5, A=3, T=4, d=6, beta=0.5, seed=5, deterministic=True)
    det = generate_instance(det_spec)
    pop = fit_population(det.mdp, det.features, det.expert, FitConfig(beta=det_spec.beta))
    ed = effective_dimension(det.mdp, det.features, det.expert, pop.hessian_at_solution)
    rel = abs(ed.d_star - det_spec.beta * det_spec.d) / (det_spec.beta * det_spec.d)
    if rel > 1e-6:
        failures.append(f"d* = {ed.d_star} vs beta*d = {det_spec.beta * det_spec.d} (rel {rel:.2e})")
    _report(7, "fast-rate verification", 300.0, time.perf_counter() - start, failures)


def test_criterion_8_concentration_coverage():
    start = time.perf_counter()
    failures = []
    spec = InstanceSpec(S=4, A=2, T=3, d=4, beta=0.5, seed=0)
    inst = generate_instance(spec)
    report = check_concentration(
        inst.mdp, inst.features, spec.beta, inst.expert, n=256, delta=0.1, trials=500, seed=1
    )
    if report.violation_frequency > report.frequency_threshold:
        failures.append(
            f"violation frequency {report.violation_frequency:.4f} > "
            f"threshold {report.frequency_threshold:.4f}"
        )
    _report(8, "concentration coverage", 60.0, time.perf_counter() - start, failures)


def test_criterion_9_optimizer_feature_matching():
    start = time.perf_counter()
    failures = []
    spec = InstanceSpec(S=5, A=3, T=4, d=6, beta=0.5, seed=5)
    inst = generate_instance(spec)
    cfg = FitConfig(beta=spec.beta)
    converged_fits = 0
    for n in (64, 512, 4096):
        for rep in range(4):
            data = sample_trajectories(inst.mdp, inst.expert, n, seed=1000 + 17 * rep + n)
            result = fit_empirical(inst.mdp, inst.features, data, cfg)
            if not result.converged or result.active_ball_constraint:
                continue
            converged_fits += 1
            target = empirical_feature_expectation(data, inst.features)
            model = LinearRewardModel(features=inst.features, theta=result.theta_hat)
            gap = np.abs(derivative_bundle(inst.mdp, model, spec.beta).grad - target).max()
            if gap > 1e-8:
                failures.append(f"n={n} rep={rep}: feature-matching gap {gap:.2e}")
    if converged_fits < 8:
        failures.append(f"only {converged_fits} converged interior fits")
    _report(9, "optimizer feature matching", 60.0, time.perf_counter() - start, failures)
