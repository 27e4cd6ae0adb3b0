"""Inverse-RL losses and the exact relation between them.

Two estimators of a reward parameter from demonstrations:

* the convex feature-matching loss ``J*(theta) - <theta, feature average>``;
* maximum likelihood over Gibbs (soft-optimal) policies.

At the population level the second equals the first divided by the
temperature.  Empirically they differ by the sample average of dynamics-noise
terms, which :func:`equivalence_report` computes explicitly; the corrected gap
vanishes identically.  The likelihood loss, however, is not even quasiconvex
in the parameter: :func:`nonconvexity_probe` evaluates the built-in
two-state instance that exhibits a midpoint strictly worse than both
endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import (
    Dataset,
    Mdp,
    Policy,
    empirical_feature_expectation,
    feature_expectation,
    forward_occupancy,
    _as_float_array,
    _as_paths,
    _visit_frequencies,
)
from .linear_reward import LinearRewardModel, solve_model
from .soft_dp import delta_terms, log_policy_density


@dataclass(frozen=True)
class RiskReport:
    """Empirical and population losses of one parameter, with the exact bridge.

    ``equivalence_gap = beta * mle_empirical - irl_empirical - residual_term``
    is zero up to floating-point error; ``residual_term`` is the sample
    average of the summed dynamics-noise terms of the soft-optimal value and
    vanishes identically under deterministic dynamics.
    """

    beta: float
    theta: tuple[float, ...]
    irl_empirical: float
    irl_population: float
    mle_empirical: float
    mle_population: float
    residual_term: float

    @property
    def equivalence_gap(self) -> float:
        return self.beta * self.mle_empirical - self.irl_empirical - self.residual_term


@dataclass(frozen=True)
class NonconvexityReport:
    """Likelihood values at two parameters and their midpoint."""

    theta_a: tuple[float, ...]
    theta_b: tuple[float, ...]
    loss_a: float
    loss_b: float
    loss_mid: float

    @property
    def quasiconvexity_violated(self) -> bool:
        """True when the midpoint loss exceeds both endpoint losses."""
        return self.loss_mid > max(self.loss_a, self.loss_b)


def irl_empirical_loss(
    mdp: Mdp, model: LinearRewardModel, beta: float, data: Dataset
) -> float:
    """Feature-matching loss against the empirical feature average."""
    solution = solve_model(mdp, model, beta)
    target = empirical_feature_expectation(data, model.features)
    return solution.J_star - float(model.theta @ target)


def irl_population_loss(
    mdp: Mdp, model: LinearRewardModel, beta: float, expert: Policy
) -> float:
    """Feature-matching loss against the expert's exact feature expectation."""
    solution = solve_model(mdp, model, beta)
    target = feature_expectation(mdp, expert, model.features)
    return solution.J_star - float(model.theta @ target)


def _neg_log_likelihood(mu: np.ndarray, log_density: np.ndarray) -> float:
    """``-sum mu log density`` over an occupancy; ``+inf`` as soon as a visited
    entry has no mass."""
    visited = mu > 0.0
    if np.any(visited & np.isneginf(log_density)):
        return float("inf")
    # unvisited entries stay 0, never 0 * -inf
    return float(-np.multiply(mu, log_density, out=np.zeros(mu.shape), where=visited).sum())


def mle_loss(mdp: Mdp, policy: Policy, data: Dataset) -> float:
    """Average negative log-likelihood of the actions, density w.r.t. the
    reference measure: the population formula at the empirical occupancy.
    ``+inf`` as soon as any observed action has zero probability."""
    log_density = log_policy_density(mdp, policy)
    return _neg_log_likelihood(_visit_frequencies(data, log_density), log_density)


def mle_population_loss(mdp: Mdp, policy: Policy, expert: Policy) -> float:
    """Expected negative log-likelihood under the expert's occupancy."""
    return _neg_log_likelihood(forward_occupancy(mdp, expert), log_policy_density(mdp, policy))


def soft_optimal_residuals(
    mdp: Mdp, model: LinearRewardModel, beta: float, data: Dataset
) -> np.ndarray:
    """Summed dynamics-noise terms of the soft-optimal value, per trajectory."""
    solution = solve_model(mdp, model, beta)
    _as_paths(data.states, data.actions, "dataset", solution.Q.shape)
    return delta_terms(mdp, solution.V, data.states, data.actions).sum(axis=1)


def equivalence_report(
    mdp: Mdp,
    model: LinearRewardModel,
    beta: float,
    data: Dataset,
    expert: Policy,
) -> RiskReport:
    """Evaluate both losses (empirical and population) at one parameter.

    The report carries the residual that converts the scaled likelihood loss
    into the feature-matching loss exactly; see :class:`RiskReport`.
    """
    pi_star = solve_model(mdp, model, beta).pi_star
    return RiskReport(
        beta=float(beta),
        theta=tuple(float(x) for x in model.theta),
        irl_empirical=irl_empirical_loss(mdp, model, beta, data),
        irl_population=irl_population_loss(mdp, model, beta, expert),
        mle_empirical=mle_loss(mdp, pi_star, data),
        mle_population=mle_population_loss(mdp, pi_star, expert),
        residual_term=float(soft_optimal_residuals(mdp, model, beta, data).mean()),
    )


def nonconvexity_probe(
    theta_a: tuple[float, float] = (2.0, 4.0),
    theta_b: tuple[float, float] = (-4.0, 2.0),
    beta: float = 1.0,
) -> NonconvexityReport:
    """Evaluate the likelihood loss on the built-in two-state instance.

    Runs the full pipeline (backward induction, Gibbs policy, likelihood of
    the single observed trajectory) at ``theta_a``, ``theta_b`` and their
    midpoint.  With the default parameters the midpoint is strictly worse
    than both endpoints, so no quasiconvex function can produce these values.
    """
    from .instances import counterexample_instance

    mdp, features, data = counterexample_instance()

    def loss_at(theta) -> float:
        model = LinearRewardModel(features=features, theta=theta)
        pi_star = solve_model(mdp, model, beta).pi_star
        return mle_loss(mdp, pi_star, data)

    # as tuples, so that the models read copies and the caller's arrays keep their flags
    ta = tuple(_as_float_array(theta_a, "theta_a", (features.d,)).tolist())
    tb = tuple(_as_float_array(theta_b, "theta_b", (features.d,)).tolist())
    return NonconvexityReport(
        theta_a=ta,
        theta_b=tb,
        loss_a=loss_at(ta),
        loss_b=loss_at(tb),
        loss_mid=loss_at(0.5 * np.add(ta, tb)),
    )
