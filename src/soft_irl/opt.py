"""Damped Newton minimization of the convex feature-matching loss.

The loss ``L(theta) = J*(theta) - <theta, target>`` is smooth and convex with
an explicit Hessian, so a guarded Newton iteration with backtracking line
search converges in a handful of steps.  Three practical complications are
handled explicitly:

* The Hessian may be singular along directions that do not move the
  trajectory law (shaping directions).  Steps are restricted to the image of
  the initial Hessian, decided in the features' own units, so such
  coordinates stay at their initialization; a small ridge guards the retained
  spectrum, in the same units, when curvature later collapses along the run.
* An optional norm ball constrains the parameter.  Trial points are projected
  onto the ball inside the line search.  At an iterate on the sphere whose
  Lagrange multiplier is positive, the step is the Newton step of the
  Lagrangian on the sphere's tangent space, and the projection of a trial
  point is its retraction onto the sphere (Riemannian Newton; Absil, Mahony
  & Sepulchre 2008, ch. 6).
* Without the ball, a target outside the moment set ``M`` of feature
  expectations has no minimizer, and the iterates run off to infinity.  The
  support function of ``M`` is a max-plus (hard) DP, so each iterate's
  direction ``u = theta / |theta|`` is tested for separation,
  ``<u, target> > h_M(u)``; once it holds the loss is unbounded below along
  ``u`` and the fit stops as ``"infeasible"`` with ``u`` as its certificate.

One Newton loop, :func:`_fit_batch`, fits a batch of targets in lockstep (a
single fit is a batch of one), inside the ball and on its sphere alike, with
one Newton step (:func:`_restricted_newton_step`), one acceptance rule (the
full step where rounding hides its predicted decrease, else :func:`_armijo`)
and one way to a derivative bundle: a value-only soft pass, whose tables
become the bundle once the point is accepted.  Without a ball, far from the
minimizer (a Newton decrement of at least ``_EXTENSION_GATE``), a full step
that :func:`_armijo` accepts is extended: step sizes 2, 4, ... up to
``_EXTENSION_CAP`` are tried, one value pass each, and the last trial whose
loss is below the previous trial's and that passes :func:`_armijo` at its own
size is taken.  The Gibbs policy sharpens away from the start, so the
curvature falls along the Newton direction and a full step undershoots there;
an extension trial is a value pass, far cheaper than the derivative bundle of
an extra iteration.

The loop records its history per round, as arrays: the fits a round
records, with their loss, decrement, ridge flag and ``theta``, and the step
size accepted from each.  It returns the batch's arrays (:class:`_FitBatch`),
and an :class:`IrlFitResult` with its :class:`IterationRecord` trace is made
only for a fit that a caller asks for, so a rate grid reads its ``theta_hat``
and statuses straight from the arrays.

Every fit starts at ``theta = 0``, unless its caller shares a start: a
point that every fit of a batch starts at, with its value and derivatives
(:class:`_Start`).  The rate grid shares the population fit's last iterate
``theta*``, which every grid target lies near, so its fits begin close to
their minimizers.  The image basis is ``theta = 0``'s whatever the start.

``theta = 0`` belongs to the instance, not to the data: its loss, gradient,
Hessian and image basis (the identifiable directions, which the paper
identifies only up to shaping) depend on ``(mdp, features, beta)`` alone.
:func:`_start` makes them once per such triple and keeps them, read-only, in
``_STARTS``, which holds the ``Mdp`` and ``FeatureMap`` weakly, so every
later fit on the same instance and temperature reuses them and an entry goes
when either object does.  The frozen types hash by identity, so their arrays
must not be changed while they are alive.

Everything is deterministic: same inputs produce bitwise-identical traces,
whatever batch a target is fitted in and whether its start was made for it
or reused.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .mdp import (
    Dataset,
    Mdp,
    Policy,
    empirical_feature_expectation,
    feature_expectation,
    _check_count,
    _check_real,
)
from .linear_reward import FeatureMap, _batch_derivatives, _batch_rewards, _batch_soft_values, _identifiable_split
from .soft_dp import _batch_optimal_values, _check_in_range, _dots, _gibbs_probs

# Separation margins up to this fraction of sum_t max |<u, phi_t>| (which bounds
# both <u, target> and h_M(u)) are taken for rounding, not for a certificate.
_RELATIVE_SEPARATION_CUT = 1e-9
# The ridge added to the restricted Hessian's spectrum once its smallest
# eigenvalue drops below the threshold.
_RIDGE = 1e-9
_RIDGE_THRESHOLD = 1e-10
# Armijo search: step sizes 1, 1/2, 1/4, ... above the floor; a step must
# achieve this fraction of the first-order decrease it predicts.
_LINE_SEARCH_FACTOR = 0.5
_LINE_SEARCH_FLOOR = 2.0**-60
_LINE_SEARCH_ACCEPT = 1e-4
# Step extension (see _fit_batch): the smallest decrement at which a judged
# full step is extended, and the largest step size tried.
_EXTENSION_GATE = 0.5
_EXTENSION_CAP = 8.0
# A predicted decrease up to 64 ulps of the loss's terms is below what comparing
# two losses can resolve: the full step is then taken without a search.
_LOSS_RESOLUTION = 64.0 * float(np.finfo(np.float64).eps)

FIT_STATUSES = ("converged", "infeasible", "max_iters", "stalled")

# theta = 0's start per Mdp, then per FeatureMap, then per float(beta): see _start
_STARTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class FitConfig:
    """Solver settings; defaults suit the desk-scale instances."""

    beta: float
    B_theta: float = float("inf")
    tol_decrement: float = 1e-10
    max_iters: int = 100

    def __post_init__(self) -> None:
        if self.B_theta != float("inf"):
            _check_real(self.B_theta, "FitConfig.B_theta", 0.0)
        for name in ("beta", "tol_decrement"):
            _check_real(getattr(self, name), f"FitConfig.{name}", 0.0)
        _check_count(self.max_iters, "FitConfig.max_iters")


@dataclass(frozen=True)
class IterationRecord:
    """One accepted Newton iteration (values at the iterate before the step).

    ``step_size`` is the multiple of the Newton step taken: ``2**-k`` after a
    search halved it, 2, 4 or 8 where the step was extended, and ``0.0`` on
    the last record, from which no step was taken."""

    iteration: int
    loss: float
    decrement: float
    step_size: float
    ridge_used: bool
    theta: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class IrlFitResult:
    """Solution report of a fit.

    ``status`` is one of ``FIT_STATUSES``: ``"converged"`` when the Newton
    decrement reached the tolerance; ``"infeasible"`` when the target lies
    outside the moment set, with ``separating_direction`` ``u`` and
    ``separation_margin`` ``m > 0`` such that ``L(theta + s u) <= L(theta) -
    s m`` for every ``s >= 0``; ``"max_iters"`` when the iteration budget ran
    out; ``"stalled"`` when no step was accepted: the Armijo search found no
    decrease, or a full step the loss cannot judge did not shrink the
    decrement.  A fit that did not converge is returned rather than raised.
    ``trace`` records every iterate; across a step the loss cannot judge, its
    loss may rise by rounding.

    On an active ball the iterates that reach the sphere step along it: there
    ``final_decrement`` is the Newton decrement of the Lagrangian on the
    sphere's tangent space, and ``trace`` and ``iterations`` include those
    steps.  Without a ball, a step far from the minimizer can be a multiple
    of the Newton step above 1 (``IterationRecord.step_size`` 2, 4 or 8).

    The decrement is measured on the image of the Hessian at the start
    ``theta = 0``, off the kernel of :func:`linear_reward.kernel_basis`, so
    ``"converged"`` certifies the target's moments on that image only: a
    component of the target along the kernel is not matched, and
    ``gradient_norm`` is at least its norm.
    """

    theta_hat: np.ndarray
    final_loss: float
    iterations: int
    final_decrement: float
    gradient_norm: float
    hessian_at_solution: np.ndarray
    active_ball_constraint: bool
    status: str
    trace: tuple[IterationRecord, ...]
    separating_direction: np.ndarray | None = None
    separation_margin: float | None = None

    @property
    def converged(self) -> bool:
        return self.status == "converged"


class _Start(NamedTuple):
    """A point that every fit of a batch starts at, with ``J*`` and its
    derivatives there, each with a leading axis of 1."""

    theta: np.ndarray  # (1, d)
    value: np.ndarray  # (1,): J*(theta)
    gradient: np.ndarray  # (1, d): the gradient of J* at theta
    hessian: np.ndarray  # (1, d, d)


@dataclass(frozen=True, eq=False)
class _FitBatch:
    """The fits of :func:`_fit_batch` as arrays: one row per fit, and a
    history of one row per recorded iterate, round after round, so that a
    fit's rows come in its iteration order.  :meth:`result` makes one fit's
    :class:`IrlFitResult`, trace included, for a caller that asks for it.

    ``gradient`` is the gradient of ``J*`` at each fit's last iterate, from
    its last bundle; ``step_size`` is the multiple of the Newton step
    accepted from an iterate, ``0.0`` where none was; ``direction`` and
    ``margin`` are the certificates of the ``"infeasible"`` fits.
    """

    theta: np.ndarray  # (K, d)
    loss: np.ndarray  # (K,)
    gradient: np.ndarray  # (K, d)
    gradient_norm: np.ndarray  # (K,)
    hessian: np.ndarray  # (K, d, d)
    on_sphere: np.ndarray  # (K,)
    status: np.ndarray  # (K,), of FIT_STATUSES
    direction: np.ndarray  # (K, d)
    margin: np.ndarray  # (K,)
    member: np.ndarray  # (R,): the fit each history row belongs to
    iterate_loss: np.ndarray  # (R,)
    decrement: np.ndarray  # (R,)
    step_size: np.ndarray  # (R,)
    ridge_used: np.ndarray  # (R,)
    iterate: np.ndarray  # (R, d)

    def result(self, k: int) -> IrlFitResult:
        """The :class:`IrlFitResult` of fit ``k``, which owns its arrays."""
        rows = np.flatnonzero(self.member == k)
        fields = zip(
            self.iterate_loss[rows].tolist(),
            self.decrement[rows].tolist(),
            self.step_size[rows].tolist(),
            self.ridge_used[rows].tolist(),
            map(tuple, self.iterate[rows].tolist()),
        )
        trace = tuple(IterationRecord(i, *row) for i, row in enumerate(fields))
        infeasible = self.status[k] == "infeasible"
        return IrlFitResult(
            theta_hat=self.theta[k].copy(),
            final_loss=float(self.loss[k]),
            iterations=int(np.count_nonzero(self.step_size[rows] > 0.0)),
            final_decrement=trace[-1].decrement,
            gradient_norm=float(self.gradient_norm[k]),
            hessian_at_solution=self.hessian[k].copy(),
            active_ball_constraint=bool(self.on_sphere[k]),
            status=self.status[k],
            trace=trace,
            separating_direction=self.direction[k].copy() if infeasible else None,
            separation_margin=float(self.margin[k]) if infeasible else None,
        )

    def start(self, k: int, target: np.ndarray) -> _Start:
        """Fit ``k``'s last iterate as a :class:`_Start`, from that iterate's
        own value pass and bundle: ``J*`` is its loss plus ``<theta,
        target>``, where ``target`` ``(d,)`` is the one it was fitted to."""
        theta = self.theta[k : k + 1]
        value = self.loss[k : k + 1] + _dots(theta, target[None])
        return _Start(theta, value, self.gradient[k : k + 1], self.hessian[k : k + 1])


def _on_sphere(theta: np.ndarray, radius: float) -> np.ndarray:
    """Whether each row of ``theta`` sits on the sphere of the ball, up to rounding."""
    return _norms(theta) >= radius * (1.0 - 1e-9)


def _norms(x: np.ndarray) -> np.ndarray:
    """The norm of each row of ``x``, with the bits of ``np.linalg.norm``."""
    return np.sqrt(_dots(x, x))


def _restricted_newton_step(
    grad: np.ndarray, hessian: np.ndarray, basis: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton direction confined to the span of the columns of ``basis``.

    Returns ``(step, decrement, ridge_used)``, with ``<grad, step> =
    -decrement**2``, so the step is a descent direction.  The ridge kicks in
    whenever the restricted curvature (in the fitter's feature units) drops below
    ``_RIDGE_THRESHOLD`` — for example when the iterates run off toward a
    face of the feasible moment set — which keeps the decrement honest: it
    stays large as long as the restricted gradient is large, so divergent
    runs are reported as not converged rather than silently reclassified as
    flat.

    ``grad`` ``(..., d)`` and ``hessian`` ``(..., d, d)`` may carry a leading
    batch axis, and ``basis`` is ``(d, k)``, shared by the batch (the image),
    or ``(..., d, k)``, one per member (the sphere's tangent spaces): the
    products are stacked matmuls and the eigendecompositions one stacked
    ``eigh``, so each member gets the bits of its own call.  A ``hessian``
    ``(1, d, d)`` that the members share is decomposed once and broadcast,
    which gives each member the same bits.
    """
    if basis.shape[-1] == 0:
        return np.zeros_like(grad), np.zeros(grad.shape[:-1]), np.zeros(grad.shape[:-1], dtype=bool)
    basis_t = np.swapaxes(basis, -1, -2)
    w, V = np.linalg.eigh(basis_t @ hessian @ basis)
    ridge_used = w[..., 0] < _RIDGE_THRESHOLD
    w = np.where(ridge_used[..., None], w + _RIDGE, w)
    g_proj = (np.swapaxes(V, -1, -2) @ (basis_t @ grad[..., None]))[..., 0]
    step = (-basis @ (V @ (g_proj / w)[..., None]))[..., 0]
    decrement = np.sqrt((g_proj**2 / w).sum(axis=-1))
    return step, decrement, np.broadcast_to(ridge_used, decrement.shape).copy()


def _loss_and_values(
    mdp: Mdp, phi: np.ndarray, targets: np.ndarray, beta: float, thetas: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """``L(theta_k) = J*(theta_k) - <theta_k, target_k>`` for each row of
    ``thetas`` ``(K, d)``, from one value-only soft pass over the batch, with
    that pass's soft-optimal tables ``Q`` ``(T, K, S, A)`` and ``V`` ``(T+1,
    K, S)``.

    Each row's products are the BLAS calls of a pass on its own, so its loss
    and tables are bit for bit those of a lone pass.  The checks of the
    public types stay at the boundary; :func:`_batch_soft_values` keeps a
    non-finite trial reward from becoming a silent NaN, and values out of the
    float range give a loss that the Armijo rule rejects.
    """
    Q, V = _batch_soft_values(mdp, phi, beta, thetas, trial=True)
    return _dots(mdp.initial_dist, V[0]) - _dots(thetas, targets), (Q, V)


def _start(
    mdp: Mdp, features: FeatureMap, beta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``theta = 0``'s ``(J* (1,), gradient (1, d), Hessian (1, d, d), image
    basis (d, k))`` on ``(mdp, features, beta)``, the default start of a fit
    and the image of every fit: one value pass, one bundle and one
    :func:`_identifiable_split`.
    A ``beta`` so large that the values at ``theta = 0`` leave the float range
    is :func:`~soft_irl.soft_dp.soft_backward`'s ``DomainError``, with no warning.

    The first call on a triple makes them and stores them read-only in
    ``_STARTS``; later calls return the same arrays, so a fit has the same
    bits whichever call made its start.  The entry lives as long as both
    ``mdp`` and ``features`` do.
    """
    by_beta = _STARTS.setdefault(mdp, weakref.WeakKeyDictionary()).setdefault(features, {})
    key = float(beta)
    if key not in by_beta:
        phi, zero = features.phi, np.zeros((1, features.d))
        with np.errstate(over="ignore", invalid="ignore"):
            loss, (Q, V) = _loss_and_values(mdp, phi, zero, beta, zero)
        _check_in_range(beta, Q, V)
        grad, hessian = _batch_derivatives(mdp, phi, beta, _gibbs_probs(mdp, beta, Q))
        image = _identifiable_split(mdp, phi, hessian[0], beta)[1]
        by_beta[key] = (loss, grad, hessian, image)
        for array in by_beta[key]:
            array.setflags(write=False)
    return by_beta[key]


def _separation(
    mdp: Mdp, phi: np.ndarray, targets: np.ndarray, thetas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each row, whether ``u = theta / |theta|`` separates its target from
    the moment set, from one max-plus pass over the rows with ``theta != 0``.

    Returns ``(found, U, margins)``: the rows ``u`` and ``margin = <u,
    target> - h_M(u)``, where the support function ``h_M(u)`` is the max-plus
    optimal value of the reward ``<u, phi>``, and whether the margin exceeds
    the rounding cut (never where ``theta = 0``).
    """
    found = np.zeros(len(thetas), dtype=bool)
    U, margins = np.zeros_like(thetas), np.zeros(len(thetas))
    norms = _norms(thetas)
    rows = np.flatnonzero(norms != 0.0)
    if rows.size == 0:
        return found, U, margins
    U[rows] = u = thetas[rows] / norms[rows, None]
    r = _batch_rewards(phi, u)  # (K, T, S, A)
    _, V = _batch_optimal_values(mdp, r, 0.0)
    margins[rows] = _dots(u, targets[rows]) - _dots(mdp.initial_dist, V[0])
    cuts = _RELATIVE_SEPARATION_CUT * np.abs(r).max(axis=(2, 3)).sum(axis=-1)
    found[rows] = ~(margins[rows] <= cuts)
    return found, U, margins


def _armijo(
    trial_loss: np.ndarray, loss: np.ndarray, alpha: np.ndarray, directional: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The Armijo rule at step sizes ``alpha``, row by row: ``(accepted,
    next_alpha)``.  A row is accepted when its trial point's loss decreases
    ``loss`` by at least ``_LINE_SEARCH_ACCEPT * alpha * directional``;
    ``next_alpha`` is the step size to try next, ``0.0`` once halving reaches
    ``_LINE_SEARCH_FLOOR``."""
    accepted = trial_loss <= loss + _LINE_SEARCH_ACCEPT * alpha * directional
    halved = alpha * _LINE_SEARCH_FACTOR
    return accepted, np.where(halved > _LINE_SEARCH_FLOOR, halved, 0.0)


def _fit(mdp: Mdp, features: FeatureMap, target: np.ndarray, config: FitConfig) -> IrlFitResult:
    """One fit: :func:`_fit_batch` on a batch of one."""
    return _fit_batch(mdp, features, np.asarray(target, dtype=np.float64)[None], config).result(0)


def _fit_batch(
    mdp: Mdp,
    features: FeatureMap,
    targets: np.ndarray,
    config: FitConfig,
    start: _Start | None = None,
) -> _FitBatch:
    """Fit every row of ``targets`` ``(K, d)`` in lockstep: the one Newton
    loop, which returns the batch as arrays (:class:`_FitBatch`).

    Each fit runs its own damped Newton iteration: at each iterate a
    restricted Newton step, the decrement test, the separation test, then an
    Armijo search whose accepted point's value pass becomes the next
    derivative bundle.  At an iterate on the ball's sphere whose multiplier
    ``lambda = -<grad, theta> / B**2`` is positive, the step is the Newton
    step of the Lagrangian Hessian ``H + lambda I`` on the tangent space
    within the image, so its decrement is the Lagrangian's.  The fits share
    the rounds: each round makes one value pass over every searching fit's
    trial point, then one bundle and one stacked Newton step over the fits
    that moved, in which the fits on the sphere take one more stacked step
    on their tangent bases (one stacked SVD).  Every product makes, for each
    fit, the BLAS or LAPACK call of a batch of one, and the bookkeeping
    between them is elementwise array work with no per-fit loop, so a fit's
    result is bit for bit the same alone or in any batch.

    Where the predicted decrease ``-<grad, step>`` is at most
    ``_LOSS_RESOLUTION`` times the loss's terms ``|J*(theta)| + |<theta,
    target>|`` (not the loss, a difference that can cancel), no loss can
    judge a step: the full step is taken with no search and kept only if it
    shrinks the decrement, else the fit stops ``"stalled"``.  Elsewhere the
    Armijo search judges the step, and the fit stops ``"stalled"`` when the
    search reaches the floor or, without a ball, a trial rounds to the
    iterate (as every smaller step would).  Without a ball, where Armijo
    accepts the full step and it lowers the loss at an iterate whose
    decrement is at least ``_EXTENSION_GATE``, the search goes on to step
    sizes 2, 4, ... up to ``_EXTENSION_CAP``.  It keeps each trial whose loss
    is below the previous trial's and that passes Armijo at its own size, and
    stops at the first that does not.  The step is the last kept trial, whose
    stored value-pass Q table becomes the next bundle.

    Every fit starts at ``start``, by default ``theta = 0`` from
    :func:`_start`, made by the first fit on ``(mdp, features, beta)`` and
    reused, unchanged, by every later one: the loop copies what it changes.
    The fits share the start's Hessian, so the first round's restricted
    Newton system is decomposed once; the image basis is ``theta = 0``'s
    whatever the start.
    """
    # a Python float: a huge radius squares to inf without an overflow warning
    beta, phi, radius = config.beta, features.phi, float(config.B_theta)
    bounded = radius != float("inf")  # a ball-constrained problem always has a minimizer
    K, d = targets.shape

    # the image is every fit's identifiable subspace, and theta = 0 the default start
    zero_value, zero_grad, zero_hessian, image = _start(mdp, features, beta)
    if start is None:
        start = _Start(np.zeros((1, d)), zero_value, zero_grad, zero_hessian)

    def newton_steps(points, grads, hessians):
        steps, decrements, ridges = _restricted_newton_step(grads, hessians, image)
        if bounded:
            multipliers = -_dots(grads, points) / (radius * radius)
            js = np.flatnonzero((multipliers > 0.0) & _on_sphere(points, radius))
            # the directions of the image orthogonal to each point; with the
            # image only, theta_hat keeps no kernel component
            tangents = image @ np.linalg.svd(image.T @ points[js, :, None])[0][..., 1:]
            lagrangians = np.broadcast_to(hessians, (len(points), d, d))[js]
            lagrangians = lagrangians + multipliers[js, None, None] * np.eye(d)
            steps[js], decrements[js], ridges[js] = _restricted_newton_step(
                grads[js], lagrangians, tangents
            )
        return steps, decrements, ridges

    theta = np.repeat(start.theta, K, axis=0)
    loss = start.value - _dots(theta, targets)
    bundle_grad = np.repeat(start.gradient, K, axis=0)
    hessian = np.repeat(start.hessian, K, axis=0)
    step = np.zeros((K, d))
    decrement = np.full(K, np.nan)
    ridge_used = np.zeros(K, dtype=bool)
    directional = np.zeros(K)
    alpha = np.ones(K)
    trial = np.zeros((K, d))
    unjudged = np.zeros(K, dtype=bool)
    # each search's last kept trial: point, loss, step size (0.0 until one is kept) and Q table
    kept_point, kept_loss, kept_alpha = np.zeros((K, d)), np.zeros(K), np.zeros(K)
    kept_Q = np.zeros((mdp.T, K, mdp.S, mdp.A))
    status = np.full(K, "max_iters", dtype=object)
    direction, margin = np.zeros((K, d)), np.zeros(K)  # the certificates of infeasible fits
    iterates = np.zeros(K, dtype=np.int64)
    # the history, one array per round and column of _FitBatch: the fits
    # recorded, their loss, decrement, ridge flag and theta; then, per accepted
    # step, the history row of the iterate it left and its size
    history: dict[str, list] = {
        name: [] for name in ("member", "iterate_loss", "decrement", "ridge_used", "iterate")
    }
    steps_taken: tuple[list, list] = ([], [])
    rows_recorded, last_row = 0, np.zeros(K, dtype=np.int64)  # each fit's latest history row

    def record(fits, steps, decrements, ridges):
        """Set each fit's Newton step at its new iterate and record the iterate."""
        nonlocal rows_recorded
        step[fits], decrement[fits], ridge_used[fits] = steps, decrements, ridges
        iterates[fits] += 1
        last_row[fits] = rows_recorded + np.arange(len(fits))
        rows_recorded += len(fits)
        values = (fits, loss[fits], decrement[fits], ridge_used[fits], theta[fits])
        for column, value in zip(history.values(), values):
            column.append(value)

    def trials(fits):
        """Set each fit's trial point at its step size; return the fits whose trial moves."""
        points = theta[fits] + alpha[fits, None] * step[fits]
        if bounded:  # onto the ball
            norms = _norms(points)
            outside = norms > radius
            points[outside] *= (radius / norms[outside])[:, None]
        trial[fits] = points
        # without the ball, a step below the ulp of theta: every trial is the
        # iterate itself, which neither rule can accept
        moves = bounded | ~(points == theta[fits]).all(axis=1)
        status[fits[~moves]] = "stalled"
        return fits[moves]

    def search(fits):
        """Test each fit at its iterate and start the search of those that go on."""
        done = decrement[fits] <= config.tol_decrement
        status[fits[done]] = "converged"
        fits = fits[~done]
        if not bounded and fits.size:
            found, U, margins = _separation(mdp, phi, targets[fits], theta[fits])
            status[fits[found]] = "infeasible"
            direction[fits[found]], margin[fits[found]] = U[found], margins[found]
            fits = fits[~found]
        directional[fits] = _dots(bundle_grad[fits] - targets[fits], step[fits])
        inner = _dots(theta[fits], targets[fits])  # the loss is J*(theta) - inner
        resolution = _LOSS_RESOLUTION * (np.abs(loss[fits] + inner) + np.abs(inner))
        unjudged[fits] = -directional[fits] <= resolution
        alpha[fits], kept_loss[fits], kept_alpha[fits] = 1.0, loss[fits], 0.0
        return trials(fits)

    all_fits = np.arange(K)
    record(all_fits, *newton_steps(theta, bundle_grad - targets, start.hessian))
    searching = search(all_fits)

    while searching.size:
        rows = searching
        trial_loss, (Q, _) = _loss_and_values(mdp, phi, targets[rows], beta, trial[rows])
        # an unjudged step is taken without comparing losses
        accepted, next_alpha = unjudged[rows], np.zeros(len(rows))
        judged = np.flatnonzero(~accepted)
        if judged.size:
            fits = rows[judged]
            accepted[judged], next_alpha[judged] = _armijo(
                trial_loss[judged], loss[fits], alpha[fits], directional[fits]
            )
        # keep a trial the loss cannot judge, or one that lowers the iterate's
        # loss (or the last kept trial's), with its Q table
        keep = accepted & (unjudged[rows] | (trial_loss < kept_loss[rows]))
        fits = rows[keep]
        kept_point[fits], kept_loss[fits], kept_alpha[fits] = trial[fits], trial_loss[keep], alpha[fits]
        kept_Q[:, fits] = Q[:, keep]
        # without a ball, far from the minimizer, a judged step of size 1 or
        # more that is kept goes on to twice its size, up to the cap
        sizes = alpha[rows]
        extend = keep & ~unjudged[rows] & (1.0 <= sizes) & (sizes < _EXTENSION_CAP)
        extend &= (decrement[rows] >= _EXTENSION_GATE) & (not bounded)
        has_kept = kept_alpha[rows] > 0.0
        halved = ~accepted & ~has_kept & (next_alpha > 0.0)
        status[rows[~has_kept & ~halved]] = "stalled"  # no step size decreased the loss
        alpha[rows[halved]] = next_alpha[halved]
        alpha[rows[extend]] *= 2.0
        searching = np.concatenate([trials(rows[halved]), trials(rows[extend])])
        moved = has_kept & ~extend
        if not moved.any():
            continue

        # a search that ends steps to its last kept trial; take makes its
        # table C-contiguous, as a lone fit's is
        fits = rows[moved]
        probs = _gibbs_probs(mdp, beta, kept_Q.take(fits, axis=1))
        grads, hessians = _batch_derivatives(mdp, phi, beta, probs)
        steps, decrements, ridges = newton_steps(kept_point[fits], grads - targets[fits], hessians)
        refined = ~unjudged[fits] | (decrements < decrement[fits])
        status[fits[~refined]] = "stalled"  # the full step did not refine the iterate
        fits, grads, hessians = fits[refined], grads[refined], hessians[refined]
        steps, decrements, ridges = steps[refined], decrements[refined], ridges[refined]
        theta[fits], loss[fits] = kept_point[fits], kept_loss[fits]
        bundle_grad[fits], hessian[fits] = grads, hessians
        steps_taken[0].append(last_row[fits])  # the step accepted from each fit's last iterate
        steps_taken[1].append(kept_alpha[fits])
        again = iterates[fits] < config.max_iters
        record(fits[again], steps[again], decrements[again], ridges[again])
        searching = np.concatenate([searching, search(fits[again])])

    columns = {name: np.concatenate(column) for name, column in history.items()}
    step_size = np.zeros(rows_recorded)
    if steps_taken[0]:
        step_size[np.concatenate(steps_taken[0])] = np.concatenate(steps_taken[1])
    return _FitBatch(
        theta=theta,
        loss=loss,
        gradient=bundle_grad,
        gradient_norm=_norms(bundle_grad - targets),
        hessian=hessian,
        on_sphere=_on_sphere(theta, radius),
        status=status,
        direction=direction,
        margin=margin,
        step_size=step_size,
        **columns,
    )


def fit_empirical(
    mdp: Mdp, features: FeatureMap, data: Dataset, config: FitConfig
) -> IrlFitResult:
    """Minimize the empirical feature-matching loss over the parameter ball."""
    target = empirical_feature_expectation(data, features)
    return _fit(mdp, features, target, config)


def fit_population(
    mdp: Mdp, features: FeatureMap, expert: Policy, config: FitConfig
) -> IrlFitResult:
    """Minimize the population loss; its minimizer is the projection target
    that empirical fits converge to as the sample grows."""
    target = feature_expectation(mdp, expert, features)
    return _fit(mdp, features, target, config)
