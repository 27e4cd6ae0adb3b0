"""Tabular finite-horizon MDP primitives.

Conventions used throughout the package:

* Steps are indexed ``t = 0 .. T-1`` (arrays of per-step quantities have
  leading dimension ``T``).  Value functions carry one extra terminal slot.
* ``kernels[t]`` is the transition kernel applied *after* step ``t``, i.e. it
  maps ``(s_t, a_t)`` to the distribution of ``s_{t+1}``; there are ``T-1`` of
  them.  The initial state is drawn from ``initial_dist``.
* ``ref_measure`` is a strictly positive reference weight per action.  Policy
  "densities" are probabilities divided by it; with an all-ones reference the
  induced entropy is ordinary Shannon entropy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    EmptyDatasetError,
    InputError,
    InvariantError,
)

_DIST_ATOL = 1e-12


def _as_numbers(x, field_name: str) -> np.ndarray:
    """``x`` as a float64 array of integers or floats: an ``InvariantError``
    naming ``field_name`` for a mapping, a ragged list, strings or flags."""
    arr = _as_array(x, field_name)
    if arr.dtype.kind not in "iuf":
        raise InvariantError(f"{field_name}: expected a nested array of numbers")
    return arr.astype(np.float64, copy=False)


def _as_float_array(x, field_name: str, shape: tuple) -> np.ndarray:
    """The one reader of a float array from outside: ``x`` read as numbers, of
    ``shape`` (each axis a size, or a name such as ``"d"`` for any size) and
    finite, or a ``SoftIrlError`` naming ``field_name``.  It is the caller's
    own array, flags untouched, when it needs no conversion."""
    arr = _as_numbers(x, field_name)
    sizes = tuple(n if isinstance(m, str) else m for n, m in zip(arr.shape, shape))
    if arr.ndim != len(shape) or arr.shape != sizes:
        raise DimensionError(field_name, shape, arr.shape)
    if not np.all(np.isfinite(arr)):
        raise InvariantError(f"{field_name}: entries must be finite")
    return arr


def _freeze(obj, field_name: str, shape: tuple) -> None:
    """Store the field of a frozen dataclass read by :func:`_as_float_array`,
    C-contiguous and read-only (the caller's array, when not converted)."""
    arr = np.ascontiguousarray(_as_float_array(getattr(obj, field_name), field_name, shape))
    arr.flags.writeable = False
    object.__setattr__(obj, field_name, arr)


def _check_distribution(arr: np.ndarray, field_name: str, axis: int = -1) -> None:
    if np.any(arr < 0.0):
        raise InvariantError(f"{field_name}: negative probability entry")
    worst = float(np.max(np.abs(arr.sum(axis=axis) - 1.0), initial=0.0))
    if not worst <= _DIST_ATOL:  # a NaN sum fails too
        raise InvariantError(
            f"{field_name}: rows must sum to 1 within {_DIST_ATOL} (worst error {worst:.3e})"
        )


@dataclass(frozen=True, eq=False)
class Mdp:
    """A finite-horizon controlled Markov chain without a reward.

    Attributes
    ----------
    T, S, A:
        Horizon, number of states, number of actions.
    initial_dist:
        Distribution of the first state, shape ``(S,)``.
    kernels:
        Transition kernels, shape ``(T-1, S, A, S)``; ``kernels[t, s, a]`` is
        the distribution of the state at step ``t+1``.
    ref_measure:
        Strictly positive per-action reference weights, shape ``(A,)``.

    Each array is stored C-contiguous and read-only: the caller's own float64
    array, which becomes read-only, when it needs no conversion.
    """

    T: int
    S: int
    A: int
    initial_dist: np.ndarray
    kernels: np.ndarray
    ref_measure: np.ndarray

    def __post_init__(self) -> None:
        for name in ("T", "S", "A"):
            object.__setattr__(self, name, _check_count(getattr(self, name), name))
        if self.T == 1 and _as_numbers(self.kernels, "kernels").size == 0:
            # a T = 1 MDP has no kernels; an empty JSON list keeps no shape
            object.__setattr__(self, "kernels", np.empty((0, self.S, self.A, self.S)))
        _freeze(self, "initial_dist", (self.S,))
        _freeze(self, "kernels", (self.T - 1, self.S, self.A, self.S))
        _freeze(self, "ref_measure", (self.A,))
        _check_distribution(self.initial_dist, "initial_dist")
        if self.T > 1:
            _check_distribution(self.kernels, "kernels")
        if np.any(self.ref_measure <= 0.0):
            raise InvariantError("ref_measure: entries must be strictly positive")

    @property
    def log_ref_measure(self) -> np.ndarray:
        return np.log(self.ref_measure)


@dataclass(frozen=True, eq=False)
class Policy:
    """A Markovian, time-inhomogeneous policy: ``probs[t, s]`` is a
    distribution; ``probs`` is stored as :class:`Mdp` stores its arrays."""

    probs: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        _freeze(self, "probs", ("T", "S", "A"))
        _check_distribution(self.probs, "probs")

    @property
    def T(self) -> int:
        return self.probs.shape[0]

    @property
    def S(self) -> int:
        return self.probs.shape[1]

    @property
    def A(self) -> int:
        return self.probs.shape[2]


def uniform_policy(mdp: Mdp, label: str = "uniform") -> Policy:
    probs = np.full((mdp.T, mdp.S, mdp.A), 1.0 / mdp.A)
    return Policy(probs=probs, label=label)


def _as_array(x, field_name: str) -> np.ndarray:
    """``np.asarray(x)``, or an ``InvariantError`` naming ``field_name`` where
    ``x`` is not one array of scalars (a mapping, ragged nested sequences)."""
    try:
        arr = np.asarray(x)
    except (TypeError, ValueError) as exc:
        raise InvariantError(f"{field_name}: cannot be read as one array ({exc})") from exc
    if arr.dtype.kind == "O":
        raise InvariantError(f"{field_name}: cannot be read as one array of scalars")
    return arr


@dataclass(frozen=True, eq=False)
class Dataset:
    """``n`` trajectories as read-only ``(n, T)`` int64 ``states`` and
    ``actions`` arrays, plus the seed/label that produced them."""

    states: np.ndarray
    actions: np.ndarray
    seed: int
    generator_label: str = ""

    def __post_init__(self) -> None:
        paths = _as_paths(self.states, self.actions, "dataset")
        for name, index in zip(("states", "actions"), paths):
            index = np.array(index, dtype=np.int64)
            index.flags.writeable = False
            object.__setattr__(self, name, index)
        object.__setattr__(self, "seed", _check_seed(self.seed))

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def T(self) -> int:
        return self.states.shape[1]


def _check_compatible(mdp: Mdp, policy: Policy) -> None:
    if policy.probs.shape != (mdp.T, mdp.S, mdp.A):
        raise DimensionError("policy.probs", (mdp.T, mdp.S, mdp.A), policy.probs.shape)


def _as_paths(states, actions, what: str, axes: tuple | None = None):
    """The one reader of paths from outside: ``states`` and ``actions`` as
    integer ``(n, T)`` arrays, ``n, T >= 1``, with no negative index and, given
    the ``(T, S, A, ...)`` ``axes`` of a table, its horizon and indices below
    its ``S`` and ``A``; else a ``SoftIrlError`` naming ``what``.  No copy."""
    states, actions = _as_array(states, f"{what} states"), _as_array(actions, f"{what} actions")
    if states.ndim != 2:
        raise DimensionError(f"{what} states", "(n, T)", states.shape)
    if actions.shape != states.shape:
        raise DimensionError(f"{what} actions", states.shape, actions.shape)
    if states.shape[0] == 0:
        raise EmptyDatasetError(f"{what}: needs at least one trajectory")
    if states.shape[1] == 0:
        raise InvariantError(f"{what}: a trajectory needs at least one step")
    # with no table, an index need only fit the int64 that a Dataset stores
    T, S, A = axes[:3] if axes is not None else (states.shape[1], 2**63, 2**63)
    if states.shape[1] != T:
        raise DimensionError(what, f"horizon {T}", f"shape {states.shape}")
    for index, name, axis, size in ((states, "state", "S", S), (actions, "action", "A", A)):
        if index.dtype.kind not in "iu":
            raise InvariantError(f"{what} {name} indices must be integers, got dtype {index.dtype}")
        if index.min() < 0:
            raise InvariantError(f"{what} {name} index out of range (negative)")
        if index.max() >= size:
            raise InvariantError(f"{what} {name} index out of range ({axis}={size})")
    return states, actions


def forward_occupancy(mdp: Mdp, policy: Policy) -> np.ndarray:
    """State-action visitation probabilities ``mu[t, s, a]`` of ``policy``,
    propagated exactly from the initial distribution: shape ``(T, S, A)``."""
    _check_compatible(mdp, policy)
    return _occupancy(mdp, policy.probs)


def _occupancy(mdp: Mdp, probs: np.ndarray) -> np.ndarray:
    """:func:`forward_occupancy` of the policy tables ``probs``, shape ``(T,
    ..., S, A)``: any axes between time and state are a batch of policies.

    Each policy's propagation is one ``gemv`` per step, the call it makes on
    its own, so a batch gives every policy the bits of a lone call.
    """
    mu = np.empty(probs.shape)
    marginal = mdp.initial_dist
    for t in range(mdp.T):
        mu[t] = marginal[..., None] * probs[t]
        if t < mdp.T - 1:
            rows = mu[t].reshape(-1, 1, mdp.S * mdp.A) @ mdp.kernels[t].reshape(-1, mdp.S)
            marginal = rows.reshape(mu[t].shape[:-1])
    return mu


# One uniform per draw, 2T per trajectory: at 2**32 trajectories the uniforms
# alone would take 64*T GiB.
_MAX_TRAJECTORIES = 2**32
_MAX_COUNT = 2**63  # numpy draws multinomial counts as int64


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_seed(seed) -> int:
    if not _is_integer(seed):
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    return int(seed)


def _check_count(value, name: str) -> int:
    """``value`` as an int: an ``InputError`` unless it is an integer >= 1."""
    if not (_is_integer(value) and value >= 1):
        error = DomainError if _is_integer(value) else InputError
        raise error(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _check_sample_size(value, name: str) -> int:
    """``value`` as an int: a count of trajectories that int64 visit counts can hold."""
    n = _check_count(value, name)
    if n >= _MAX_COUNT:
        raise DomainError(f"{name} must be below 2**63 (visit counts are int64), got {n}")
    return n


def _check_flag(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise InputError(f"{name} must be true or false, got {value!r}")
    return value


def _check_real(value, name: str, low=-np.inf, high=np.inf, include_low=False) -> float:
    """The one reader of a scalar from outside: ``value`` as a float, or an
    ``InputError`` naming ``name`` unless it is a number (not a flag) in
    ``(low, high)``, or in ``[low, high)`` with ``include_low``."""
    numeric = _is_integer(value) or isinstance(value, (float, np.floating))
    if not (numeric and (low <= value if include_low else low < value) and value < high):
        error = DomainError if numeric else InputError
        opening = "[" if include_low else "("
        raise error(f"{name} must be a number in {opening}{low:g}, {high:g}), got {value!r}")
    return float(value)


def _last_positive(table: np.ndarray) -> np.ndarray:
    """Index of each row's last positive entry along the last axis: the entry
    a draw of either sampler stops at, past which it never lands."""
    return table.shape[-1] - 1 - np.argmax(table[..., ::-1] > 0.0, axis=-1)


def _inverse_cdf(table: np.ndarray, rows, u: np.ndarray) -> np.ndarray:
    """Index ``i`` drawn from row ``rows[i]`` of ``table`` (a stack of
    distributions) with uniform ``u[i]``; ``rows`` may be one index for every
    draw.  The rule is spelled out in ``sample_trajectories``."""
    w = table.shape[1]
    cdf = np.cumsum(table, axis=1)
    # From each row's last positive entry on, no total is ever counted: a
    # draw stops at that entry even when the rounded row total is <= u.  The
    # last column is then always +inf and need not be compared.
    cdf[np.arange(w) >= _last_positive(table)[:, None]] = np.inf
    idx = np.zeros(u.shape, dtype=np.int64)
    for column in cdf.T[:-1]:
        idx += column.take(rows) <= u
    return idx


def sample_trajectories(mdp: Mdp, policy: Policy, n: int, seed: int) -> Dataset:
    """Draw ``n`` i.i.d. trajectories from ``policy`` in ``mdp``.

    Bit-reproducible: the uniforms are ``Generator(PCG64(seed)).random((n,
    2 * T))``, and trajectory ``i`` consumes row ``i`` in the fixed order
    ``s_0, a_0, s_1, a_1, ...``.  The stream fills rows in order, so the first
    ``m`` trajectories of ``n`` are the ``m``-trajectory dataset.  ``seed``
    must be a non-negative integer and ``1 <= n < 2**32``; anything else
    raises an ``InputError``.

    A draw is an inverse-CDF lookup.  Per call, the running totals of each row
    of ``initial_dist``, of ``policy.probs[t]`` and of ``kernels[t]`` (as
    ``(S*A, S)`` rows, row ``s*A + a``) are summed once, and a draw from a
    ``w``-wide row is the number of its first ``w - 1`` totals at or below the
    uniform.  Totals from the row's last positive entry onward count as
    ``+inf``, so a draw never lands on an entry of probability zero.
    """
    _check_compatible(mdp, policy)
    seed = _check_seed(seed)
    if not _is_integer(n):
        raise InputError(f"n must be an integer, got {n!r}")
    n = int(n)
    if n < 1:
        raise EmptyDatasetError("cannot sample an empty dataset (n must be >= 1)")
    if n >= _MAX_TRAJECTORIES:
        raise DomainError(f"n must be below 2**32 (the uniforms would not fit in memory), got {n}")
    u = np.random.Generator(np.random.PCG64(seed)).random((n, 2 * mdp.T))

    states = np.empty((n, mdp.T), dtype=np.int64)
    actions = np.empty((n, mdp.T), dtype=np.int64)
    successors = mdp.kernels.reshape(mdp.T - 1, mdp.S * mdp.A, mdp.S)
    s = _inverse_cdf(mdp.initial_dist[None, :], 0, u[:, 0])
    for t in range(mdp.T):
        states[:, t] = s
        a = _inverse_cdf(policy.probs[t], s, u[:, 2 * t + 1])
        actions[:, t] = a
        if t < mdp.T - 1:
            s = _inverse_cdf(successors[t], s * mdp.A + a, u[:, 2 * t + 2])
    return Dataset(states=states, actions=actions, seed=seed, generator_label=policy.label)


def _sample_counts(mdp: Mdp, policy: Policy, n: int, seed: int) -> np.ndarray:
    """Visit counts ``N[t, s, a]`` of ``n`` i.i.d. trajectories of ``policy``,
    drawn from their exact law by multinomial splitting: shape ``(T, S, A)``.

    One ``Generator(PCG64(seed))`` draws, in this order, ``N_0 ~ Mult(n,
    initial_dist)``; then per step ``N_t(s, .) ~ Mult(N_t(s), probs[t, s])``,
    one call over ``s``; and, before the last step, the successors of each
    ``N_t(s, a)`` from ``Mult(N_t(s, a), kernels[t, s, a])``, one call over
    ``(s, a)``, summed into ``N_{t+1}``.  The cost does not grow with ``n``.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = np.empty((mdp.T, mdp.S, mdp.A), dtype=np.int64)
    visits = _split(rng, n, mdp.initial_dist)
    for t in range(mdp.T):
        counts[t] = _split(rng, visits, policy.probs[t])
        if t < mdp.T - 1:
            visits = _split(rng, counts[t], mdp.kernels[t]).sum(axis=(0, 1))
    return counts


def _split(rng: np.random.Generator, counts, table: np.ndarray) -> np.ndarray:
    """``rng.multinomial(counts, table)``, with no count on an entry of
    probability zero.

    numpy gives the last column whatever its chain of binomials leaves over.
    Where that column is zero, the rounding of its running remainder can leave
    counts there (at ``n = 2**60``, in about 2 of 5 such rows); they go to the
    row's last positive entry, the entry ``sample_trajectories`` stops at.
    """
    draw = rng.multinomial(counts, table)
    if table.all():
        return draw
    stray = np.where(table == 0.0, draw, 0)
    if stray.any():
        last = _last_positive(table)[..., None]
        kept = np.take_along_axis(draw, last, axis=-1) + stray.sum(axis=-1, keepdims=True)
        draw -= stray
        np.put_along_axis(draw, last, kept, axis=-1)
    return draw


def gather_table(table: np.ndarray, states, actions) -> np.ndarray:
    """Read ``table[t, states[i, t], actions[i, t]]`` for a batch: shape ``(N, T, ...)``.
    ``table``, of rank 3 or more, is read as numbers that may be infinite (an advantage
    is ``+inf`` off a policy's support), and the paths by :func:`_as_paths` on its axes."""
    table = _as_numbers(table, "table")
    if table.ndim < 3:
        raise DimensionError("table", "(T, S, A, ...)", table.shape)
    states, actions = _as_paths(states, actions, "path", table.shape)
    return table[np.arange(table.shape[0])[None, :], states, actions]


def trajectory_log_prob(mdp: Mdp, policy: Policy, data: Dataset) -> np.ndarray:
    """Log-probability of each trajectory of ``data``, shape ``(n,)``.

    A row is ``-inf`` as soon as any of its factors vanishes.
    """
    _check_compatible(mdp, policy)
    _as_paths(data.states, data.actions, "dataset", policy.probs.shape)
    states, actions = data.states, data.actions
    factors = np.empty((len(data), 2 * mdp.T))
    factors[:, 0] = mdp.initial_dist[states[:, 0]]
    steps = np.arange(mdp.T)
    factors[:, 1::2] = policy.probs[steps, states, actions]
    factors[:, 2::2] = mdp.kernels[steps[:-1], states[:, :-1], actions[:, :-1], states[:, 1:]]
    with np.errstate(divide="ignore"):
        return np.log(factors).sum(axis=1)


def _visit_frequencies(data: Dataset, table: np.ndarray) -> np.ndarray:
    """Empirical occupancy ``mu_hat[t, s, a] = N_t(s, a) / n`` of ``data`` on
    ``table``'s ``(T, S, A)`` axes.

    The dataset is checked first: an out-of-range index would otherwise be
    counted, silently, in a cell of another step.
    """
    _as_paths(data.states, data.actions, "dataset", table.shape)
    T, S, A = table.shape[:3]
    rows = np.ravel_multi_index((np.arange(T), data.states, data.actions), (T, S, A))
    return (np.bincount(rows.ravel(), minlength=T * S * A) / len(data)).reshape(T, S, A)


def _occupancy_average(mu: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``sum_t <mu_t, table_t>`` of a ``(T, S, A, d)`` table at an occupancy: shape ``(d,)``."""
    return mu.reshape(-1) @ table.reshape(mu.size, -1)


def _feature_table(features, mdp: Mdp | None = None) -> np.ndarray:
    """``features``, a feature-map object exposing ``.phi`` or a raw array, as
    a finite float ``(T, S, A, d)`` table, on ``mdp``'s axes when given."""
    axes = ("T", "S", "A") if mdp is None else (mdp.T, mdp.S, mdp.A)
    return _as_float_array(getattr(features, "phi", features), "features", (*axes, "d"))


def empirical_feature_expectation(data: Dataset, features) -> np.ndarray:
    """Average per-trajectory feature return ``(1/n) sum_i sum_t phi_t(s, a)``,
    the population formula at the empirical occupancy.

    ``features`` may be a feature-map object exposing ``.phi`` or a raw array
    of shape ``(T, S, A, d)``.
    """
    phi = _feature_table(features)
    return _occupancy_average(_visit_frequencies(data, phi), phi)


def feature_expectation(mdp: Mdp, policy: Policy, features) -> np.ndarray:
    """Population feature expectation ``sum_t <phi_t, mu_t>`` under ``policy``."""
    phi = _feature_table(features, mdp)
    return _occupancy_average(forward_occupancy(mdp, policy), phi)
