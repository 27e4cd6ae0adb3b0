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
    CapacityError,
    DimensionError,
    DomainError,
    EmptyDatasetError,
    InputError,
    InvariantError,
)

DEFAULT_ENUMERATION_CAP = 2_000_000

_DIST_ATOL = 1e-12


def _as_float_array(x, field_name: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if shape is not None and arr.shape != shape:
        raise DimensionError(field_name, shape, arr.shape)
    if not np.all(np.isfinite(arr)):
        raise InvariantError(f"{field_name}: entries must be finite")
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


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
        object.__setattr__(
            self, "initial_dist", _as_float_array(self.initial_dist, "initial_dist", (self.S,))
        )
        kernels = self.kernels
        if self.T == 1 and np.size(kernels) == 0:
            # a T = 1 MDP has no kernels; an empty JSON list keeps no shape
            kernels = np.empty((0, self.S, self.A, self.S))
        object.__setattr__(
            self,
            "kernels",
            _as_float_array(kernels, "kernels", (self.T - 1, self.S, self.A, self.S)),
        )
        object.__setattr__(
            self, "ref_measure", _as_float_array(self.ref_measure, "ref_measure", (self.A,))
        )
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
    """A Markovian, time-inhomogeneous policy: ``probs[t, s]`` is a distribution."""

    probs: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 3:
            raise DimensionError("probs", "(T, S, A)", probs.shape)
        object.__setattr__(self, "probs", _as_float_array(probs, "probs"))
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


def _as_index_array(x, field_name: str) -> np.ndarray:
    try:
        arr = np.asarray(x)
    except ValueError as exc:  # ragged nested sequences
        raise InvariantError(f"{field_name}: all trajectories must share one horizon") from exc
    if arr.ndim != 2:
        raise DimensionError(field_name, "(n, T)", arr.shape)
    if arr.shape[0] == 0:
        raise EmptyDatasetError("a dataset must contain at least one trajectory")
    if arr.shape[1] == 0:
        raise InvariantError("a trajectory must contain at least one step")
    if arr.dtype.kind not in "iu":
        raise InvariantError(f"{field_name}: entries must be integers, got dtype {arr.dtype}")
    arr = np.array(arr, dtype=np.int64)
    if np.any(arr < 0):
        raise InvariantError("trajectory indices must be non-negative")
    arr.flags.writeable = False
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
        states = _as_index_array(self.states, "states")
        actions = _as_index_array(self.actions, "actions")
        if actions.shape != states.shape:
            raise DimensionError("actions", states.shape, actions.shape)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "seed", _check_seed(self.seed))

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def T(self) -> int:
        return self.states.shape[1]


def _check_compatible(mdp: Mdp, policy: Policy) -> None:
    if policy.probs.shape != (mdp.T, mdp.S, mdp.A):
        raise DimensionError("policy.probs", (mdp.T, mdp.S, mdp.A), policy.probs.shape)


def _check_dataset(data: Dataset, table: np.ndarray) -> None:
    """Reject ``data`` unless its horizon and indices fit ``table``'s ``(T, S, A)`` axes."""
    T, S, A = table.shape[:3]
    if data.T != T:
        raise DimensionError("dataset", f"horizon {T}", f"horizon {data.T}")
    if data.states.max() >= S:
        raise InvariantError(f"dataset state index out of range (S={S})")
    if data.actions.max() >= A:
        raise InvariantError(f"dataset action index out of range (A={A})")


def forward_occupancy(mdp: Mdp, policy: Policy) -> np.ndarray:
    """State-action visitation probabilities ``mu[t, s, a]`` of ``policy``,
    propagated exactly from the initial distribution: shape ``(T, S, A)``."""
    _check_compatible(mdp, policy)
    mu = np.empty((mdp.T, mdp.S, mdp.A))
    marginal = mdp.initial_dist
    for t in range(mdp.T):
        mu[t] = marginal[:, None] * policy.probs[t]
        if t < mdp.T - 1:
            marginal = mu[t].ravel() @ mdp.kernels[t].reshape(mdp.S * mdp.A, mdp.S)
    return mu


# Constants of numpy's SeedSequence and PCG64 (numpy/random/bit_generator.pyx,
# numpy/random/src/pcg64): the stream below reproduces theirs bit for bit.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_MAX_STREAMS = 2**32  # the trajectory index is a single uint32 spawn word


def _seed_words(seed: int) -> list[int]:
    """``seed`` as little-endian uint32 words, zero-padded to the pool size."""
    words = []
    while seed > 0:
        words.append(seed & _MASK32)
        seed >>= 32
    return words + [0] * (_POOL_SIZE - len(words))


def _hash_constants(init: int, mult: int):
    """The ``(xor, multiplier)`` pairs of SeedSequence's successive hashes."""
    h = init
    while True:
        nxt = (h * mult) & _MASK32
        yield np.uint32(h), np.uint32(nxt)
        h = nxt


def _hash(value: np.ndarray, constants) -> np.ndarray:
    xor, mult = next(constants)
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _spawned_pools(seed: int, n: int) -> list[np.ndarray]:
    """Entropy pools of ``SeedSequence(seed, spawn_key=(i,))``: four uint32 rows."""
    entropy = [np.full(n, w, dtype=np.uint32) for w in _seed_words(seed)]
    entropy.append(np.arange(n, dtype=np.uint32))
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hash(entropy[i], constants) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], _hash(pool[i_src], constants))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], _hash(word, constants))
    return pool


def _generate_state64(pool: list[np.ndarray]) -> list[np.ndarray]:
    """``generate_state(4, np.uint64)`` of each pool column: four uint64 rows."""
    constants = _hash_constants(_INIT_B, _MULT_B)
    words = [_hash(pool[i % _POOL_SIZE], constants).astype(np.uint64) for i in range(2 * _POOL_SIZE)]
    return [words[2 * k] | (words[2 * k + 1] << np.uint64(32)) for k in range(_POOL_SIZE)]


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit product ``a * b``, from 32-bit limbs."""
    m32 = np.uint64(_MASK32)
    a0, a1 = a & m32, a >> np.uint64(32)
    b0, b1 = np.uint64(b & _MASK32), np.uint64(b >> 32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> np.uint64(32)) + (p01 & m32) + (p10 & m32)
    return a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One 128-bit LCG step ``state * MULT + inc`` on ``(hi, lo)`` uint64 halves."""
    new_hi = hi * np.uint64(_PCG_MULT_LO) + lo * np.uint64(_PCG_MULT_HI) + _mulhi64(lo, _PCG_MULT_LO)
    new_lo = lo * np.uint64(_PCG_MULT_LO)
    out_lo = new_lo + inc_lo
    carry = (out_lo < new_lo).astype(np.uint64)
    return new_hi + inc_hi + carry, out_lo


def _child_uniforms(seed: int, n: int, draws: int) -> np.ndarray:
    """Uniforms for ``n`` trajectories, one child generator per trajectory.

    Row ``i`` equals ``Generator(PCG64(SeedSequence(seed, spawn_key=(i,))))
    .random(draws)`` bit for bit, so sampling can be split across workers at
    any granularity without changing the result.  All ``n`` streams advance
    together as uint64 array arithmetic.
    """
    w0, w1, w2, w3 = _generate_state64(_spawned_pools(seed, n))
    # PCG64 seeding: inc = (w2:w3) << 1 | 1, state = 0; step, add (w0:w1), step.
    # The first step from state 0 leaves just inc.
    inc_hi = (w2 << np.uint64(1)) | (w3 >> np.uint64(63))
    inc_lo = (w3 << np.uint64(1)) | np.uint64(1)
    lo = inc_lo + w1
    hi = inc_hi + w0 + (lo < w1).astype(np.uint64)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)

    out = np.empty((n, draws))
    for k in range(draws):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR output, then the top 53 bits as a double in [0, 1)
        rot = hi >> np.uint64(58)
        x = hi ^ lo
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        out[:, k] = (x >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
    return out


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


def _check_flag(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise InputError(f"{name} must be true or false, got {value!r}")
    return value


def _check_real(value, name: str, low: float = -np.inf, high: float = np.inf) -> float:
    """``value`` as a float: an ``InputError`` unless it is a number in ``(low, high)``."""
    numeric = _is_integer(value) or isinstance(value, (float, np.floating))
    if not (numeric and low < value < high):
        error = DomainError if numeric else InputError
        raise error(f"{name} must be a number in ({low:g}, {high:g}), got {value!r}")
    return float(value)


def _rows_inverse_cdf(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise inverse-CDF sampling: ``rows[i]`` is a distribution, ``u[i]`` a uniform."""
    cum = np.cumsum(rows, axis=1)
    idx = (cum <= u[:, None]).sum(axis=1)
    return np.minimum(idx, rows.shape[1] - 1)


def sample_trajectories(mdp: Mdp, policy: Policy, n: int, seed: int) -> Dataset:
    """Draw ``n`` i.i.d. trajectories from ``policy`` in ``mdp``.

    Bit-reproducible: trajectory ``i`` consumes the uniforms of its own child
    generator in the fixed order ``s_0, a_0, s_1, a_1, ...``; results do not
    depend on how the work is batched.  ``seed`` must be a non-negative
    integer and ``1 <= n < 2**32``; anything else raises an ``InputError``.
    """
    _check_compatible(mdp, policy)
    seed = _check_seed(seed)
    if not _is_integer(n):
        raise InputError(f"n must be an integer, got {n!r}")
    n = int(n)
    if n < 1:
        raise EmptyDatasetError("cannot sample an empty dataset (n must be >= 1)")
    if n >= _MAX_STREAMS:
        raise DomainError(f"n must be below 2**32 (one uint32 stream index per trajectory), got {n}")
    u = _child_uniforms(seed, n, 2 * mdp.T)

    states = np.empty((n, mdp.T), dtype=np.int64)
    actions = np.empty((n, mdp.T), dtype=np.int64)
    init_rows = np.broadcast_to(mdp.initial_dist, (n, mdp.S))
    s = _rows_inverse_cdf(init_rows, u[:, 0])
    for t in range(mdp.T):
        states[:, t] = s
        a = _rows_inverse_cdf(policy.probs[t][s], u[:, 2 * t + 1])
        actions[:, t] = a
        if t < mdp.T - 1:
            s = _rows_inverse_cdf(mdp.kernels[t][s, a], u[:, 2 * t + 2])
    return Dataset(states=states, actions=actions, seed=seed, generator_label=policy.label)


def enumerate_support(mdp: Mdp, policy: Policy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Enumerate every positive-probability trajectory of ``policy``.

    Returns ``(states, actions, probs)`` with shapes ``(N, T)``, ``(N, T)``,
    ``(N,)``; probabilities are exact products of the model factors and sum to
    one.  Trajectories appear in lexicographic ``(s_0, a_0, s_1, ...)`` order.
    Raises ``CapacityError`` when ``(S*A)**T`` exceeds ``DEFAULT_ENUMERATION_CAP``.
    """
    _check_compatible(mdp, policy)
    worst_case = (mdp.S * mdp.A) ** mdp.T
    if worst_case > DEFAULT_ENUMERATION_CAP:
        raise CapacityError(
            f"(S*A)**T = {worst_case} exceeds enumeration cap {DEFAULT_ENUMERATION_CAP}"
        )

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


def gather_table(table: np.ndarray, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Read ``table[t, states[i, t], actions[i, t]]`` for a batch: shape ``(N, T, ...)``."""
    T = states.shape[1]
    return table[np.arange(T)[None, :], states, actions]


def _path_rows(shape: tuple[int, ...], states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Row ``(t*S + s_t)*A + a_t`` of each visited entry of a ``(T, S, A, ...)``
    table flattened over its first three axes, shape ``(T, N)``: one row per step."""
    T, S, A = shape[:3]
    return np.ascontiguousarray((np.arange(T)[:, None] * S + states.T) * A + actions.T)


def _path_sum(flat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``sum_t flat[rows[t]]`` for a table flattened to ``(T*S*A, ...)``: shape ``(N, ...)``.

    Adds one row-``take`` per step in ``t`` order, so the ``(N, T, ...)`` gather
    is never held, and is bit-identical to ``gather_table(...).sum(axis=1)``.
    Where the trailing axes hold a single value, numpy sums the step axis of
    the gather pairwise, so that gather (no larger than ``rows``) is reduced
    the same way instead.
    """
    if flat[0].size <= 1:
        return flat.take(np.ascontiguousarray(rows.T), axis=0).sum(axis=1)
    total = flat.take(rows[0], axis=0)
    for row in rows[1:]:
        total += flat.take(row, axis=0)
    return total


def _gather_factors(
    mdp: Mdp, policy: Policy, states: np.ndarray, actions: np.ndarray
) -> np.ndarray:
    """Probability factors of each trajectory, shape ``(N, 2T)``."""
    n, T = states.shape
    factors = np.empty((n, 2 * T))
    factors[:, 0] = mdp.initial_dist[states[:, 0]]
    factors[:, 1::2] = gather_table(policy.probs, states, actions)
    for t in range(T - 1):
        factors[:, 2 * t + 2] = mdp.kernels[t][states[:, t], actions[:, t], states[:, t + 1]]
    return factors


def batch_trajectory_probs(
    mdp: Mdp, policy: Policy, states: np.ndarray, actions: np.ndarray
) -> np.ndarray:
    """Exact probability of each ``(states[i], actions[i])`` trajectory."""
    return _gather_factors(mdp, policy, states, actions).prod(axis=1)


def trajectory_log_prob(mdp: Mdp, policy: Policy, data: Dataset) -> np.ndarray:
    """Log-probability of each trajectory of ``data``, shape ``(n,)``.

    A row is ``-inf`` as soon as any of its factors vanishes.
    """
    _check_compatible(mdp, policy)
    _check_dataset(data, policy.probs)
    factors = _gather_factors(mdp, policy, data.states, data.actions)
    with np.errstate(divide="ignore"):
        return np.log(factors).sum(axis=1)


def _visit_frequencies(data: Dataset, table: np.ndarray) -> np.ndarray:
    """Empirical occupancy ``mu_hat[t, s, a] = N_t(s, a) / n`` of ``data`` on
    ``table``'s ``(T, S, A)`` axes.

    The dataset is checked first: an out-of-range index would otherwise be
    counted, silently, in a cell of another step.
    """
    _check_dataset(data, table)
    T, S, A = table.shape[:3]
    rows = _path_rows(table.shape, data.states, data.actions)
    return (np.bincount(rows.ravel(), minlength=T * S * A) / len(data)).reshape(T, S, A)


def _occupancy_average(mu: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``sum_t <mu_t, table_t>`` of a ``(T, S, A, d)`` table at an occupancy: shape ``(d,)``."""
    return mu.reshape(-1) @ table.reshape(mu.size, -1)


def _feature_table(features, mdp: Mdp) -> np.ndarray:
    """``features``, a feature-map object exposing ``.phi`` or a raw array, as
    a float ``(T, S, A, d)`` table on ``mdp``'s axes."""
    phi = np.asarray(getattr(features, "phi", features), dtype=np.float64)
    if phi.ndim != 4 or phi.shape[:3] != (mdp.T, mdp.S, mdp.A):
        raise DimensionError("features", (mdp.T, mdp.S, mdp.A, "d"), phi.shape)
    return phi


def empirical_feature_expectation(data: Dataset, features) -> np.ndarray:
    """Average per-trajectory feature return ``(1/n) sum_i sum_t phi_t(s, a)``,
    the population formula at the empirical occupancy.

    ``features`` may be a feature-map object exposing ``.phi`` or a raw array
    of shape ``(T, S, A, d)``.
    """
    phi = np.asarray(getattr(features, "phi", features), dtype=np.float64)
    if phi.ndim != 4:
        raise DimensionError("features", "(T, S, A, d)", phi.shape)
    return _occupancy_average(_visit_frequencies(data, phi), phi)


def feature_expectation(mdp: Mdp, policy: Policy, features) -> np.ndarray:
    """Population feature expectation ``sum_t <phi_t, mu_t>`` under ``policy``."""
    phi = _feature_table(features, mdp)
    return _occupancy_average(forward_occupancy(mdp, policy), phi)
