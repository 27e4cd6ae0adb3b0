"""Small built-in instances shipped with the package.

These are fixed, hand-constructed problems used by ``soft-irl solve
--builtin``, the non-convexity probe and a number of tests.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .linear_reward import FeatureMap
from .mdp import Dataset, Mdp, _check_count
from .soft_dp import RewardTable


def counterexample_instance() -> tuple[Mdp, FeatureMap, Dataset]:
    """Two-state, two-action, two-step instance with a non-quasiconvex MLE loss.

    State 0 is the start; action 0 moves to state 1 surely while action 1
    stays/moves with probability 1/2 each.  Rewards act only at the final
    step, through two features that pay for action 0 in state 0 resp. state 1.
    The returned one-row dataset (take action 1, land in state 1, take
    action 0) is the observation on which the likelihood is evaluated.
    """
    T, S, A = 2, 2, 2
    initial_dist = np.array([1.0, 0.0])
    kernels = np.zeros((T - 1, S, A, S))
    kernels[0, 0, 0] = [0.0, 1.0]
    kernels[0, 0, 1] = [0.5, 0.5]
    # rows out of state 1 never matter for the construction; keep them uniform
    kernels[0, 1, 0] = [0.5, 0.5]
    kernels[0, 1, 1] = [0.5, 0.5]
    mdp = Mdp(T=T, S=S, A=A, initial_dist=initial_dist, kernels=kernels, ref_measure=np.ones(A))

    phi = np.zeros((T, S, A, 2))
    phi[1, 0, 0, 0] = 1.0
    phi[1, 1, 0, 1] = 1.0
    features = FeatureMap(phi=phi)

    data = Dataset(states=[[0, 1]], actions=[[1, 0]], seed=0, generator_label="demonstration")
    return mdp, features, data


def deterministic_chain_instance(S: int = 4, A: int = 2, T: int = 3) -> tuple[Mdp, RewardTable]:
    """A fixed deterministic cyclic-shift MDP with a simple reward.

    Action ``a`` moves deterministically from state ``s`` to
    ``(s + a + 1) mod S``; the start state is 0 and the reward pays ``s + a``
    scaled to [0, 1] (0 where ``S = A = 1``).  Used to exercise the
    zero-dynamics-noise paths.  The sizes are integers >= 1.
    """
    S, A, T = _check_count(S, "S"), _check_count(A, "A"), _check_count(T, "T")
    initial_dist = np.zeros(S)
    initial_dist[0] = 1.0
    kernels = np.zeros((T - 1, S, A, S))
    s, a = np.arange(S)[:, None], np.arange(A)
    kernels[:, s, a, (s + a + 1) % S] = 1.0
    mdp = Mdp(T=T, S=S, A=A, initial_dist=initial_dist, kernels=kernels, ref_measure=np.ones(A))

    r = np.broadcast_to((s + a) / max(S + A - 2.0, 1.0), (T, S, A)).copy()
    return mdp, RewardTable(r=r)


def zero_reward_instance(S: int = 3, A: int = 2, T: int = 4) -> tuple[Mdp, RewardTable]:
    """Uniform-kernel MDP with an all-zero reward (pure-entropy control); the
    sizes are integers >= 1."""
    S, A, T = _check_count(S, "S"), _check_count(A, "A"), _check_count(T, "T")
    initial_dist = np.full(S, 1.0 / S)
    kernels = np.full((T - 1, S, A, S), 1.0 / S)
    mdp = Mdp(T=T, S=S, A=A, initial_dist=initial_dist, kernels=kernels, ref_measure=np.ones(A))
    return mdp, RewardTable(r=np.zeros((T, S, A)))


BUILTIN_NAMES = ("counterexample", "det-chain", "zero-reward")


def builtin_mdp_reward(name: str) -> tuple[Mdp, RewardTable]:
    """Resolve a ``--builtin`` name to an (Mdp, RewardTable) pair."""
    if name == "counterexample":
        mdp, features, _ = counterexample_instance()
        return mdp, RewardTable(r=features.phi @ np.array([2.0, 4.0]))
    if name == "det-chain":
        return deterministic_chain_instance()
    if name == "zero-reward":
        return zero_reward_instance()
    raise InputError(f"unknown builtin {name!r}; available: {', '.join(BUILTIN_NAMES)}")
