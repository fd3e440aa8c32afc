"""The two monitors and the seeded inputs the workloads run on.

Monitor weights are fixed (seed 0): a run's ``--seed`` chooses the
kinematics, not the model, so runs with different seeds load the
program identically.  References come from the reference backend's
bulk pass, which is bit-identical to the looped ``process()``.
"""

from __future__ import annotations

import numpy as np

from repro.serving import (
    BulkScorer,
    make_random_walk_trajectory,
    make_synthetic_monitor,
)

from perfbench.common import stream_reference

MONITOR_SEED = 0
N_FEATURES = 38

#: Human-readable architecture per monitor, recorded in provenance.
ARCHITECTURES = {
    "toy": "gesture LSTM 16 + dense 16; conv (8,) error stage",
    "paper": "gesture LSTM 512/96 + dense 64; conv (32,16) error stage",
}


def build_monitor(kind: str):
    """The toy synthetic monitor or the paper-scale one (LSTM 512/96)."""
    if kind == "toy":
        return make_synthetic_monitor(n_features=N_FEATURES, seed=MONITOR_SEED)
    if kind == "paper":
        return make_synthetic_monitor(
            n_features=N_FEATURES,
            seed=MONITOR_SEED,
            gesture_lstm_units=(512, 96),
            gesture_dense_units=64,
            hidden=(32, 16),
        )
    raise ValueError(f"unknown monitor {kind!r}")


def procedures(seed: int, n: int, n_frames: int) -> list:
    """``n`` seeded random-walk procedures of ``n_frames`` frames each."""
    seeds = np.random.default_rng(seed).integers(0, 2**31, size=n)
    return [
        make_random_walk_trajectory(n_frames, n_features=N_FEATURES, seed=int(s))
        for s in seeds
    ]


def bulk_reference(monitor, trajectories) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per procedure ``(gestures, scores, flags)`` from the reference
    backend — what an offline ``process()`` returns."""
    outputs = BulkScorer(monitor, backend="reference").score_many(trajectories)
    return [
        (
            np.asarray(o.gestures, dtype=np.int64),
            np.asarray(o.unsafe_scores, dtype=float),
            np.asarray(o.unsafe_flags, dtype=bool),
        )
        for o in outputs
    ]


def stream_references(monitor, trajectories):
    """Per procedure ``(gestures, scores, flags)`` a live session emits."""
    warmup = monitor.gesture_classifier.config.window.window - 1
    return [
        stream_reference(g, s, monitor.threshold, warmup)
        for g, s, _ in bulk_reference(monitor, trajectories)
    ]
