"""Correlation-driven weight updates for chemical synapses.

Once per step each synapse is classified from the recent activation
histories of its two endpoints.  A pair that is strongly correlated across
all four lags while both signals hold nearly still strengthens rapidly; a
correlated pair still in motion strengthens slowly; an uncorrelated pair
weakens slowly.  Nothing happens unless both endpoints are currently above
the activity threshold, and every update scales with the synapse's
mutability index, so structural wiring with mutability 0 never moves.

Correlation at a lag is the cosine between the postsynaptic neuron's four
most recent samples and the presynaptic neuron's four samples starting that
many steps back; a zero-norm window contributes 0.  The slope of a history
window is a least-squares fit oriented so that positive means rising toward
the present.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .kernel import H_LEN, NetView, SimState
from .connectome import Connectome

ZERO_NORM = 1e-12


@dataclass
class PlasticityConfig:
    xcorr_window: int = 4
    max_lag: int = 4
    slope_window: int = 2  # number of steps spanned; the fit uses one more sample
    rapid_xcorr_min: float = 3.92
    rapid_slope_max: float = 0.02
    weaken_xcorr_max: float = 0.05
    strengthen_xcorr_min: float = 3.5
    rapid_rate: float = 0.01
    slow_rate: float = 0.001
    activity_threshold: float = 0.2

    def __post_init__(self) -> None:
        if not (self.weaken_xcorr_max < self.strengthen_xcorr_min < self.rapid_xcorr_min):
            raise ConfigError("classification bands must be ordered weaken < strengthen < rapid")
        if self.rapid_xcorr_min > self.max_lag:
            raise ConfigError("rapid_xcorr_min cannot exceed the maximum correlation sum")
        if self.max_lag + self.xcorr_window > H_LEN:
            raise ConfigError("correlation windows cannot reach past the history ring")


def _lag_sums(history: np.ndarray, view: NetView, cfg: PlasticityConfig) -> np.ndarray:
    """Per-synapse correlation sums over lags 1..max_lag."""
    w = cfg.xcorr_window
    post_win = history[0:w, :][:, view.syn_post]  # (w, S)
    sums = np.zeros(len(view.syn_pre))
    na = np.linalg.norm(post_win, axis=0)
    for lag in range(1, cfg.max_lag + 1):
        pre_win = history[lag:lag + w, :][:, view.syn_pre]
        nb = np.linalg.norm(pre_win, axis=0)
        num = (post_win * pre_win).sum(axis=0)
        ok = (na >= ZERO_NORM) & (nb >= ZERO_NORM)
        denom = np.where(ok, na * nb, 1.0)
        sums += np.where(ok, num / denom, 0.0)
    return sums


def _slope_sums(history: np.ndarray, cfg: PlasticityConfig) -> np.ndarray:
    """Per-neuron sums of |slope| over the rule's lag offsets."""
    u = cfg.slope_window
    x = np.arange(u + 1, dtype=float)
    c = x - x.mean()
    denom = float((c**2).sum())
    total = np.zeros(history.shape[1])
    for t in range(1, cfg.max_lag + 1):
        seg = history[t:t + u + 1, :]
        total += np.abs(-(c @ seg) / denom)
    return total


def plasticity_step(
    state: SimState, net: Connectome | NetView, cfg: PlasticityConfig | None = None
) -> np.ndarray:
    """One full plasticity pass; returns the new weight array.

    Inert until the history ring has been filled by real steps, so the
    padded start-up history can never drive learning.
    """
    cfg = cfg or PlasticityConfig()
    view = NetView.of(net)
    if state.step < H_LEN or len(view.syn_pre) == 0:
        return state.weights.copy()
    a = state.activation
    active = (a[view.syn_pre] > cfg.activity_threshold) & (a[view.syn_post] > cfg.activity_threshold)
    if not active.any():
        return state.weights.copy()
    xs = _lag_sums(state.history, view, cfg)
    ss = _slope_sums(state.history, cfg)
    flat = (ss[view.syn_pre] <= cfg.rapid_slope_max) & (ss[view.syn_post] <= cfg.rapid_slope_max)
    rapid = active & (xs >= cfg.rapid_xcorr_min) & flat
    weaken = active & ~rapid & (xs < cfg.weaken_xcorr_max)
    slow = active & ~rapid & ~weaken & (xs > cfg.strengthen_xcorr_min)
    delta = view.syn_mi * (
        rapid * cfg.rapid_rate + slow * cfg.slow_rate - weaken * cfg.slow_rate
    )
    return np.clip(state.weights + delta, 0.0, 1.0)
