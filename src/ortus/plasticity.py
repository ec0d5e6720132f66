"""Correlation-driven weight updates for chemical synapses.

Once per step each active mutable synapse is classified from the recent
activation histories of its two endpoints.  A pair that is strongly
correlated across all four lags while both signals hold nearly still
strengthens rapidly; a correlated pair still in motion strengthens slowly;
an uncorrelated pair weakens slowly.  Every update scales with the
synapse's mutability index, so the rule runs only on synapses with
mutability above 0 whose two endpoints are both above the activity
threshold right now; every other weight is returned untouched.

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


def _lag_sums(
    history: np.ndarray, pre: np.ndarray, post: np.ndarray, cfg: PlasticityConfig
) -> np.ndarray:
    """Correlation sums over lags 1..max_lag, one per (pre[i], post[i]) pair."""
    w = cfg.xcorr_window
    # per-neuron window norms at offsets 0..max_lag, indexed per pair below
    norms = np.stack(
        [np.linalg.norm(history[k:k + w, :], axis=0) for k in range(cfg.max_lag + 1)]
    )
    post_win = history[0:w, post]  # (w, K)
    pre_hist = history[:, pre]  # (H_LEN, K)
    na = norms[0, post]
    sums = np.zeros(len(pre))
    for lag in range(1, cfg.max_lag + 1):
        nb = norms[lag, pre]
        num = (post_win * pre_hist[lag:lag + w]).sum(axis=0)
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
    state: SimState, view: NetView, cfg: PlasticityConfig | None = None
) -> np.ndarray:
    """One full plasticity pass; returns a new weight array and leaves
    ``state.weights`` as it was.

    Inert until the history ring has been filled by real steps, so the
    padded start-up history can never drive learning.
    """
    cfg = cfg or PlasticityConfig()
    weights = state.weights.copy()
    if state.step < H_LEN:
        return weights
    a = state.activation
    idx = view.syn_mutable
    pre, post = view.syn_pre[idx], view.syn_post[idx]
    active = (a[pre] > cfg.activity_threshold) & (a[post] > cfg.activity_threshold)
    if not active.any():
        return weights
    idx, pre, post = idx[active], pre[active], post[active]
    xs = _lag_sums(state.history, pre, post, cfg)
    ss = _slope_sums(state.history, cfg)
    flat = (ss[pre] <= cfg.rapid_slope_max) & (ss[post] <= cfg.rapid_slope_max)
    rapid = (xs >= cfg.rapid_xcorr_min) & flat
    weaken = ~rapid & (xs < cfg.weaken_xcorr_max)
    slow = ~rapid & ~weaken & (xs > cfg.strengthen_xcorr_min)
    delta = view.syn_mi[idx] * (
        rapid * cfg.rapid_rate + slow * cfg.slow_rate - weaken * cfg.slow_rate
    )
    weights[idx] = np.clip(weights[idx] + delta, 0.0, 1.0)
    return weights
