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

The pass works on the active pairs' history columns, gathered by one
``take`` into an (H_LEN, 2K) window, presynaptic columns then postsynaptic;
norms, lag numerators and slopes come from it alone.  Window sums add one
row at a time, in the order a per-neuron ``.sum(axis=0)`` uses, so no result
depends on which pairs are active.  The weights are copied only on a step
that changes the bytes of one, so a pass whose live pairs all sit at a
bound hands the same array on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_finite
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
        require_finite(self)
        if not (self.weaken_xcorr_max < self.strengthen_xcorr_min < self.rapid_xcorr_min):
            raise ConfigError("classification bands must be ordered weaken < strengthen < rapid")
        if self.rapid_xcorr_min > self.max_lag:
            raise ConfigError("rapid_xcorr_min cannot exceed the maximum correlation sum")
        if self.max_lag + self.xcorr_window > H_LEN:
            raise ConfigError("correlation windows cannot reach past the history ring")
        if not 1 <= self.slope_window < H_LEN - self.max_lag:
            raise ConfigError(f"slope_window must lie in [1, {H_LEN - self.max_lag - 1}]")


def _row_sums(rows: np.ndarray, w: int) -> np.ndarray:
    """Sums of every run of `w` consecutive rows, one row added at a time:
    ((r0 + r1) + r2) + r3 for w = 4, the order ``.sum(axis=0)`` uses on a
    (w, K) window, so the result does not depend on K."""
    count = len(rows) - w + 1
    total = rows[:count]
    for r in range(1, w):
        total = total + rows[r:r + count]
    return total


def _lag_sums(pre_win: np.ndarray, post_win: np.ndarray, cfg: PlasticityConfig) -> np.ndarray:
    """Correlation sums over lags 1..max_lag, one per column of the gathered
    (H_LEN, K) pre- and postsynaptic history windows."""
    w, lags = cfg.xcorr_window, cfg.max_lag
    post_now = post_win[:w]
    na = np.sqrt(_row_sums(post_now * post_now, w))  # (1, K): offset 0
    pre_back = pre_win[1:lags + w]
    nb = np.sqrt(_row_sums(pre_back * pre_back, w))  # (max_lag, K): offsets 1..max_lag
    num = post_now[0] * pre_back[:lags]
    for r in range(1, w):
        num = num + post_now[r] * pre_back[r:r + lags]
    ok = (na >= ZERO_NORM) & (nb >= ZERO_NORM)
    terms = np.zeros(num.shape)
    np.divide(num, na * nb, out=terms, where=ok)
    sums = np.zeros(pre_win.shape[1])  # lag by lag from +0.0
    for term in terms:
        sums += term
    return sums


def _slope_sums(win: np.ndarray, cfg: PlasticityConfig) -> np.ndarray:
    """Sums of |slope| over the rule's lag offsets, one per column of a
    gathered (H_LEN, K) history window."""
    u, lags = cfg.slope_window, cfg.max_lag
    # Centred sample times, -1, 0, 1 for the default window: multiples of
    # 0.5, so every product and their sum of squares are exact.
    c = [r - u / 2 for r in range(u + 1)]
    fit = c[0] * win[1:lags + 1]
    for r in range(1, u + 1):
        fit = fit + c[r] * win[1 + r:lags + 1 + r]
    return np.abs(fit / sum(x * x for x in c)).sum(axis=0)


def plasticity_step(
    state: SimState, view: NetView, cfg: PlasticityConfig | None = None
) -> np.ndarray:
    """One full plasticity pass.  Returns ``state.weights`` itself unless
    the pass changes the bytes of some weight, else a new array;
    ``state.weights`` is never written.

    Inert until the history ring has been filled by real steps, so the
    padded start-up history can never drive learning.
    """
    cfg = cfg or PlasticityConfig()
    if state.step < H_LEN:
        return state.weights
    above = state.activation[view.mut_ends] > cfg.activity_threshold  # pre row, post row
    active = (above[0] & above[1]).nonzero()[0]
    if not len(active):
        return state.weights
    k = len(active)
    win = state.history.take(view.mut_ends.take(active, axis=1).ravel(), axis=1)  # pre columns, then post
    xs = _lag_sums(win[:, :k], win[:, k:], cfg)
    flat = _slope_sums(win, cfg) <= cfg.rapid_slope_max
    rapid = (xs >= cfg.rapid_xcorr_min) & flat[:k] & flat[k:]
    # At most one class holds: rapid wins and the bands are ordered.  For one
    # class, rapid*rr + slow*sr - weaken*sr is exactly rr, sr, -sr or +0.0,
    # except that a zero rate of either sign gives +0.0, as `+ 0.0` and
    # `0.0 -` do.
    rr, sr = cfg.rapid_rate, cfg.slow_rate
    rate = np.where(
        rapid,
        rr + 0.0,
        np.where(xs > cfg.strengthen_xcorr_min, sr + 0.0, np.where(xs < cfg.weaken_xcorr_max, 0.0 - sr, 0.0)),
    )
    idx = view.syn_mutable[active]
    old = state.weights[idx]
    new = np.clip(old + view.syn_mi[idx] * rate, 0.0, 1.0)
    if new.tobytes() == old.tobytes():
        return state.weights
    weights = state.weights.copy()
    weights[idx] = new
    return weights
