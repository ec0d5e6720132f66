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

The pass works on the live pairs' history columns, gathered by one
``take`` into a C-contiguous (H_LEN, 2K) window, presynaptic columns then
postsynaptic.  Norms and lag numerators come from read-only strided views of
that window and of its square, which the ``np.ndarray`` constructor lays over
the runs of rows each offset needs without copying them: every column's
window norm at offsets 0..max_lag is one sum over an (xcorr_window,
max_lag + 1, 2K) view, and every lag numerator one product of the
postsynaptic rows with an (xcorr_window, max_lag, K) view of the presynaptic
rows.  Each sum runs down its view's leading axis one row at a time, and the
lag terms add lag by lag from +0.0: the order a per-neuron ``.sum(axis=0)``
uses, so no result depends on which pairs are active.

A pair whose weight is exactly 1.0 keeps its bytes unless it weakens: both
strengthening classes clip it back to 1.0 and class none adds +0.0.  It is
left out, with no lag sum, where a certificate proves that its lag sum
reaches ``weaken_xcorr_max``.  Where all H_LEN samples of a neuron lie in
[ZERO_NORM, 1], with least lo and greatest hi, let rho = lo/hi.  A window u
of the presynaptic neuron and v of the postsynaptic one, w samples each,
have u.v >= w lo_u lo_v and |u||v| <= w hi_u hi_v, so every lag cosine is
at least rho_pre rho_post and the lag sum at least max_lag times that.  The
bound, less a relative ``CERTIFICATE_MARGIN`` far above the rounding of
either side, must reach ``weaken_xcorr_max``; any other pair is correlated.
Classes map to rates through one four-entry table.  The weights are copied
only on a step that changes the bytes of one, so a pass whose live pairs all
sit at a bound hands the same array on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_numbers
from .kernel import NetView

H_LEN = 8  # committed rows the rule reads, newest first
ZERO_NORM = 1e-12
CERTIFICATE_MARGIN = 1e-9  # relative; a computed lag sum or bound strays from its exact value by ulps


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
        # Windows read at most the `rows` left past the largest lag, a slope fit
        # one row more than it spans; no correlation sum exceeds max_lag; and
        # with a negative rate each strengthening class would weaken.
        require_numbers(self)  # the types first: the bounds are worked out from max_lag
        rows = H_LEN - self.max_lag
        require_numbers(
            self, max_lag=f"[1, {H_LEN - 1}]", xcorr_window=f"[1, {rows}]", slope_window=f"[1, {rows})",
            rapid_xcorr_min=f"(-inf, {self.max_lag}]", rapid_rate="[0, inf)", slow_rate="[0, inf)",
        )
        if not (self.weaken_xcorr_max < self.strengthen_xcorr_min < self.rapid_xcorr_min):
            raise ConfigError("classification bands must be ordered weaken < strengthen < rapid")


def _windows(a: np.ndarray, w: int, count: int, start: int = 0, cols: int | None = None) -> np.ndarray:
    """Read-only view ``v[r, j] = a[start + r + j, :cols]`` of the C-contiguous
    2-D `a`: `count` overlapping runs of `w` rows, not copied.
    ``v.sum(axis=0)`` adds each run's rows in order, as ``.sum(axis=0)`` does
    on the one (w, K) run, so no sum depends on K.  The constructor refuses a
    view that reaches past the buffer."""
    row, col = a.strides
    v = np.ndarray((w, count, cols or a.shape[1]), a.dtype, a, start * row, (row, row, col))
    v.flags.writeable = False
    return v


def _lag_sums(win: np.ndarray, cfg: PlasticityConfig) -> np.ndarray:
    """Correlation sums over lags 1..max_lag, one per pair of a gathered
    (H_LEN, 2K) history window as ``take`` returns it, C-contiguous, with K
    presynaptic columns then K postsynaptic."""
    w, lags = cfg.xcorr_window, cfg.max_lag
    k = win.shape[1] // 2
    norms = np.sqrt(_windows(win * win, w, lags + 1).sum(axis=0))  # (max_lag + 1, 2K): offsets 0..max_lag
    # A norm below ZERO_NORM becomes inf, so each term it enters is a zero of
    # either sign; the sum from +0.0 below gives the bits a +0.0 term gives.
    norms[norms < ZERO_NORM] = np.inf
    # postsynaptic row r times presynaptic row 1 + r + l: lag l + 1
    num = (win[:w, None, k:] * _windows(win, w, lags, 1, k)).sum(axis=0)  # (max_lag, K)
    num /= norms[0, k:] * norms[1:, :k]
    return num.sum(axis=0, initial=0.0)  # lag by lag, never -0.0


def _slope_sums(win: np.ndarray, cfg: PlasticityConfig) -> np.ndarray:
    """Sums of |slope| over the rule's lag offsets, one per column of a
    gathered (H_LEN, K) history window."""
    u, lags = cfg.slope_window, cfg.max_lag
    # Centred sample times, -1, 0, 1 for the default window: multiples of
    # 0.5, so every product and their sum of squares are exact.  A zero
    # coefficient's term is left out: it could change only the sign of a
    # zero fit, which the abs removes.
    c = [r - u / 2 for r in range(u + 1)]
    fit = c[0] * win[1:lags + 1]
    for r in range(1, u + 1):
        if c[r]:
            fit += c[r] * win[1 + r:lags + 1 + r]
    fit /= sum(x * x for x in c)
    return np.abs(fit, out=fit).sum(axis=0)


def plasticity_step(
    history: np.ndarray, weights: np.ndarray, view: NetView, cfg: PlasticityConfig | None = None
) -> np.ndarray:
    """One full plasticity pass over ``history``, the last ``H_LEN``
    committed activation rows, newest first (row 0 is the current
    activation).  Returns ``weights`` itself unless the pass changes the
    bytes of some weight, else a new, read-only array; no input is written.
    """
    cfg = cfg or PlasticityConfig()
    above = history[0].take(view.mut_ends) > cfg.activity_threshold  # pre row, post row
    active = (above[0] & above[1]).nonzero()[0]
    if not len(active):
        return weights
    ends, idx = view.mut_ends.take(active, axis=1), view.syn_mutable.take(active)
    old = weights.take(idx)
    # Below the cap class none still turns -0.0 into +0.0, so only pairs at
    # 1.0 are left out, where the certificate (above) holds; NaN passes no test.
    live = old != 1.0
    if not live.all():
        lo, hi = history.min(axis=0), history.max(axis=0)
        lo[(lo < ZERO_NORM) | (hi > 1.0)] = np.nan  # a NaN sample gives NaN already
        rho = (lo / hi).take(ends)
        live |= ~(rho[0] * rho[1] * (cfg.max_lag * (1.0 - CERTIFICATE_MARGIN)) >= cfg.weaken_xcorr_max)
    live = live.nonzero()[0]
    if not len(live):
        return weights
    k, idx, old = len(live), idx.take(live), old.take(live)
    win = history.take(ends.take(live, axis=1).ravel(), axis=1)  # pre columns, then post
    xs = _lag_sums(win, cfg)
    flat = _slope_sums(win, cfg) <= cfg.rapid_slope_max
    # Bands 0..2 (weaken, none, slow) from the lag sum alone, 3 for rapid,
    # which wins and lies in band 2 as the bands are ordered.  A zero rate of
    # either sign comes out +0.0, as `+ 0.0` and `0.0 -` give.
    edges = np.array((cfg.weaken_xcorr_max, math.nextafter(cfg.strengthen_xcorr_min, math.inf)))
    band = edges.searchsorted(xs, "right")
    band += (xs >= cfg.rapid_xcorr_min) & flat[:k] & flat[k:]
    new = view.syn_mi.take(idx)
    new *= np.array((0.0 - cfg.slow_rate, 0.0, cfg.slow_rate + 0.0, cfg.rapid_rate + 0.0)).take(band)
    new += old
    # np.clip's bits without its Python wrapper.  The two can differ only on
    # an input of -0.0, and `old + mi*rate` is never -0.0: rate is never -0.0
    # and mi > 0, so mi*rate is +0.0 or nonzero (unless |rate| * mi underflows
    # below 2**-1075), and -0.0 + +0.0 is +0.0, even for a weight built as -0.0.
    np.minimum(np.maximum(new, 0.0, out=new), 1.0, out=new)
    if new.tobytes() == old.tobytes():
        return weights
    out = weights.copy()
    out.put(idx, new)
    out.flags.writeable = False  # the next step and pass read it; neither may write it
    return out
