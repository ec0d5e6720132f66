"""Scalar reference maths for the kernel and the learning rule, and the
runner's per-step event scan.

One synapse, one junction or one history window at a time, written for
clarity rather than speed.  The tests pin these functions with hand-computed
values and then hold the vectorized engine in ``ortus.kernel`` and
``ortus.plasticity`` to them, often on small hand-wired nets from
``make_net``.

The last section keeps whole-network array formulas (every synapse
evaluated with its own sigmoid and gate, window norms and slopes taken once
per neuron) that the engine's gate entries and gathered learning windows
must reproduce bit for bit, and the learning pass without its held-pair
certificate, which the certified pass must reproduce byte for byte.  The
chemical and gap-junction formulas read the connectome itself, not the
``NetView`` derived from it, so they do not share the derivation they
check.  The protocol section keeps the scan over every event on every step
that the compiled schedule replaces, and the runner's loop that computes
every step, which the fast-forwarding ``protocol.run`` must reproduce byte
for byte.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from ortus import physiology
from ortus.connectome import ChemicalSynapse, Connectome, GapJunction, Neuron
from ortus.dsl import Layer
from ortus.errors import OrtusError
from ortus.kernel import ACTIVATION_RANGE, NetView, step
from ortus.physiology import PhysioBinding, PhysioConfig
from ortus.plasticity import H_LEN, ZERO_NORM, PlasticityConfig, _lag_sums, _slope_sums, plasticity_step
from ortus.protocol import EventKind, Protocol, RunConfig, TraceLog, schedule

# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def make_net(n, chem=(), gap=(), thresholds=None) -> Connectome:
    """A connectome of `n` plain neurons named n0, n1, ... wired as given."""
    thresholds = thresholds or [0.0] * n
    neurons = [Neuron(f"n{i}", Layer.PLAIN, thresholds[i]) for i in range(n)]
    return Connectome(
        neurons=neurons,
        chem=list(chem),
        gap=list(gap),
        name_to_id={f"n{i}": i for i in range(n)},
    )


def conductance(a_pre: float, inverted: bool = False) -> float:
    """Graded synaptic conductance in (0, 1).

    A sigmoid of the presynaptic activation scaled by the activation range
    (2, from the inhibitory reversal -1 to the excitatory reversal 1):
    exactly 0.5 at equilibrium, a little over 0.92 at the excitatory
    reversal, a little under 0.08 at the inhibitory reversal.
    """
    x = -a_pre if inverted else a_pre
    return 1.0 / (1.0 + math.exp(-5.0 * x / 2.0))


def cs_inflow(syn: ChemicalSynapse, a_pre: float, a_post: float, threshold: float) -> float:
    """Inflow contributed by one chemical synapse, zero below the
    postsynaptic transmission threshold."""
    drive = -a_pre if syn.inverted else a_pre
    if drive < threshold:
        return 0.0
    g = conductance(a_pre, syn.inverted)
    return syn.weight * g * (syn.reversal - a_post)


def gj_flux(junction: GapJunction, a_a: float, a_b: float) -> tuple[float, float]:
    """(flux into a, flux into b) for one junction; the two always cancel."""
    into_b = junction.weight * (a_a - a_b) / 2.0
    return -into_b, into_b


# ---------------------------------------------------------------------------
# learning rule
# ---------------------------------------------------------------------------


class InsufficientHistory(OrtusError):
    """The history window does not hold enough samples for the request."""


class Classification(enum.Enum):
    RAPID_STRENGTHEN = "rapid_strengthen"
    SLOW_STRENGTHEN = "slow_strengthen"
    SLOW_WEAKEN = "slow_weaken"
    NONE = "none"


def lagged_xcorr(h_post: np.ndarray, h_j: np.ndarray, lag: int, window: int = 4) -> float:
    """Cosine similarity between the most recent `window` samples of h_post
    and the `window` samples of h_j starting `lag` steps back."""
    h_post = np.asarray(h_post, dtype=float)
    h_j = np.asarray(h_j, dtype=float)
    if len(h_post) < window or len(h_j) < lag + window:
        raise InsufficientHistory(
            f"need {window} and {lag + window} samples, have {len(h_post)} and {len(h_j)}"
        )
    a = h_post[:window]
    b = h_j[lag:lag + window]
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < ZERO_NORM or nb < ZERO_NORM:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def slope(h: np.ndarray, t: int = 0, u: int = 2) -> float:
    """Least-squares slope of h[t .. t+u], positive when the signal is
    rising toward the present (history index 0 is the newest sample)."""
    h = np.asarray(h, dtype=float)
    if len(h) < t + u + 1:
        raise InsufficientHistory(f"need {t + u + 1} samples, have {len(h)}")
    y = h[t:t + u + 1]
    x = np.arange(u + 1, dtype=float)
    fit = np.polyfit(x, y, 1)[0]
    return float(-fit)


def brute_cos(x, y) -> float:
    """The cosine of two windows in exactly rounded sums, with no numpy;
    0 where either norm is below 1e-12."""
    nx = math.sqrt(math.fsum(v * v for v in x))
    ny = math.sqrt(math.fsum(v * v for v in y))
    if nx < 1e-12 or ny < 1e-12:
        return 0.0
    return math.fsum(a * b for a, b in zip(x, y)) / (nx * ny)


def brute_slope(h, t: int = 0, u: int = 2) -> float:
    """``slope`` in exactly rounded sums, with no numpy and no ``polyfit``."""
    seg = [float(v) for v in h[t : t + u + 1]]
    xs = list(range(len(seg)))
    xbar = sum(xs) / len(xs)
    ybar = math.fsum(seg) / len(seg)
    num = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, seg))
    den = math.fsum((x - xbar) ** 2 for x in xs)
    return -(num / den)


def xcorr_lag_sum(h_post: np.ndarray, h_pre: np.ndarray, cfg: PlasticityConfig) -> float:
    """Correlation summed over lags 1 .. max_lag (lag 0 is excluded)."""
    return sum(
        lagged_xcorr(h_post, h_pre, lag, cfg.xcorr_window) for lag in range(1, cfg.max_lag + 1)
    )


def slope_abs_sum(h: np.ndarray, cfg: PlasticityConfig) -> float:
    """Sum of |slope| over the same lag offsets the correlation rule uses."""
    return sum(abs(slope(h, t, cfg.slope_window)) for t in range(1, cfg.max_lag + 1))


def classify(
    a_pre: float,
    a_post: float,
    h_pre: np.ndarray,
    h_post: np.ndarray,
    cfg: PlasticityConfig | None = None,
) -> Classification:
    """Classify one synapse from its endpoints' activations and histories.

    Rapid strengthening requires the full-correlation band AND both signals
    nearly flat; it takes precedence over slow strengthening.  Everything is
    gated on both endpoints being above the activity threshold right now.
    """
    cfg = cfg or PlasticityConfig()
    if a_pre <= cfg.activity_threshold or a_post <= cfg.activity_threshold:
        return Classification.NONE
    xs = xcorr_lag_sum(h_post, h_pre, cfg)
    if xs >= cfg.rapid_xcorr_min:
        if (
            slope_abs_sum(h_pre, cfg) <= cfg.rapid_slope_max
            and slope_abs_sum(h_post, cfg) <= cfg.rapid_slope_max
        ):
            return Classification.RAPID_STRENGTHEN
    if xs < cfg.weaken_xcorr_max:
        return Classification.SLOW_WEAKEN
    if xs > cfg.strengthen_xcorr_min:
        return Classification.SLOW_STRENGTHEN
    return Classification.NONE


_DELTA_RATE = {
    Classification.RAPID_STRENGTHEN: lambda cfg: cfg.rapid_rate,
    Classification.SLOW_STRENGTHEN: lambda cfg: cfg.slow_rate,
    Classification.SLOW_WEAKEN: lambda cfg: -cfg.slow_rate,
    Classification.NONE: lambda cfg: 0.0,
}


def apply_updates(
    weights: np.ndarray,
    classifications: list[Classification],
    mutabilities: np.ndarray,
    cfg: PlasticityConfig | None = None,
) -> np.ndarray:
    """New weight array: each weight moves by (rate * mutability) in the
    direction its classification dictates, clamped to [0, 1]."""
    cfg = cfg or PlasticityConfig()
    rates = np.array([_DELTA_RATE[c](cfg) for c in classifications])
    return np.clip(weights + rates * mutabilities, 0.0, 1.0)


# ---------------------------------------------------------------------------
# whole-network array formulas
# ---------------------------------------------------------------------------


def chem_terms_all_synapses(a: np.ndarray, weights: np.ndarray, net: Connectome) -> np.ndarray:
    """Chemical inflow per neuron with every synapse of ``net.chem``
    evaluated under ``weights``: a gated-off synapse adds its inflow times
    0.0, and ``np.add.at`` accumulates in storage order."""
    cs_in = np.zeros(net.n)
    if not net.chem:
        return cs_in
    pre = np.array([s.pre for s in net.chem])
    post = np.array([s.post for s in net.chem])
    rev = np.array([s.reversal for s in net.chem])
    inverted = np.array([s.inverted for s in net.chem])
    gate = np.array([net.neurons[s.post].threshold for s in net.chem])
    drive = np.where(inverted, -a[pre], a[pre])
    g = 1.0 / (1.0 + np.exp(-5.0 * drive / ACTIVATION_RANGE))
    contrib = weights * g * (rev - a[post]) * (drive >= gate)
    np.add.at(cs_in, post, contrib)
    return cs_in


def gap_terms_add_at(a: np.ndarray, net: Connectome) -> np.ndarray:
    """Gap-junction inflow per neuron: every junction's flux added into its
    b end, then its negation into its a end, by two ``np.add.at`` calls."""
    gj_in = np.zeros(net.n)
    if net.gap:
        ends_a = np.array([g.a for g in net.gap])
        ends_b = np.array([g.b for g in net.gap])
        flux = np.array([g.weight for g in net.gap]) * (a[ends_a] - a[ends_b]) * 0.5
        np.add.at(gj_in, ends_b, flux)
        np.add.at(gj_in, ends_a, -flux)
    return gj_in


def lag_sums_by_neuron(
    history: np.ndarray, pre: np.ndarray, post: np.ndarray, cfg: PlasticityConfig
) -> np.ndarray:
    """Correlation sums over lags 1..max_lag per (pre[i], post[i]) pair, with
    the window norms taken once per neuron of the network at every offset
    0..max_lag and indexed per pair."""
    w = cfg.xcorr_window
    norms = np.stack(
        [np.linalg.norm(history[k:k + w, :], axis=0) for k in range(cfg.max_lag + 1)]
    )
    post_win = history[0:w, post]
    pre_hist = history[:, pre]
    na = norms[0, post]
    sums = np.zeros(len(pre))
    for lag in range(1, cfg.max_lag + 1):
        nb = norms[lag, pre]
        num = (post_win * pre_hist[lag:lag + w]).sum(axis=0)
        ok = (na >= ZERO_NORM) & (nb >= ZERO_NORM)
        denom = np.where(ok, na * nb, 1.0)
        sums += np.where(ok, num / denom, 0.0)
    return sums


def slope_sums_by_neuron(history: np.ndarray, cfg: PlasticityConfig) -> np.ndarray:
    """Sums of |slope| over offsets 1..max_lag for every neuron, one matrix
    product per offset."""
    u = cfg.slope_window
    x = np.arange(u + 1, dtype=float)
    c = x - x.mean()
    denom = float((c**2).sum())
    total = np.zeros(history.shape[1])
    for t in range(1, cfg.max_lag + 1):
        seg = history[t:t + u + 1, :]
        total += np.abs(-(c @ seg) / denom)
    return total


def plasticity_step_uncertified(
    history: np.ndarray, weights: np.ndarray, view: NetView, cfg: PlasticityConfig | None = None
) -> np.ndarray:
    """``plasticity_step`` without the held-pair certificate: every active
    pair's lag sum is taken, and a pair at 1.0 is left out of the slopes
    and the update only where that lag sum is not below ``weaken_xcorr_max``."""
    cfg = cfg or PlasticityConfig()
    above = history[0].take(view.mut_ends) > cfg.activity_threshold
    active = (above[0] & above[1]).nonzero()[0]
    if not len(active):
        return weights
    k = len(active)
    win = history.take(view.mut_ends.take(active, axis=1).ravel(), axis=1)
    xs = _lag_sums(win, cfg)
    idx = view.syn_mutable.take(active)
    old = weights.take(idx)
    live = ((old != 1.0) | (xs < cfg.weaken_xcorr_max)).nonzero()[0]
    if len(live) < k:
        if not len(live):
            return weights
        win = win.take(np.concatenate((live, live + k)), axis=1)
        xs, idx, old = xs.take(live), idx.take(live), old.take(live)
        k = len(live)
    flat = _slope_sums(win, cfg) <= cfg.rapid_slope_max
    edges = np.array((cfg.weaken_xcorr_max, math.nextafter(cfg.strengthen_xcorr_min, math.inf)))
    band = edges.searchsorted(xs, "right")
    band += (xs >= cfg.rapid_xcorr_min) & flat[:k] & flat[k:]
    new = view.syn_mi.take(idx)
    new *= np.array((0.0 - cfg.slow_rate, 0.0, cfg.slow_rate + 0.0, cfg.rapid_rate + 0.0)).take(band)
    new += old
    np.minimum(np.maximum(new, 0.0, out=new), 1.0, out=new)
    if new.tobytes() == old.tobytes():
        return weights
    out = weights.copy()
    out.put(idx, new)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------


def scan_events(
    protocol: Protocol,
    m: int,
    activation: np.ndarray,
    cfg: PhysioConfig,
    binding: PhysioBinding | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool, bool]:
    """Step `m`'s external drive, found by scanning every event: the inject
    vector (each element's injections in ascending order of amount, then
    metabolism, then breathing from the current lung activation), the clamp
    mask and values (the last clamp in file order wins), and the exhale and
    inhale blocks."""
    n = len(activation)
    inject, clamp_mask, clamp_value = np.zeros(n), np.zeros(n, dtype=bool), np.zeros(n)
    active = [ev for ev in protocol.events if ev.start <= m < ev.end]
    blocks = [ev for ev in active if ev.kind is EventKind.BLOCK]
    exhale = any(ev.block_exhale for ev in blocks)
    inhale = any(ev.block_inhale for ev in blocks)
    injects = [ev for ev in active if ev.kind is EventKind.INJECT]
    for element in range(n):
        for amount in sorted(ev.value for ev in injects if ev.element_id == element):
            inject[element] += amount
    if binding is not None:
        physiology.metabolic_step(inject, cfg, binding)
        physiology.lung_exchange(inject, float(activation[binding.lung]), cfg, binding, exhale, inhale)
    for ev in active:
        if ev.kind is EventKind.CLAMP:
            clamp_mask[ev.element_id] = True
            clamp_value[ev.element_id] = ev.value
    return inject, clamp_mask, clamp_value, exhale, inhale


def run_every_step(net: Connectome, protocol: Protocol, cfg: RunConfig | None = None) -> TraceLog:
    """``protocol.run`` without the fast-forward: every step is computed."""
    cfg = cfg or RunConfig()
    view = NetView.of(net)

    a = np.zeros(view.n)
    binding = None
    if cfg.physio.enabled:
        binding = physiology.bind(net, cfg.physio)
        a[binding.co2] = cfg.physio.initial_co2
        a[binding.o2] = cfg.physio.initial_o2

    weights = view.syn_w0
    trace = np.zeros((protocol.total_steps, view.n))
    snapshots: list[tuple[int, np.ndarray]] = [(0, weights.copy())]
    markers: list[tuple[int, str]] = []
    for ev in protocol.events:
        markers.append((ev.start, f"start {ev.label}"))
        markers.append((ev.end, f"end {ev.label}"))

    t = 0
    for seg in schedule(protocol, view.n):
        while t < seg.end:
            inject = seg.drive(a, cfg.physio, binding)
            a = step(a, weights, view, inject, cfg.sim, seg.clamp_mask, seg.clamp_value)
            trace[t] = a
            t += 1
            if cfg.plasticity_enabled and t >= H_LEN:
                weights = plasticity_step(trace[t - H_LEN:t][::-1], weights, view, cfg.plasticity)
            if cfg.weight_snapshot_every and t % cfg.weight_snapshot_every == 0:
                snapshots.append((t, weights.copy()))

    if snapshots[-1][0] != protocol.total_steps:
        snapshots.append((protocol.total_steps, weights.copy()))

    # a list of full copies, not ``WeightSnapshots``: this log is compared, never written
    return TraceLog(tuple(nr.name for nr in net.neurons), trace, snapshots, markers)
