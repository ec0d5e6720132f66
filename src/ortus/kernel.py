"""Synchronous, double-buffered activation dynamics.

Each step every neuron loses a fixed fraction of its activation, gains
diffusive flux from its gap junctions (half the level difference per
junction, so what one side gains the other loses), gains graded
chemical-synapse input, and receives external injections; the result is
clamped to the reversal range and clamped neurons are then overridden.  All
reads come from the previous step's committed values, so the evaluation
order of neurons cannot change the outcome.  A step writes no array of the
state it is given: it makes new activation and history arrays (the new row
on top of the old rows but the last) and hands the weights on unchanged.

A chemical synapse transmits nothing until its presynaptic drive reaches the
postsynaptic neuron's transmission threshold.  Above it, the inflow is
``weight * g * (reversal - a_post)`` where the conductance ``g`` is a
sigmoid of the presynaptic activation scaled by the activation range.  A
synapse marked inverted is keyed to presynaptic suppression: its drive and
conductance both read the negated presynaptic activation.  Gated-off
synapses are skipped, sigmoid included: each would add a signed zero to a
sum that starts at +0.0, which changes no bit.  The rest accumulate per
postsynaptic neuron in connectome storage order; gap-junction flux into
each b end, then out of each a end, in junction order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .connectome import Connectome
from .errors import ConfigError, OrtusError

H_LEN = 8
# Activation range: the excitatory reversal (1) less the inhibitory one (-1).
ACTIVATION_RANGE = 2.0


class ConservationError(OrtusError):
    """Gap-junction flux failed to cancel across the network."""


class GjMode(enum.Enum):
    SYMMETRIC = "symmetric"
    PAPER_LITERAL = "paper-literal"


@dataclass
class SimConfig:
    decay_fraction: float = 0.20
    gj_mode: GjMode = GjMode.SYMMETRIC
    activation_clamp: bool = True
    check_conservation: bool = False
    conservation_tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if not (0.0 <= self.decay_fraction < 1.0):
            raise ConfigError(f"decay_fraction must lie in [0, 1), got {self.decay_fraction!r}")
        if not self.conservation_tolerance >= 0.0:
            raise ConfigError(
                f"conservation_tolerance cannot be negative, got {self.conservation_tolerance!r}"
            )
        if self.check_conservation and self.gj_mode is GjMode.PAPER_LITERAL:
            raise ConfigError("conservation checks are meaningless in paper-literal mode")


@dataclass(frozen=True)
class NetView:
    """Vectorized, immutable view of a connectome's structure."""

    n: int
    names: tuple[str, ...]
    syn_pre: np.ndarray
    syn_post: np.ndarray
    syn_rev: np.ndarray
    syn_w0: np.ndarray  # built weight, per synapse
    syn_mi: np.ndarray
    syn_inverted: np.ndarray
    syn_gate: np.ndarray  # postsynaptic transmission threshold, per synapse
    gap_a: np.ndarray
    gap_b: np.ndarray
    gap_w: np.ndarray
    # derived in __post_init__ so that dataclasses.replace cannot leave them
    # stale: the mutable synapses, their endpoints as a (2, mutable) array
    # (presynaptic row, then postsynaptic), each synapse's drive sign (-1
    # inverted), and every junction's b end, then every a end
    syn_mutable: np.ndarray = field(init=False)
    mut_ends: np.ndarray = field(init=False)
    syn_sign: np.ndarray = field(init=False)
    gap_ends: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        mutable = np.flatnonzero(self.syn_mi > 0)
        object.__setattr__(self, "syn_mutable", mutable)
        object.__setattr__(self, "mut_ends", np.stack((self.syn_pre[mutable], self.syn_post[mutable])))
        object.__setattr__(self, "syn_sign", np.where(self.syn_inverted, -1.0, 1.0))
        object.__setattr__(self, "gap_ends", np.concatenate((self.gap_b, self.gap_a)))

    @classmethod
    def of(cls, net: Connectome) -> "NetView":
        thr = np.array([nr.threshold for nr in net.neurons], dtype=float)
        # One pass over the synapses.  Freeing the (synapses, 6) table lifts
        # glibc's dynamic mmap and trim thresholds above a step's temporaries,
        # so a large network's heap is not trimmed and re-faulted every step.
        table = [(s.pre, s.post, s.reversal, s.weight, s.mutability, s.inverted) for s in net.chem]
        pre, post, rev, w0, mi, inverted = np.array(table, dtype=float).reshape(-1, 6).T.copy()
        pre, post = pre.astype(int), post.astype(int)
        return cls(
            n=net.n,
            names=tuple(nr.name for nr in net.neurons),
            syn_pre=pre,
            syn_post=post,
            syn_rev=rev,
            syn_w0=w0,
            syn_mi=mi,
            syn_inverted=inverted.astype(bool),
            syn_gate=thr[post],
            gap_a=np.array([g.a for g in net.gap], dtype=int),
            gap_b=np.array([g.b for g in net.gap], dtype=int),
            gap_w=np.array([g.weight for g in net.gap], dtype=float),
        )


@dataclass
class SimState:
    """Activations, their recent history (row 0 = most recent), and the
    live synaptic weights.  Each step makes new activation and history
    arrays and carries the weight array over unchanged; plasticity replaces
    it with a new one on a step that writes a weight."""

    activation: np.ndarray
    history: np.ndarray  # (H_LEN, n)
    weights: np.ndarray  # one per chemical synapse, storage order
    step: int = 0

    @classmethod
    def initial(cls, view: NetView, activation: np.ndarray | None = None) -> "SimState":
        a = np.zeros(view.n) if activation is None else np.asarray(activation, dtype=float).copy()
        if a.shape != (view.n,):
            raise ConfigError(f"initial activation must have shape ({view.n},)")
        return cls(a, np.tile(a, (H_LEN, 1)), view.syn_w0.copy(), 0)


def _chem_terms(a: np.ndarray, weights: np.ndarray, view: NetView) -> np.ndarray:
    drive = a[view.syn_pre] * view.syn_sign  # exactly -a_pre where inverted, signed zeros too
    on = (drive >= view.syn_gate).nonzero()[0]
    g = 1.0 / (1.0 + np.exp(-5.0 * drive[on] / ACTIVATION_RANGE))
    post = view.syn_post[on]
    contrib = weights[on] * g * (view.syn_rev[on] - a[post])
    # given no weights to sum, bincount counts in int64; astype copies only then
    return np.bincount(post, contrib, minlength=view.n).astype(float, copy=False)


def _gap_terms(a: np.ndarray, view: NetView) -> np.ndarray:
    flux = view.gap_w * (a[view.gap_a] - a[view.gap_b]) * 0.5
    gj_in = np.bincount(view.gap_ends, np.concatenate((flux, -flux)), minlength=view.n)
    return gj_in.astype(float, copy=False)


def step(
    state: SimState,
    view: NetView,
    inject: np.ndarray | None = None,
    cfg: SimConfig | None = None,
    clamp_mask: np.ndarray | None = None,
    clamp_value: np.ndarray | None = None,
) -> SimState:
    """Advance the network one step: add ``inject``, then set the neurons in
    ``clamp_mask`` to their ``clamp_value``.  The new state shares
    ``state.weights``.

    Flux contributions accumulate in connectome storage order, so two runs
    from the same state are bitwise identical.  In paper-literal gap-junction
    mode the decay term re-adds outgoing junction losses verbatim, which
    cancels the inflow; it exists for side-by-side comparison runs, and
    ``SimConfig`` refuses it with conservation checking.
    """
    cfg = cfg or SimConfig()
    a = state.activation
    cs_in = _chem_terms(a, state.weights, view)
    gj_in = _gap_terms(a, view)

    if cfg.check_conservation:
        drift = abs(float(gj_in.sum()))
        if drift > cfg.conservation_tolerance:
            raise ConservationError(f"gap-junction flux drift {drift:g} per step")

    decay = cfg.decay_fraction * a
    if cfg.gj_mode is GjMode.PAPER_LITERAL:  # re-adds the outgoing flux, -gj_in
        decay = decay + gj_in

    nxt = a - decay + gj_in + cs_in
    if inject is not None:
        nxt += inject
    if cfg.activation_clamp:  # np.clip's bits (no bound is a signed zero), without its overhead
        np.minimum(np.maximum(nxt, -1.0, out=nxt), 1.0, out=nxt)
    if clamp_mask is not None:
        np.copyto(nxt, clamp_value, where=clamp_mask)

    history = np.empty_like(state.history)
    history[0] = nxt
    history[1:] = state.history[:-1]
    return SimState(nxt, history, state.weights, state.step + 1)
