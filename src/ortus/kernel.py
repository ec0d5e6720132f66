"""Synchronous, double-buffered activation dynamics.

Each step every neuron loses a fixed fraction of its activation, gains
diffusive flux from its gap junctions (half the level difference per
junction, so what one side gains the other loses), gains graded
chemical-synapse input, and receives external injections; the result is
clamped to the reversal range and clamped neurons are then overridden.  All
reads come from the previous step's committed values, so the evaluation
order of neurons cannot change the outcome.  A step is a function of
arrays: it returns a new activation array and writes none of its inputs.

A chemical synapse transmits nothing until its presynaptic drive reaches the
postsynaptic neuron's transmission threshold.  Above it, the inflow is
``weight * g * (reversal - a_post)`` where the conductance ``g`` is a
sigmoid of the presynaptic activation scaled by the activation range.  A
synapse marked inverted is keyed to presynaptic suppression: its drive and
conductance both read the negated presynaptic activation.

Every synapse is evaluated, one array pass per term.  Each distinct
(presynaptic neuron, sign, postsynaptic threshold) that some synapse reads is
one gate entry, plain ones first (``-a`` is ``a * -1.0`` bit for bit, signed
zeros included): its conductance is taken once and multiplied by its gate,
drive >= threshold, and each synapse reads that product at ``syn_ent``.  A
gated-off synapse adds its finite inflow times 0.0, a signed zero, to a
per-neuron sum that starts at +0.0 and so can never hold -0.0: no bit
changes.  The inflows accumulate per postsynaptic neuron in connectome
storage order; gap-junction flux into each b end, then out of each a end, in
junction order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connectome import Connectome
from .errors import ConfigError, OrtusError, require_numbers

# Activation range: the excitatory reversal (1) less the inhibitory one (-1).
ACTIVATION_RANGE = 2.0


class ConservationError(OrtusError):
    """Gap-junction flux failed to cancel across the network."""


@dataclass
class SimConfig:
    decay_fraction: float = 0.20
    gj_mode: str = "symmetric"  # or "paper-literal"
    activation_clamp: bool = True
    check_conservation: bool = False
    conservation_tolerance: float = 1e-9

    def __post_init__(self) -> None:
        require_numbers(self, decay_fraction="[0, 1)", conservation_tolerance="[0, inf)")
        if self.gj_mode not in ("symmetric", "paper-literal"):
            raise ConfigError(f"gj_mode must be 'symmetric' or 'paper-literal', got {self.gj_mode!r}")
        if self.check_conservation and self.gj_mode == "paper-literal":
            raise ConfigError("conservation checks are meaningless in paper-literal mode")


@dataclass(frozen=True)
class NetView:
    """Vectorized, immutable view of a connectome's structure."""

    n: int
    syn_pre: np.ndarray
    syn_post: np.ndarray
    syn_rev: np.ndarray
    syn_w0: np.ndarray  # built weight, per synapse
    syn_mi: np.ndarray
    # the mutable synapses, their endpoints as a (2, mutable) array
    # (presynaptic row, then postsynaptic); the gate entries, as presynaptic
    # neurons, plain ones first, with the index of the first inverted one,
    # and thresholds, and each synapse's index into them; and for every
    # junction end, b ends first, the neuron it stands on, the far end and
    # the weight
    syn_mutable: np.ndarray
    mut_ends: np.ndarray
    ent_pre: np.ndarray
    ent_inverted_from: int
    ent_threshold: np.ndarray
    syn_ent: np.ndarray
    gap_ends: np.ndarray
    gap_from: np.ndarray
    gap_w2: np.ndarray

    @classmethod
    def of(cls, net: Connectome) -> "NetView":
        """`net`'s view, built once and kept on `net` until an ``add_*`` drops it."""
        if net.view is not None:
            return net.view
        rank: dict[float, int] = {}  # the distinct thresholds, in neuron order; -0.0 is 0.0
        thr_rank = np.array([rank.setdefault(nr.threshold, len(rank)) for nr in net.neurons], dtype=int)
        # One pass over the synapses.  Freeing the (synapses, 6) table lifts
        # glibc's dynamic mmap and trim thresholds above a step's temporaries,
        # so a large network's heap is not trimmed and re-faulted every step.
        table = [(s.pre, s.post, s.reversal, s.weight, s.mutability, s.inverted) for s in net.chem]
        pre, post, rev, w0, mi, inverted = np.array(table, dtype=float).reshape(-1, 6).T.copy()
        pre, post, inverted = pre.astype(int), post.astype(int), inverted.astype(bool)
        w0.flags.writeable = False  # the run's first weights, and the base of every snapshot read
        ends_a = np.array([g.a for g in net.gap], dtype=int)
        ends_b = np.array([g.b for g in net.gap], dtype=int)
        gap_w = np.array([g.weight for g in net.gap], dtype=float)
        mutable = np.flatnonzero(mi > 0)
        # (a, -a) by threshold as one axis, its distinct keys sorted in Python: the
        # first np.sort or np.unique (which imports numpy.ma) in a process costs RSS
        keys = (pre + net.n * inverted) * len(rank) + thr_rank.take(post)
        used = np.array(sorted(set(keys.tolist())), dtype=int)
        net.view = cls(
            n=net.n,
            syn_pre=pre,
            syn_post=post,
            syn_rev=rev,
            syn_w0=w0,
            syn_mi=mi,
            syn_mutable=mutable,
            mut_ends=np.stack((pre[mutable], post[mutable])),
            ent_pre=used // len(rank) % net.n,
            ent_inverted_from=int(used.searchsorted(net.n * len(rank))),
            ent_threshold=np.array(list(rank), dtype=float).take(used % len(rank)),
            syn_ent=used.searchsorted(keys),
            gap_ends=np.concatenate((ends_b, ends_a)),
            gap_from=np.concatenate((ends_a, ends_b)),
            gap_w2=np.concatenate((gap_w, gap_w)),
        )
        return net.view


def _chem_terms(a: np.ndarray, weights: np.ndarray, view: NetView) -> np.ndarray:
    drive = a.take(view.ent_pre)
    if view.ent_inverted_from < len(drive):
        drive[view.ent_inverted_from:] *= -1.0
    # held at -283 or above, where exp stays finite: a drive below lies under
    # every threshold a build accepts (0 or more), so its gate is off anyway;
    # `* -2.5` and `* -5.0 / 2.0` differ only on subnormals, which exp takes to 1.0
    g = np.maximum(drive, -283.0)
    g *= -5.0 / ACTIVATION_RANGE  # -2.5
    np.exp(g, out=g)
    g += 1.0
    np.divide(1.0, g, out=g)
    g *= drive >= view.ent_threshold
    contrib = g.take(view.syn_ent)
    contrib *= weights
    force = a.take(view.syn_post)  # becomes the driving force, reversal - a_post
    contrib *= np.subtract(view.syn_rev, force, out=force)
    # given no weights to sum, bincount counts in int64; astype copies only then
    return np.bincount(view.syn_post, contrib, minlength=view.n).astype(float, copy=False)


def _gap_terms(a: np.ndarray, view: NetView) -> np.ndarray:
    # into each end, (a_far - a_here) * w * 0.5: into the b ends, exactly the
    # flux a -> b; into the a ends, its negation but for the sign of a zero,
    # which no sum from +0.0 can hold
    flux = a.take(view.gap_from)
    flux -= a.take(view.gap_ends)
    flux *= view.gap_w2
    flux *= 0.5
    return np.bincount(view.gap_ends, flux, minlength=view.n).astype(float, copy=False)


def step(
    a: np.ndarray,
    weights: np.ndarray,
    view: NetView,
    inject: np.ndarray | None = None,
    cfg: SimConfig | None = None,
    clamp_mask: np.ndarray | None = None,
    clamp_value: np.ndarray | None = None,
) -> np.ndarray:
    """The activations one step after ``a`` under ``weights``: add
    ``inject``, then set the neurons in ``clamp_mask`` to their
    ``clamp_value``.  Returns a new array and writes none of its inputs.

    Flux contributions accumulate in connectome storage order, so two runs
    from the same arrays are bitwise identical.  In paper-literal gap-junction
    mode the decay term re-adds outgoing junction losses verbatim, which
    cancels the inflow; it exists for side-by-side comparison runs, and
    ``SimConfig`` refuses it with conservation checking.
    """
    cfg = cfg or SimConfig()
    cs_in = _chem_terms(a, weights, view)
    gj_in = _gap_terms(a, view)

    if cfg.check_conservation:
        drift = abs(float(gj_in.sum()))
        if drift > cfg.conservation_tolerance:
            raise ConservationError(f"gap-junction flux drift {drift:g} per step")

    decay = cfg.decay_fraction * a
    if cfg.gj_mode == "paper-literal":  # re-adds the outgoing flux, -gj_in
        decay += gj_in

    nxt = a - decay  # then + gj_in + cs_in + inject, left to right
    nxt += gj_in
    nxt += cs_in
    if inject is not None:
        nxt += inject
    if cfg.activation_clamp:  # np.clip's bits (no bound is a signed zero), without its overhead
        np.minimum(np.maximum(nxt, -1.0, out=nxt), 1.0, out=nxt)
    if clamp_mask is not None:
        np.copyto(nxt, clamp_value, where=clamp_mask)
    return nxt
