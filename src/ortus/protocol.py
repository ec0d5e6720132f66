"""Experiment scripts, the closed-loop runner, and trace recording.

A protocol file is line oriented; ``#`` comments and blank lines are
skipped.  The step count comes first, then any number of timed events whose
windows are half-open (``start`` inclusive, ``end`` exclusive) and may
overlap::

    steps <N>
    at <start>..<end> inject <element> <amplitude>
    at <start>..<end> clamp <element> <value>
    at <start>..<end> block respiration [exhale] [inhale]
    physiology <co2-element> <o2-element> <lung-element>   # optional remap

``block respiration`` with no trailing words blocks both halves.  A run
compiles the protocol once into segments, one per stretch of steps between
event boundaries, each holding its summed injections, clamps and
respiration blocks (see ``schedule``).  The per-step loop builds the inject
vector (the injections, then metabolism, then breathing), advances the
kernel, applies plasticity, and records the committed activations.  Each
element's injections are summed in ascending order of amount, so the order
of injection lines changes nothing; where clamps of one neuron overlap, the
last line wins.  Runs take no random input, so replaying a protocol
reproduces its trace byte for byte.  Where a segment returns to a state it
has already been in, the loop copies the cycle's rows forward instead of
computing them again (see ``run``); the bytes are the same.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import physiology
from .connectome import Connectome
from .errors import ConfigError, OrtusError
from .kernel import H_LEN, NetView, SimConfig, SimState, step
from .physiology import PhysioBinding, PhysioConfig
from .plasticity import PlasticityConfig, plasticity_step


class ProtocolError(OrtusError):
    """A protocol file that cannot be parsed or resolved."""


class QueryError(OrtusError):
    """A summary query naming an unknown neuron or an invalid window."""


class EventKind(enum.Enum):
    INJECT = "inject"
    CLAMP = "clamp"
    BLOCK = "block"


@dataclass(frozen=True)
class ProtocolEvent:
    start: int
    end: int
    kind: EventKind
    element: str | None = None
    element_id: int | None = None
    value: float | None = None
    block_exhale: bool = False
    block_inhale: bool = False

    @property
    def label(self) -> str:
        if self.kind is EventKind.BLOCK:
            parts = ["block respiration"]
            if self.block_exhale:
                parts.append("exhale")
            if self.block_inhale:
                parts.append("inhale")
            return " ".join(parts)
        return f"{self.kind.value} {self.element} {self.value!r}"


@dataclass(frozen=True)
class Protocol:
    total_steps: int
    events: tuple[ProtocolEvent, ...]
    physio_names: tuple[str, str, str] | None = None


def parse_protocol(text: str, net: Connectome, source: str = "<protocol>") -> Protocol:
    """Parse protocol text, resolving element names against the connectome."""
    total: int | None = None
    events: list[ProtocolEvent] = []
    physio_names: tuple[str, str, str] | None = None

    def fail(lineno: int, message: str) -> ProtocolError:
        return ProtocolError(f"{source}:{lineno}: {message}")

    def resolve(lineno: int, name: str) -> int:
        if name not in net.name_to_id:
            raise fail(lineno, f"unknown element {name!r}")
        return net.name_to_id[name]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if words[0] == "steps":
            if total is not None:
                raise fail(lineno, "steps declared twice")
            # isdecimal, not isdigit: int() cannot read digits such as '²'
            if len(words) != 2 or not words[1].isdecimal():
                raise fail(lineno, "expected: steps <N>")
            total = int(words[1])
            continue
        if words[0] == "physiology":
            if len(words) != 4:
                raise fail(lineno, "expected: physiology <co2> <o2> <lung>")
            for name in words[1:]:
                resolve(lineno, name)
            if len(set(words[1:])) < 3:
                raise fail(lineno, "physiology roles need three distinct elements")
            physio_names = (words[1], words[2], words[3])
            continue
        if words[0] != "at":
            raise fail(lineno, f"unknown directive {words[0]!r}")
        if total is None:
            raise fail(lineno, "steps must be declared before events")
        if len(words) < 3 or ".." not in words[1]:
            raise fail(lineno, "expected: at <start>..<end> <action> ...")
        start_s, _, end_s = words[1].partition("..")
        try:
            start, end = int(start_s), int(end_s)
        except ValueError:
            raise fail(lineno, f"bad step range {words[1]!r}") from None
        if not (0 <= start < end <= total):
            raise fail(lineno, f"range {start}..{end} must satisfy 0 <= start < end <= {total}")
        action, args = words[2], words[3:]
        if action == "inject":
            if len(args) != 2:
                raise fail(lineno, "expected: inject <element> <amplitude>")
            amplitude = _number(args[1], lineno, fail)
            if not (-1.0 <= amplitude <= 1.0):
                raise fail(lineno, f"amplitude {amplitude!r} outside [-1, 1]")
            events.append(
                ProtocolEvent(start, end, EventKind.INJECT, args[0], resolve(lineno, args[0]), amplitude)
            )
        elif action == "clamp":
            if len(args) != 2:
                raise fail(lineno, "expected: clamp <element> <value>")
            value = _number(args[1], lineno, fail)
            if not (-1.0 <= value <= 1.0):
                raise fail(lineno, f"clamp value {value!r} outside [-1, 1]")
            events.append(
                ProtocolEvent(start, end, EventKind.CLAMP, args[0], resolve(lineno, args[0]), value)
            )
        elif action == "block":
            if not args or args[0] != "respiration":
                raise fail(lineno, "expected: block respiration [exhale] [inhale]")
            flags = args[1:]
            for flag in flags:
                if flag not in ("exhale", "inhale"):
                    raise fail(lineno, f"unknown respiration flag {flag!r}")
            exhale = "exhale" in flags or not flags
            inhale = "inhale" in flags or not flags
            events.append(
                ProtocolEvent(start, end, EventKind.BLOCK, block_exhale=exhale, block_inhale=inhale)
            )
        else:
            raise fail(lineno, f"unknown action {action!r}")

    if total is None:
        raise ProtocolError(f"{source}: missing steps declaration")
    return Protocol(total, tuple(events), physio_names)


def _number(text: str, lineno: int, fail) -> float:
    try:
        return float(text)
    except ValueError:
        raise fail(lineno, f"bad number {text!r}") from None


def load_protocol(path: str | Path, net: Connectome) -> Protocol:
    path = Path(path)
    return parse_protocol(path.read_text(), net, source=str(path))


def probe_event(protocol: Protocol) -> ProtocolEvent | None:
    """The probe: the injection latest in time (greatest start; on a tie,
    the one written last), or None when the protocol injects nothing."""
    injects = [ev for ev in protocol.events if ev.kind is EventKind.INJECT]
    return max(reversed(injects), key=lambda ev: ev.start, default=None)


def control_variant(protocol: Protocol) -> Protocol:
    """The never-conditioned twin of a protocol: same length, but only the
    probe injection survives."""
    probe = probe_event(protocol)
    return replace(protocol, events=(probe,) if probe is not None else ())


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """Steps ``start`` to ``end - 1``, over which the same events are active."""

    start: int
    end: int
    inject: np.ndarray  # each element's injections summed in ascending order of amount
    clamp_mask: np.ndarray | None  # None when nothing is clamped
    clamp_value: np.ndarray | None
    block_exhale: bool
    block_inhale: bool

    def drive(self, a: np.ndarray, cfg: PhysioConfig, binding: PhysioBinding | None) -> np.ndarray:
        """A step's inject vector, given the activations `a`: the
        injections, then metabolism, then breathing."""
        inject = self.inject.copy()
        if binding is not None:
            physiology.metabolic_step(inject, cfg, binding)
            lung = float(a[binding.lung])
            physiology.lung_exchange(inject, lung, cfg, binding, self.block_exhale, self.block_inhale)
        return inject


def schedule(protocol: Protocol, n: int) -> Iterator[Segment]:
    """The protocol compiled into one segment per stretch between event
    boundaries, in step order.  Each element's injections are summed in
    ascending order of amount: equal amounts add the same bits in any order,
    and a signed zero changes no sum that starts at +0.0, so the sum depends
    only on which injections are active.  The last clamp in file order wins."""
    bounds = sorted({0, protocol.total_steps, *(t for ev in protocol.events for t in (ev.start, ev.end))})
    for start, end in zip(bounds, bounds[1:]):
        active = [ev for ev in protocol.events if ev.start <= start < ev.end]
        inject, mask, value = np.zeros(n), np.zeros(n, dtype=bool), np.zeros(n)
        for ev in sorted((ev for ev in active if ev.kind is EventKind.INJECT), key=lambda ev: ev.value):
            inject[ev.element_id] += ev.value
        for ev in active:
            if ev.kind is EventKind.CLAMP:
                mask[ev.element_id] = True
                value[ev.element_id] = ev.value
        clamp = (mask, value) if mask.any() else (None, None)
        blocks = (any(ev.block_exhale for ev in active), any(ev.block_inhale for ev in active))
        yield Segment(start, end, inject, *clamp, *blocks)


@dataclass
class RunConfig:
    sim: SimConfig = field(default_factory=SimConfig)
    plasticity: PlasticityConfig = field(default_factory=PlasticityConfig)
    physio: PhysioConfig = field(default_factory=PhysioConfig)
    plasticity_enabled: bool = True
    weight_snapshot_every: int = 10  # 0 keeps only the first and last snapshots

    def __post_init__(self) -> None:
        if self.weight_snapshot_every < 0:
            raise ConfigError(
                f"weight_snapshot_every cannot be negative, got {self.weight_snapshot_every!r}"
            )


@dataclass
class TraceLog:
    """Everything a run produces: per-step activations, sparse weight
    snapshots, and markers at every event boundary."""

    names: tuple[str, ...]
    activations: np.ndarray  # (steps, n)
    syn_pre: np.ndarray
    syn_post: np.ndarray
    weight_snapshots: list[tuple[int, np.ndarray]]
    markers: list[tuple[int, str]]

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.names.index(name)
        except ValueError:
            raise QueryError(f"no neuron named {name!r} in trace") from None
        return self.activations[:, idx]

    def write_csv(self, outdir: str | Path, prefix: str = "") -> list[Path]:
        """Write trace.csv, weights.csv, and markers.csv a line at a time;
        deterministic bytes."""
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        pairs = [f",{pre},{post}," for pre, post in zip(self.syn_pre.tolist(), self.syn_post.tolist())]
        trace = (",".join(map(repr, row.tolist())) for row in self.activations)
        weights = (f"{n}{pair}{w!r}" for n, ws in self.weight_snapshots for pair, w in zip(pairs, ws.tolist()))
        markers = (f"{step_no},{label}" for step_no, label in self.markers)
        paths = []
        for name, header, lines in (
            ("trace.csv", ",".join(self.names), trace),
            ("weights.csv", "step,pre,post,weight", weights),
            ("markers.csv", "step,marker", markers),
        ):
            paths.append(outdir / f"{prefix}{name}")
            with paths[-1].open("w") as fh:
                fh.write(header + "\n")
                fh.writelines(line + "\n" for line in lines)
        return paths


def run(net: Connectome, protocol: Protocol, cfg: RunConfig | None = None) -> TraceLog:
    """Drive the closed loop for every protocol step and record the trace.

    Each step: the segment's injections plus the physiology drive from the
    current state, its clamps, one kernel step, one plasticity pass (skipped
    while the history warms up), then the committed activations are logged.

    Exact repeats are fast-forwarded.  Within a segment, once the history
    ring holds only real steps, a step depends on nothing but the history
    and the weights, so a state seen before under the same weights array
    (which plasticity replaces only when a weight's bytes change) starts a
    cycle.  A state is looked up by its activation sum and confirmed by
    comparing the last ``H_LEN`` trace rows byte for byte, so -0.0 and NaN
    cannot fake a repeat.  The cycle's rows are then tiled, and its
    unchanged weights snapshotted at their cadence, for every whole period
    left in the segment; the remaining steps are computed.
    """
    cfg = cfg or RunConfig()
    view = NetView.of(net)

    physio_cfg = cfg.physio
    if protocol.physio_names is not None:
        co2, o2, lung = protocol.physio_names
        physio_cfg = replace(physio_cfg, co2_name=co2, o2_name=o2, lung_name=lung)

    a0 = np.zeros(view.n)
    binding = None
    if physio_cfg.enabled:
        binding = physiology.bind(net, physio_cfg)
        a0[binding.co2] = physio_cfg.initial_co2
        a0[binding.o2] = physio_cfg.initial_o2

    state = SimState.initial(view, a0)
    trace = np.zeros((protocol.total_steps, view.n))
    every = cfg.weight_snapshot_every
    snapshots: list[tuple[int, np.ndarray]] = [(0, state.weights.copy())]
    markers: list[tuple[int, str]] = []
    for ev in protocol.events:
        markers.append((ev.start, f"start {ev.label}"))
        markers.append((ev.end, f"end {ev.label}"))

    for seg in schedule(protocol, view.n):
        seen: dict[float, int] = {}  # activation sum -> step count, under the current weights
        while state.step < seg.end:
            weights = state.weights
            inject = seg.drive(state.activation, physio_cfg, binding)
            state = step(state, view, inject, cfg.sim, seg.clamp_mask, seg.clamp_value)
            if cfg.plasticity_enabled and state.step >= H_LEN:
                state.weights = plasticity_step(state, view, cfg.plasticity)
            t = state.step
            trace[t - 1] = state.activation
            if every and t % every == 0:
                snapshots.append((t, state.weights.copy()))
            if t < H_LEN:
                continue
            if state.weights is not weights:
                seen.clear()
            key = float(state.activation.sum())
            t0 = seen.get(key)
            if t0 is None or trace[t - H_LEN:t].tobytes() != trace[t0 - H_LEN:t0].tobytes():
                seen[key] = t
                continue
            period = t - t0
            skip = (seg.end - t) // period * period
            # broadcast, so no (skip, n) temporary is made
            trace[t:t + skip].reshape(skip // period, period, view.n)[:] = trace[t0:t]
            if every:
                cadence = range(t // every * every + every, t + skip + 1, every)
                snapshots.extend((s, state.weights.copy()) for s in cadence)
            state.step = t + skip
            seen.clear()  # fewer steps than a period are left, so no whole cycle fits again

    if protocol.total_steps and snapshots[-1][0] != protocol.total_steps:
        snapshots.append((protocol.total_steps, state.weights.copy()))

    return TraceLog(
        names=view.names,
        activations=trace,
        syn_pre=view.syn_pre,
        syn_post=view.syn_post,
        weight_snapshots=snapshots,
        markers=markers,
    )


# ---------------------------------------------------------------------------
# summary metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    metric: str  # peak | mean | auc | peak_count | interval_mean | interval_cv
    neuron: str
    start: int | None = None
    end: int | None = None


@dataclass(frozen=True)
class MetricRow:
    metric: str
    neuron: str
    start: int
    end: int
    value: float


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Samples with a strict rise before and a strict fall after.  A flat
    top counts once, at its middle (the left one of two); the first and
    last samples never count."""
    change = np.flatnonzero(x[1:] != x[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change - 1, [len(x) - 1]))
    level = x[starts]
    top = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1
    return (starts[top] + ends[top]) // 2


def _prominences(x: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Height of each peak over the higher of the two lowest points between
    it and the nearest strictly higher sample on each side (or the signal's
    end when there is none)."""
    out = np.empty(len(peaks))
    for k, p in enumerate(peaks):
        higher_left = np.flatnonzero(x[:p] > x[p])
        higher_right = np.flatnonzero(x[p + 1:] > x[p])
        lo = higher_left[-1] + 1 if len(higher_left) else 0
        hi = p + 1 + higher_right[0] if len(higher_right) else len(x)
        out[k] = x[p] - max(x[lo:p + 1].min(), x[p:hi].min())
    return out


def peak_indices(x: np.ndarray, min_prominence: float = 0.05) -> np.ndarray:
    """Indices of local maxima whose prominence is at least a fraction of
    the signal's full swing; a flat signal has no peaks."""
    x = np.asarray(x, dtype=float)
    if len(x) < 3:
        return np.zeros(0, dtype=np.intp)
    peaks = _local_maxima(x)
    threshold = min_prominence * float(x.max() - x.min())
    return peaks[_prominences(x, peaks) >= threshold]


def summarize(trace: TraceLog, queries: list[Query]) -> list[MetricRow]:
    """Evaluate window metrics against a trace.

    ``peak``/``mean``/``auc`` reduce the window directly; ``peak_count``,
    ``interval_mean``, and ``interval_cv`` run peak detection over it.
    """
    rows: list[MetricRow] = []
    total = trace.activations.shape[0]
    for q in queries:
        col = trace.column(q.neuron)
        start = 0 if q.start is None else q.start
        end = total if q.end is None else q.end
        if not (0 <= start < end <= total):
            raise QueryError(f"window {start}..{end} invalid for a {total}-step trace")
        seg = col[start:end]
        if q.metric == "peak":
            value = float(seg.max())
        elif q.metric == "mean":
            value = float(seg.mean())
        elif q.metric == "auc":
            value = float(seg.sum())
        elif q.metric in ("peak_count", "interval_mean", "interval_cv"):
            peaks = peak_indices(seg)
            if q.metric == "peak_count":
                value = float(len(peaks))
            else:
                if len(peaks) < 2:
                    value = float("nan")
                else:
                    intervals = np.diff(peaks).astype(float)
                    if q.metric == "interval_mean":
                        value = float(intervals.mean())
                    else:
                        value = float(intervals.std() / intervals.mean())
        else:
            raise QueryError(f"unknown metric {q.metric!r}")
        rows.append(MetricRow(q.metric, q.neuron, start, end, value))
    return rows


def metrics_csv(rows: list[MetricRow], extra: list[tuple[str, str, float]] | None = None) -> str:
    lines = ["metric,neuron,start,end,value"]
    for r in rows:
        lines.append(f"{r.metric},{r.neuron},{r.start},{r.end},{repr(r.value)}")
    for name, neuron, value in extra or []:
        lines.append(f"{name},{neuron},,,{repr(value)}")
    return "\n".join(lines) + "\n"
