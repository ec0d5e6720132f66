"""Experiment scripts, the closed-loop runner, trace recording and ``experiment``.

A protocol file is line oriented; ``#`` comments and blank lines are
skipped.  The step count, at least 1, comes first, then any number of timed
events whose windows are half-open (``start`` inclusive, ``end`` exclusive)
and may overlap::

    steps <N>
    at <start>..<end> inject <element> <amplitude>
    at <start>..<end> clamp <element> <value>
    at <start>..<end> block respiration [exhale] [inhale]

``block respiration`` with no trailing words blocks both halves.  Clamps of
one neuron may overlap only where they hold the same value (compared by
``repr``, so +0.0 and -0.0 differ); a clamp that contradicts an earlier line
fails at its own line.  The physiology roles (CO2, O2 and lung elements)
come from ``PhysioConfig``, not from the protocol.

A run compiles the protocol once into segments, one per stretch of steps
between event boundaries, each holding its summed injections, clamps and
respiration blocks (see ``schedule``).  The per-step loop builds the inject
vector (the injections, then metabolism, then breathing), advances the
kernel, applies plasticity, and records the committed activations.  Each
element's injections are summed in ascending order of amount, and
overlapping clamps agree, so the order of event lines changes no activation
or weight.  Runs take no random input, so replaying a protocol
reproduces its trace byte for byte.  Only the mutable synapses learn, so a
weight snapshot stores their weights alone, rebuilds the full array when
read, and writes weights.csv from the stored rows (see ``WeightSnapshots``).
Where a segment returns to a state it has already been in, the loop copies
the cycle's rows forward instead of computing them again, with the same
bytes (see ``run``).
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import physiology
from .connectome import Connectome, write_tables
from .errors import ACTIVATION, OrtusError, bound_error, read_number, read_utf8, require_numbers
from .kernel import NetView, SimConfig, step
from .physiology import PhysioBinding, PhysioConfig
from .plasticity import H_LEN, PlasticityConfig, plasticity_step


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


def parse_protocol(text: str, net: Connectome, source: str = "<protocol>") -> Protocol:
    """Parse protocol text, resolving element names against the connectome."""
    total: int | None = None
    events: list[ProtocolEvent] = []
    clamps: list[tuple[int, ProtocolEvent]] = []  # with the line of each

    def fail(lineno: int, message: str) -> ProtocolError:
        return ProtocolError(f"{source}:{lineno}: {message}")

    def number(lineno: int, text: str, count_refusal: str | None = None) -> float:
        try:  # a count where its refusal is given, else an amount
            return read_number(text, count=count_refusal is not None)
        except ValueError as exc:
            raise fail(lineno, count_refusal or str(exc)) from None

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
            total = number(lineno, " ".join(words[1:]), "expected: steps <N>")
            if message := bound_error("steps", total, "[1, inf)"):
                raise fail(lineno, message)
            continue
        if words[0] != "at":
            raise fail(lineno, f"unknown directive {words[0]!r}")
        if total is None:
            raise fail(lineno, "steps must be declared before events")
        if len(words) < 3 or ".." not in words[1]:
            raise fail(lineno, "expected: at <start>..<end> <action> ...")
        start, end = (number(lineno, s, f"bad step range {words[1]!r}") for s in words[1].split("..", 1))
        if not (0 <= start < end <= total):
            raise fail(lineno, f"range {start}..{end} must satisfy 0 <= start < end <= {total}")
        try:
            kind = EventKind(words[2])
        except ValueError:
            raise fail(lineno, f"unknown action {words[2]!r}") from None
        args = words[3:]
        if kind is EventKind.BLOCK:
            if not args or args[0] != "respiration":
                raise fail(lineno, "expected: block respiration [exhale] [inhale]")
            flags = args[1:]
            for flag in flags:
                if flag not in ("exhale", "inhale"):
                    raise fail(lineno, f"unknown respiration flag {flag!r}")
            exhale = "exhale" in flags or not flags
            inhale = "inhale" in flags or not flags
            events.append(ProtocolEvent(start, end, kind, block_exhale=exhale, block_inhale=inhale))
            continue
        # inject and clamp: <element> <number>, the number named in the usage line and in a refusal
        operand, bound_name = ("amplitude", "amplitude") if kind is EventKind.INJECT else ("value", "clamp value")
        if len(args) != 2:
            raise fail(lineno, f"expected: {kind.value} <element> <{operand}>")
        value = number(lineno, args[1])
        if message := bound_error(bound_name, value, ACTIVATION):
            raise fail(lineno, message)
        ev = ProtocolEvent(start, end, kind, args[0], resolve(lineno, args[0]), value)
        if kind is EventKind.CLAMP:
            for k, other in clamps:
                overlap = other.element_id == ev.element_id and other.start < end and start < other.end
                if overlap and repr(other.value) != repr(value):
                    raise fail(
                        lineno,
                        f"'{ev.label}' ({start}..{end}) overlaps '{other.label}' ({other.start}..{other.end})"
                        f" of line {k}; overlapping clamps of one neuron must hold the same value",
                    )
            clamps.append((lineno, ev))
        events.append(ev)

    if total is None:
        raise ProtocolError(f"{source}: missing steps declaration")
    return Protocol(total, tuple(events))


def load_protocol(path: str | Path, net: Connectome) -> Protocol:
    path = Path(path)
    text = read_utf8(path, lambda message, line, _: ProtocolError(f"{path}:{line}: {message}"))
    return parse_protocol(text, net, source=str(path))


def probe_event(protocol: Protocol) -> ProtocolEvent | None:
    """The probe: the injection latest in time (greatest start), or None
    when the protocol injects nothing.  Two injections tied for the latest
    start raise ``ProtocolError``: no line order picks between them."""
    injects = [ev for ev in protocol.events if ev.kind is EventKind.INJECT]
    if not injects:
        return None
    start = max(ev.start for ev in injects)
    tied = [ev for ev in injects if ev.start == start]
    if len(tied) > 1:
        names = " and ".join(f"'{ev.label}' ({ev.start}..{ev.end})" for ev in tied)
        raise ProtocolError(f"ambiguous probe: {names} start at step {start}")
    return tied[0]


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
    """The steps from the previous segment's end (0 for the first) up to
    ``end``, over which the same events are active."""

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
    only on which injections are active.  Overlapping clamps of one neuron
    hold the same value (``parse_protocol`` refuses any other), so it does
    not matter which one is written."""
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
        yield Segment(end, inject, *clamp, *blocks)


@dataclass
class RunConfig:
    sim: SimConfig = field(default_factory=SimConfig)
    plasticity: PlasticityConfig = field(default_factory=PlasticityConfig)
    physio: PhysioConfig = field(default_factory=PhysioConfig)
    plasticity_enabled: bool = True
    weight_snapshot_every: int = 10  # 0 keeps only the first and last snapshots

    def __post_init__(self) -> None:
        require_numbers(self, weight_snapshot_every="[0, inf)")


@dataclass(frozen=True, eq=False)
class WeightSnapshots:
    """A run's ``(step, weights)`` snapshots, read by index or in order, and
    written as weights.csv.  Each stores only the mutable synapses' weights,
    a row that snapshots with the same weights share; every read puts its row
    into a new copy of the built weights ``w0``, read-only, with one entry
    per synapse."""

    w0: np.ndarray
    pre: np.ndarray
    post: np.ndarray
    mutable: np.ndarray  # the mutable synapses' indices, as ``NetView.syn_mutable``
    steps: list[int]
    rows: list[np.ndarray] = field(default_factory=list)  # per step filled, the weights at ``mutable``

    def hold(self, weights: np.ndarray, until: int) -> None:
        """Fill every step before ``until`` not yet filled with one shared
        row of ``weights``."""
        filled = bisect_left(self.steps, until)
        if filled > len(self.rows):
            self.rows.extend([weights.take(self.mutable)] * (filled - len(self.rows)))

    def __len__(self) -> int:
        return len(self.steps)

    def __getitem__(self, i: int) -> tuple[int, np.ndarray]:
        weights = self.w0.copy()
        weights.put(self.mutable, self.rows[i])
        weights.flags.writeable = False
        return self.steps[i], weights

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        return (self[i] for i in range(len(self)))

    def csv_blocks(self) -> Iterator[str]:
        """weights.csv's rows, one string per snapshot with no final newline.
        Each synapse keeps its ``,pre,post,weight`` string; it is made again
        only where a row's int64 bits differ from the previous row's (the
        first row's from ``w0``'s), so a signed zero's flip is seen."""
        pre, post, mutable = self.pre.tolist(), self.post.tolist(), self.mutable.tolist()
        cells = [f",{i},{j},{w!r}" for i, j, w in zip(pre, post, self.w0.tolist())]
        if not cells:
            return
        bits = self.w0.take(self.mutable).view(np.int64)
        for n, row in zip(self.steps, self.rows):
            now = row.view(np.int64)
            changed = np.flatnonzero(now != bits)
            for k, w in zip(changed.tolist(), row.take(changed).tolist()):
                i = mutable[k]
                cells[i] = f",{pre[i]},{post[i]},{w!r}"
            bits = now
            yield f"{n}" + f"\n{n}".join(cells)


@dataclass
class TraceLog:
    """Everything a run produces: per-step activations, sparse weight
    snapshots, and markers at every event boundary."""

    names: tuple[str, ...]
    activations: np.ndarray  # (steps, n)
    weight_snapshots: WeightSnapshots
    markers: list[tuple[int, str]]

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.names.index(name)
        except ValueError:
            raise QueryError(f"no neuron named {name!r} in trace") from None
        return self.activations[:, idx]

    def write_csv(self, outdir: str | Path, prefix: str = "") -> list[Path]:
        """Write trace.csv, weights.csv, and markers.csv a line at a time
        (weights.csv a snapshot at a time); deterministic bytes."""
        trace = (",".join(map(repr, row.tolist())) for row in self.activations)
        markers = (f"{step_no},{label}" for step_no, label in self.markers)
        return write_tables(outdir, [
            (f"{prefix}trace.csv", ",".join(self.names), trace),
            (f"{prefix}weights.csv", "step,pre,post,weight", self.weight_snapshots.csv_blocks()),
            (f"{prefix}markers.csv", "step,marker", markers),
        ])


def run(net: Connectome, protocol: Protocol, cfg: RunConfig | None = None) -> TraceLog:
    """Drive the closed loop for every protocol step and record the trace.

    The run's state is three locals: the activations ``a``, the live
    ``weights`` and the step count ``t``; the trace is its memory.  Each
    step: the segment's injections plus the physiology drive from ``a``, its
    clamps and one kernel step give the next activations, which are written
    to ``trace[t]``.  Once ``H_LEN`` steps are written, the learning pass
    then reads the last ``H_LEN`` trace rows, newest first, as a view.

    Exact repeats are fast-forwarded.  Within a segment, once ``H_LEN``
    steps are written, a step depends on nothing but the last ``H_LEN``
    trace rows and the weights, so a state seen before under the same
    weights array (which plasticity replaces only when a weight's bytes
    change) starts a cycle.  A state is looked up by its activation sum and
    confirmed by comparing the last ``H_LEN`` trace rows byte for byte, so
    -0.0 and NaN cannot fake a repeat.  The cycle's rows are then tiled for
    every whole period left in the segment; the remaining steps are computed.

    The snapshot steps (every ``weight_snapshot_every`` steps, and the last
    step) are listed once, in ``WeightSnapshots``.  When a pass replaces the
    weights array, the old one holds for every step not yet filled before
    this one; the last array fills the rest after the loop.
    So the fast-forward, which changes no weight, records nothing but trace
    rows, and a run holds no weights array beyond the live one and the one
    it replaces.
    """
    cfg = cfg or RunConfig()
    view = NetView.of(net)

    a = np.zeros(view.n)
    binding = None
    if cfg.physio.enabled:
        binding = physiology.bind(net, cfg.physio)
        a[binding.co2] = cfg.physio.initial_co2
        a[binding.o2] = cfg.physio.initial_o2

    weights = view.syn_w0
    total = protocol.total_steps
    steps = [*range(0, total, cfg.weight_snapshot_every or total), total]
    snapshots = WeightSnapshots(view.syn_w0, view.syn_pre, view.syn_post, view.syn_mutable, steps)
    trace = np.zeros((total, view.n))
    markers: list[tuple[int, str]] = []
    for ev in protocol.events:
        markers.append((ev.start, f"start {ev.label}"))
        markers.append((ev.end, f"end {ev.label}"))

    t = 0
    for seg in schedule(protocol, view.n):
        seen: dict[float, int] = {}  # activation sum -> step count, under the current weights
        while t < seg.end:
            before = weights
            inject = seg.drive(a, cfg.physio, binding)
            a = step(a, weights, view, inject, cfg.sim, seg.clamp_mask, seg.clamp_value)
            trace[t] = a
            t += 1
            if cfg.plasticity_enabled and t >= H_LEN:
                weights = plasticity_step(trace[t - H_LEN:t][::-1], weights, view, cfg.plasticity)
            if t < H_LEN:
                continue
            if weights is not before:
                snapshots.hold(before, until=t)
                seen.clear()
            key = float(a.sum())
            t0 = seen.get(key)
            if t0 is None or trace[t - H_LEN:t].tobytes() != trace[t0 - H_LEN:t0].tobytes():
                seen[key] = t
                continue
            period = t - t0
            skip = (seg.end - t) // period * period
            # broadcast, so no (skip, n) temporary is made
            trace[t:t + skip].reshape(skip // period, period, view.n)[:] = trace[t0:t]
            t += skip
            seen.clear()  # fewer steps than a period are left, so no whole cycle fits again

    snapshots.hold(weights, until=total + 1)
    return TraceLog(tuple(nr.name for nr in net.neurons), trace, snapshots, markers)


# ---------------------------------------------------------------------------
# summary metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    metric: str  # peak | peak_count | interval_mean | interval_cv
    neuron: str
    start: int | None = None
    end: int | None = None


@dataclass(frozen=True)
class MetricRow:
    metric: str
    neuron: str
    start: int | None  # None, with end, for a row of no window: the probe ratio
    end: int | None
    value: float

    @property
    def line(self) -> str:
        """The row as summary.csv writes it (``METRICS_HEADER``'s columns)."""
        window = "," if self.start is None else f"{self.start},{self.end}"
        return f"{self.metric},{self.neuron},{window},{self.value!r}"


METRICS_HEADER = "metric,neuron,start,end,value"


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

    ``peak`` is the window's maximum; ``peak_count``, ``interval_mean``, and
    ``interval_cv`` run peak detection over it.
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
    """summary.csv's text: the rows, then each ``(metric, neuron, value)`` of `extra` with no window."""
    rows = [*rows, *(MetricRow(metric, neuron, None, None, value) for metric, neuron, value in extra or [])]
    return "\n".join([METRICS_HEADER, *(r.line for r in rows)]) + "\n"


BURST_TAIL = 15  # steps after a burst's end that still count toward its peak: the response lags


@dataclass(frozen=True)
class Experiment:
    trace: TraceLog
    control: TraceLog  # the run of ``control_variant(protocol)``
    rows: tuple[MetricRow, ...]  # summary.csv's rows, ending with ``probe_peak_ratio`` when there is a probe
    ratio: float | None  # probe / control peak; None with no probe, NaN at a control peak <= 0


def experiment(
    net: Connectome, protocol: Protocol, cfg: RunConfig | None = None, headline: str = "eFEAR"
) -> Experiment:
    """Run a protocol and its never-conditioned control and summarize them:
    one ``headline`` peak per burst (a distinct window of the injections but
    the probe, in step order, extended by ``BURST_TAIL``), the probe's and the
    control's peaks over the probe window, the lung's rhythm if it exists,
    then the probe's ratio to the control.  An unknown ``headline`` or an
    ambiguous probe fails before any run.  ``run`` and ``summarize`` are
    called through this module's globals, which ``perfbench/child.py``
    rebinds to time them."""
    if headline not in net.name_to_id:
        raise QueryError(f"unknown headline element {headline!r}")
    cfg = cfg or RunConfig()
    probe = probe_event(protocol)
    trace, control = run(net, protocol, cfg), run(net, control_variant(protocol), cfg)
    bursts = {(ev.start, ev.end) for ev in protocol.events if ev.kind is EventKind.INJECT and ev is not probe}
    queries = [Query("peak", headline, s, min(e + BURST_TAIL, protocol.total_steps)) for s, e in sorted(bursts)]
    queries += [Query("peak", headline, probe.start, probe.end)] if probe is not None else []
    rows, ratio = summarize(trace, queries), None
    if probe is not None:
        peak, control_peak = rows[-1].value, summarize(control, queries[-1:])[0]
        rows.append(replace(control_peak, metric="control_peak"))
        ratio = peak / control_peak.value if control_peak.value > 0 else float("nan")
    if (lung := cfg.physio.lung_name) in net.name_to_id:
        rows += summarize(trace, [Query(m, lung) for m in ("peak_count", "interval_mean", "interval_cv")])
    if ratio is not None:
        rows.append(MetricRow("probe_peak_ratio", headline, None, None, ratio))
    return Experiment(trace, control, tuple(rows), ratio)
