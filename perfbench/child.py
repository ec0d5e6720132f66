"""One measured process of the benchmark; ``run.py`` starts it.

    python3 perfbench/child.py cli   ORT PROTOCOL OUTDIR [--trace] [--setup-only]
    python3 perfbench/child.py dense ORT PROTOCOL        [--trace] [--setup-only]
    python3 perfbench/child.py sweep SEED

``cli`` is ``ortus experiment ORT PROTOCOL --out OUTDIR`` in this fresh
process.  ``dense`` runs the same experiment in process through
``ortus.run`` and ``summarize`` on an organism built with
``eei_initial_weight=0.3`` and writes no files.  ``sweep`` runs the bundled
protocol once per sensor count and reports the per-step cost of the kernel
and of plasticity.

Every mode wraps ``protocol.run`` to time-stamp its first call and to time
the simulated steps inside it.  ``--trace`` also wraps the public entry
point of every layer (see ``LAYERS``) and reports inclusive time, self time
and calls per layer, plus learning counts computed from the returned
``TraceLog``.  ``--setup-only`` exits at the first ``protocol.run`` call, so
set-up can be sampled on its own.  The last line of stdout is one JSON
object; all times are ``time.monotonic`` seconds, comparable with the
parent's clock.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path

T_IMPORT = time.monotonic()
import ortus  # noqa: E402
T_IMPORTED = time.monotonic()

import numpy as np  # noqa: E402

from ortus import cli, connectome, dsl, physiology, protocol  # noqa: E402

# span name -> (owner, attribute) of each layer's public entry point.  Every
# alias of the function in an ``ortus`` module is wrapped, so a call through
# ``from .x import f`` is seen too.
LAYERS = {
    "dsl.parse": [(dsl, "parse_source")],
    "dsl.validate": [(dsl, "validate_spec")],
    "connectome.build": [(connectome, "build")],
    "connectome.write": [(connectome, "write_csvs")],
    "kernel.step": [(protocol, "step")],
    "plasticity.step": [(protocol, "plasticity_step")],
    "physiology": [(physiology, "bind"), (physiology, "metabolic_step"), (physiology, "lung_exchange")],
    "protocol.summarize": [(protocol, "summarize")],
    "protocol.write": [(protocol.TraceLog, "write_csv")],
}
WRITERS = ("connectome.write", "protocol.write")  # never fire in ``dense``, which writes no files
SWEEP_SENSORS = (3, 5, 7, 9, 10)


class Tracer:
    """Inclusive time, self time and calls per span name, plus the top-level
    spans (those with no traced caller) in the order they ended."""

    def __init__(self) -> None:
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.top: list[tuple[str, float, float]] = []
        self._stack: list[list] = []  # [name, start, time spent in child spans]

    def wrap(self, name: str, fn):
        clock, stack = time.monotonic, self._stack

        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self.total[name] = self.total.get(name, 0.0) + dur
                self.self_time[name] = self.self_time.get(name, 0.0) + dur - frame[2]
                self.calls[name] = self.calls.get(name, 0) + 1
                if stack:
                    stack[-1][2] += dur
                else:
                    self.top.append((name, frame[1], end))

        return traced

    def report(self) -> dict:
        return {
            name: {"s": self.total[name], "self_s": self.self_time[name], "calls": self.calls[name]}
            for name in self.total
        }


def replace_everywhere(original, replacement) -> None:
    """Rebind every name that an ``ortus`` module or class binds to `original`."""
    for modname, module in list(sys.modules.items()):
        if modname == "ortus" or modname.startswith("ortus."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install_layers(tracer: Tracer) -> None:
    for name, targets in LAYERS.items():
        for owner, attr in targets:
            original = getattr(owner, attr, None)
            if original is None:
                sys.exit(f"benchmark: layer {name!r}: {owner.__name__}.{attr} no longer exists")
            wrapped = tracer.wrap(name, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
            else:
                replace_everywhere(original, wrapped)


class RunTimer:
    """Wraps ``protocol.run``: first-call stamp, steps and seconds inside it,
    and (when traced) the returned logs for the learning counts."""

    def __init__(self, setup_only: bool, tracer: Tracer | None) -> None:
        self.first_call: float | None = None
        self.steps = 0
        self.seconds = 0.0
        self.logs: list[tuple] = []
        self.setup_only = setup_only
        original = protocol.run
        inner = tracer.wrap("protocol.run", original) if tracer else original

        def timed_run(net, prot, *args, **kwargs):
            start = time.monotonic()
            if self.first_call is None:
                self.first_call = start
                if self.setup_only:
                    emit({"t_first_run": start})
                    os._exit(0)
            log = inner(net, prot, *args, **kwargs)
            self.seconds += time.monotonic() - start
            self.steps += prot.total_steps
            if tracer is not None:
                cfg = (args[0] if args else kwargs.get("cfg")) or protocol.RunConfig()
                self.logs.append((net, cfg, log))
            return log

        replace_everywhere(original, timed_run)


def learning_counts(logs: list[tuple]) -> dict:
    """Exact counts of what the learning rule saw, from the returned logs.

    Plasticity runs once the history ring is full (step >= H_LEN) and, on a
    step where any synapse has both endpoints above the activity threshold,
    evaluates every synapse.
    """
    net = logs[0][0]
    counts = {
        "neurons": net.n,
        "chem_synapses": len(net.chem),
        "mutable_synapses": sum(1 for s in net.chem if s.mutability > 0),
        "gap_junctions": len(net.gap),
        "active_steps": 0,
        "pairs_evaluated": 0,
        "active_mutable": 0,
        "weights_changed": 0,
    }
    for net, cfg, log in logs:
        view = ortus.NetView.of(net)
        if not cfg.plasticity_enabled or len(view.syn_pre) == 0:
            continue
        above = log.activations[ortus.H_LEN - 1:] > cfg.plasticity.activity_threshold
        active = above[:, view.syn_pre] & above[:, view.syn_post]
        steps = int(active.any(axis=1).sum())
        counts["active_steps"] += steps
        counts["pairs_evaluated"] += steps * len(view.syn_pre)
        counts["active_mutable"] += int(active[:, view.syn_mi > 0].sum())
        first = log.weight_snapshots[0][1]
        moved = np.zeros(len(first), dtype=bool)
        for _, weights in log.weight_snapshots:
            moved |= weights != first
        counts["weights_changed"] += int(moved.sum())
    return counts


def emit(result: dict) -> None:
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def log_digests(prefix: str, log) -> dict:
    snaps = hashlib.sha256()
    for step_no, weights in log.weight_snapshots:
        snaps.update(step_no.to_bytes(8, "little"))
        snaps.update(np.ascontiguousarray(weights, dtype="<f8").tobytes())
    return {
        f"{prefix}activations": sha(np.ascontiguousarray(log.activations, dtype="<f8").tobytes()),
        f"{prefix}weights": snaps.hexdigest(),
    }


def dense_experiment(ort: str, protocol_path: str) -> dict:
    """Conditioned run, control run and summary, all in process."""
    spec = ortus.parse_source(Path(ort).read_text())
    net = ortus.build(spec, ortus.BuildConfig(eei_initial_weight=0.3))
    prot = ortus.load_protocol(protocol_path, net)
    trace = ortus.run(net, prot)
    control_prot = ortus.control_variant(prot)
    control = ortus.run(net, control_prot)
    probe = control_prot.events[0]
    peak = ortus.summarize(trace, [ortus.Query("peak", "eFEAR", probe.start, probe.end)])[0]
    control_peak = ortus.summarize(control, [ortus.Query("peak", "eFEAR", probe.start, probe.end)])[0]
    breathing = ortus.summarize(
        trace, [ortus.Query(m, "LUNG") for m in ("peak_count", "interval_mean", "interval_cv")]
    )
    ratio = peak.value / control_peak.value
    rows = protocol.metrics_csv([peak, control_peak, *breathing], [("probe_peak_ratio", "eFEAR", ratio)])
    t_end = time.monotonic()
    return {
        "t_end": t_end,
        "probe_ratio": repr(ratio),
        "outputs": {**log_digests("", trace), **log_digests("control_", control), "summary": sha(rows.encode())},
    }


def sweep(seed: int) -> dict:
    """Per-step kernel and plasticity cost at each sensor count, bundled protocol."""
    import inputs

    extra = inputs.extra_sensor_names(seed)
    out: dict = {"us_per_step": {}, "size": {}}
    for k in SWEEP_SENSORS:
        tracer = Tracer()
        step, learn = protocol.step, protocol.plasticity_step
        protocol.step = tracer.wrap("kernel.step", step)
        protocol.plasticity_step = tracer.wrap("plasticity.step", learn)
        try:
            net = ortus.build(ortus.parse_source(inputs.organism(extra[:k - 3])))
            ortus.run(net, protocol.parse_protocol(inputs.bundled_protocol(), net))
        finally:
            protocol.step, protocol.plasticity_step = step, learn
        for span, layer in (("kernel.step", "kernel"), ("plasticity.step", "plasticity")):
            if not tracer.calls.get(span):
                sys.exit(f"benchmark: span {span!r} never fired in the {k}-sensor sweep run")
            out["us_per_step"][f"{layer}.us_per_step.s{k}"] = 1e6 * tracer.total[span] / tracer.calls[span]
        out["size"][f"s{k}"] = {"neurons": net.n, "synapses": len(net.chem)}
    return out


def main(argv: list[str]) -> None:
    mode, args = argv[0], [a for a in argv[1:] if not a.startswith("--")]
    traced, setup_only = "--trace" in argv, "--setup-only" in argv
    result: dict = {"import_s": T_IMPORTED - T_IMPORT, "numpy": np.__version__}
    if mode == "sweep":
        result["sweep"] = sweep(int(args[0]))
        emit(result)
        return

    tracer = Tracer() if traced else None
    if tracer is not None:
        install_layers(tracer)
    timer = RunTimer(setup_only, tracer)
    if mode == "cli":
        ort, protocol_path, outdir = args
        code = cli.main(["experiment", ort, protocol_path, "--out", outdir])
        if code != 0:
            sys.exit(f"benchmark: ortus experiment exited with {code}")
        result["t_end"] = time.monotonic()
    elif mode == "dense":
        result.update(dense_experiment(*args))
    else:
        sys.exit(f"benchmark: unknown child mode {mode!r}")

    result.update(t_first_run=timer.first_call, run_steps=timer.steps, run_s=timer.seconds)
    if tracer is not None:
        expected = [n for n in ["protocol.run", *LAYERS] if mode == "cli" or n not in WRITERS]
        missing = [n for n in expected if not tracer.calls.get(n)]
        if missing:
            sys.exit(f"benchmark: traced span(s) never fired: {', '.join(missing)}")
        result["layers"] = tracer.report()
        result["covered_s"] = sum(end - start for _, start, end in tracer.top if start >= timer.first_call)
        result["counts"] = learning_counts(timer.logs)
    emit(result)


if __name__ == "__main__":
    main(sys.argv[1:])
