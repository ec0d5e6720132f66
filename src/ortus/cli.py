"""Command-line interface.

Subcommands: ``validate`` an .ort file, ``build`` it into connectome CSVs,
``export`` it as Graphviz DOT, ``run`` a protocol against it, or run a full
``experiment`` (protocol plus a never-conditioned control and a summary).
Each one builds the connectome first, ``validate`` too (it writes nothing),
so all five accept and refuse the same specs; errors and warnings go to
stderr.
Exit codes: 0 success, 1 domain error (parse/validate/build/run), 2 usage or
I/O error.  Every config value is overridable with ``--set ns.key=value``;
the overrides are resolved and checked once, before any file is read, and
the resolved configuration is echoed into the output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from importlib import resources
from pathlib import Path

from . import connectome as cn
from . import dsl
from . import protocol as proto
from .connectome import BuildConfig, build
from .errors import ConfigError, OrtusError, read_utf8
from .protocol import Query, RunConfig, TraceLog, control_variant, load_protocol, metrics_csv, run, summarize

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
BURST_TAIL = 15  # steps after each burst's end that still count toward its peak


def _print_utf8(text: str) -> None:
    """Write `text` to stdout as UTF-8 whatever the locale: the bytes a file gets."""
    sys.stdout.flush()
    sys.stdout.buffer.write(text.encode("utf-8"))
    sys.stdout.buffer.flush()


def asset_path(name: str) -> Path:
    """Path of a bundled asset file (the default organism and protocol)."""
    return Path(str(resources.files("ortus").joinpath("assets", name)))


def _resolve_input(path_str: str) -> Path:
    """The file as given, or a bundled asset when a bare file name names no
    file; a directory (the empty path too) is no file."""
    path = Path(path_str)
    if path.is_file():
        return path
    if path_str == path.name and asset_path(path_str).is_file():
        return asset_path(path_str)
    raise FileNotFoundError(f"no such file: {path_str}")


# ---------------------------------------------------------------------------
# --set plumbing
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Configs:
    build: BuildConfig = dataclasses.field(default_factory=BuildConfig)
    run: RunConfig = dataclasses.field(default_factory=RunConfig)

    def sections(self) -> dict[str, object]:
        """Each ``--set`` namespace and the config it sets.  The run config's
        nested configs are namespaces of their own, not keys of ``run``."""
        return {
            "build": self.build,
            "sim": self.run.sim,
            "plasticity": self.run.plasticity,
            "physio": self.run.physio,
            "run": self.run,
        }


def _coerce(field: dataclasses.Field, text: str):
    default = field.default
    if isinstance(default, bool):
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {text!r}")
    return type(default)(text)


def _settings(cfgs: Configs) -> dict[str, tuple[object, dataclasses.Field]]:
    """Each ``ns.key`` that ``--set`` takes, with the config and field it sets."""
    sections = cfgs.sections()
    return {
        f"{ns}.{f.name}": (obj, f)
        for ns, obj in sections.items()
        for f in dataclasses.fields(obj)
        if f.name not in sections
    }


def apply_overrides(cfgs: Configs, pairs: list[str]) -> Configs:
    """Apply ``ns.key=value`` strings onto fresh config objects."""
    sections, settings = cfgs.sections(), _settings(cfgs)
    for pair in pairs:
        if "=" not in pair or "." not in pair.split("=", 1)[0]:
            raise OrtusError(f"--set expects ns.key=value, got {pair!r}")
        key, _, text = pair.partition("=")
        ns = key.partition(".")[0]
        if ns not in sections:
            raise OrtusError(f"unknown config namespace {ns!r} (one of {', '.join(sections)})")
        if key not in settings:
            raise OrtusError(f"unknown config key {key!r}")
        target, field = settings[key]
        try:
            value = _coerce(field, text)
        except ValueError as exc:
            raise OrtusError(f"bad value for {key!r}: {exc}") from exc
        setattr(target, field.name, value)
    # Re-run validation hooks after the overrides land.
    for obj in sections.values():
        obj.__post_init__()
    return cfgs


def resolved_config_text(cfgs: Configs) -> str:
    lines = [f"{key} = {getattr(obj, f.name)}" for key, (obj, f) in _settings(cfgs).items()]
    return "\n".join(sorted(lines)) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _build_from_args(
    args: argparse.Namespace, cfgs: Configs
) -> tuple[dsl.NetworkSpec, cn.Connectome]:
    # build is the one checker: it raises the errors, with their positions,
    # and hands back the warnings
    spec = dsl.parse_source(read_utf8(_resolve_input(args.ort), dsl.ParseError))
    net = build(spec, cfgs.build)
    for line in net.warnings:
        print(line, file=sys.stderr)
    return spec, net


def _cmd_validate(args: argparse.Namespace, cfgs: Configs) -> int:
    spec, _ = _build_from_args(args, cfgs)
    print(f"ok: {len(spec.elements)} elements, {len(spec.relationships)} relationships")
    return EXIT_OK


def _write_outputs(
    outdir: Path, cfgs: Configs, net: cn.Connectome, traces: dict[str, TraceLog] | None = None
) -> None:
    """The connectome CSVs, each trace's CSVs under its file-name prefix,
    and ``config.resolved``."""
    cn.write_csvs(net, outdir)
    for prefix, trace in (traces or {}).items():
        trace.write_csv(outdir, prefix=prefix)
    (outdir / "config.resolved").write_text(resolved_config_text(cfgs), encoding="utf-8")


def _cmd_build(args: argparse.Namespace, cfgs: Configs) -> int:
    _, net = _build_from_args(args, cfgs)
    outdir = Path(args.out)
    _write_outputs(outdir, cfgs, net)
    print(
        f"built {net.n} neurons, {len(net.chem)} chemical synapses,"
        f" {len(net.gap)} gap junctions -> {outdir}"
    )
    return EXIT_OK


def _cmd_export(args: argparse.Namespace, cfgs: Configs) -> int:
    _, net = _build_from_args(args, cfgs)
    text = cn.to_dot(net)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "connectome.dot").write_text(text, encoding="utf-8")
        print(f"wrote {outdir / 'connectome.dot'}")
    else:
        _print_utf8(text)
    return EXIT_OK


def _cmd_run(args: argparse.Namespace, cfgs: Configs) -> int:
    _, net = _build_from_args(args, cfgs)
    protocol = load_protocol(_resolve_input(args.protocol), net)
    trace = run(net, protocol, cfgs.run)
    outdir = Path(args.out)
    _write_outputs(outdir, cfgs, net, {"": trace})
    print(f"ran {protocol.total_steps} steps -> {outdir}")
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace, cfgs: Configs) -> int:
    _, net = _build_from_args(args, cfgs)
    protocol = load_protocol(_resolve_input(args.protocol), net)
    headline = args.headline
    if headline not in net.name_to_id:
        raise ConfigError(f"unknown --headline element {headline!r}")
    outdir = Path(args.out)
    control_protocol = control_variant(protocol)  # an ambiguous probe fails before any run
    trace = run(net, protocol, cfgs.run)
    control = run(net, control_protocol, cfgs.run)
    _write_outputs(outdir, cfgs, net, {"": trace, "control_": control})

    probe_ev = proto.probe_event(protocol)
    # One peak per burst, a distinct window of the other injections, in step
    # order: the response lags the stimulus (gas dynamics), so extend each
    # window a little past the event end.  The probe's window, last, is not
    # extended.
    injects = [ev for ev in protocol.events if ev.kind is proto.EventKind.INJECT and ev is not probe_ev]
    bursts = sorted({(ev.start, ev.end) for ev in injects})
    queries = [Query("peak", headline, s, min(e + BURST_TAIL, protocol.total_steps)) for s, e in bursts]
    if probe_ev is not None:
        queries.append(Query("peak", headline, probe_ev.start, probe_ev.end))
    rows = summarize(trace, queries)
    extra: list[tuple[str, str, float]] = []
    if probe_ev is not None:
        probe, control_probe = rows[-1], summarize(control, queries[-1:])[0]
        rows.append(dataclasses.replace(control_probe, metric="control_peak"))
        # a ratio to a control peak at or below zero says nothing about growth
        ratio = probe.value / control_probe.value if control_probe.value > 0 else float("nan")
        extra.append(("probe_peak_ratio", headline, ratio))
        _print_utf8(f"probe {headline} peak ratio: {ratio!r}\n")
    lung = cfgs.run.physio.lung_name
    if lung in net.name_to_id:
        rows.extend(
            summarize(
                trace,
                [Query("peak_count", lung), Query("interval_mean", lung), Query("interval_cv", lung)],
            )
        )
    (outdir / "summary.csv").write_text(metrics_csv(rows, extra), encoding="utf-8")
    print(f"experiment complete -> {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ortus", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, protocol: bool = False) -> None:
        p.add_argument("ort", help=".ort organism file (bundled assets resolve by name)")
        if protocol:
            p.add_argument("protocol", help="protocol file")
        p.add_argument("--set", action="append", metavar="NS.KEY=VALUE", help="config override")

    p = sub.add_parser("validate", help="check that an .ort file builds, writing nothing")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("build", help="compile an .ort file into connectome CSVs")
    common(p)
    p.add_argument("--out", default="ortus_out")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("export", help="print the connectome as Graphviz DOT")
    common(p)
    p.add_argument("--out", default=None, help="write connectome.dot here instead")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("run", help="run one protocol and record traces")
    common(p, protocol=True)
    p.add_argument("--out", default="ortus_out")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("experiment", help="run a protocol plus its control and summarize")
    common(p, protocol=True)
    p.add_argument("--out", default="ortus_out")
    p.add_argument("--headline", default="eFEAR", help="neuron for the headline probe metric")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # every override is resolved and checked before any file is read
        return args.func(args, apply_overrides(Configs(), args.set or []))
    except OrtusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
