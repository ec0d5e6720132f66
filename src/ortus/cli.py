"""Command-line interface.

Subcommands: ``validate`` an .ort file, ``build`` it into connectome CSVs,
``export`` it as Graphviz DOT, ``run`` a protocol against it, or run a full
``experiment`` (protocol plus a never-conditioned control and a summary).
Each one builds the connectome first, ``validate`` too (it writes nothing),
so all five accept and refuse the same specs; errors and warnings go to
stderr.  Each command writes its files and returns its stdout text, which
``main`` alone writes, as UTF-8; a reader that has stopped reading is no error.
Exit codes: 0 success, 1 domain error (parse/validate/build/run), 2 usage or
I/O error.  Every config value is overridable with ``--set ns.key=value``;
the overrides are resolved and checked once, before any file is read, and
the resolved configuration is echoed into the output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import connectome as cn
from . import dsl
from .connectome import BuildConfig, build
from .errors import ConfigError, OrtusError, read_utf8
from .protocol import RunConfig, TraceLog, experiment, load_protocol, metrics_csv, run

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def utf8(arg: str) -> str:
    """An argv word read as UTF-8, as the input files are, whatever the locale."""
    return os.fsencode(arg).decode("utf-8")


def asset_path(name: str) -> Path:
    """Path of a bundled asset file (the default organism and protocol)."""
    return Path(__file__).with_name("assets") / name


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


def _cmd_validate(args: argparse.Namespace, cfgs: Configs) -> str:
    spec, _ = _build_from_args(args, cfgs)
    return f"ok: {len(spec.elements)} elements, {len(spec.relationships)} relationships\n"


def _write_outputs(
    outdir: Path, cfgs: Configs, net: cn.Connectome, traces: dict[str, TraceLog] | None = None
) -> None:
    """The connectome CSVs, each trace's CSVs under its file-name prefix,
    and ``config.resolved``."""
    cn.write_csvs(net, outdir)
    for prefix, trace in (traces or {}).items():
        trace.write_csv(outdir, prefix=prefix)
    (outdir / "config.resolved").write_text(resolved_config_text(cfgs), encoding="utf-8")


def _cmd_build(args: argparse.Namespace, cfgs: Configs) -> str:
    _, net = _build_from_args(args, cfgs)
    outdir = Path(args.out)
    _write_outputs(outdir, cfgs, net)
    return (
        f"built {net.n} neurons, {len(net.chem)} chemical synapses,"
        f" {len(net.gap)} gap junctions -> {outdir}\n"
    )


def _cmd_export(args: argparse.Namespace, cfgs: Configs) -> str:
    _, net = _build_from_args(args, cfgs)
    text = cn.to_dot(net)
    if not args.out:
        return text
    path = Path(args.out) / "connectome.dot"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return f"wrote {path}\n"


def _cmd_run(args: argparse.Namespace, cfgs: Configs) -> str:
    _, net = _build_from_args(args, cfgs)
    protocol = load_protocol(_resolve_input(args.protocol), net)
    trace = run(net, protocol, cfgs.run)
    outdir = Path(args.out)
    _write_outputs(outdir, cfgs, net, {"": trace})
    return f"ran {protocol.total_steps} steps -> {outdir}\n"


def _cmd_experiment(args: argparse.Namespace, cfgs: Configs) -> str:
    _, net = _build_from_args(args, cfgs)
    protocol = load_protocol(_resolve_input(args.protocol), net)
    headline = args.headline
    if headline not in net.name_to_id:
        raise ConfigError(f"unknown --headline element {headline!r}")
    result = experiment(net, protocol, cfgs.run, headline)
    outdir = Path(args.out)
    _write_outputs(outdir, cfgs, net, {"": result.trace, "control_": result.control})
    extra, probe = [], ""
    if result.ratio is not None:
        extra.append(("probe_peak_ratio", headline, result.ratio))
        probe = f"probe {headline} peak ratio: {result.ratio!r}\n"
    (outdir / "summary.csv").write_text(metrics_csv(result.rows, extra), encoding="utf-8")
    return f"{probe}experiment complete -> {outdir}\n"


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
        p.add_argument("--set", action="append", type=utf8, metavar="NS.KEY=VALUE", help="config override")

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
    p.add_argument("--headline", default="eFEAR", type=utf8, help="neuron for the headline probe metric")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # every override is resolved and checked before any file is read
        text = args.func(args, apply_overrides(Configs(), args.set or []))
    except (OrtusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN if isinstance(exc, OrtusError) else EXIT_USAGE
    # the one stdout write, after every file is written: UTF-8 whatever the
    # locale, and a path from argv as its own bytes
    if sys.stdout is None:  # started with fd 1 closed
        return EXIT_OK
    try:
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8", "surrogateescape"))
        sys.stdout.buffer.flush()
    except BrokenPipeError:
        # the reader has gone; fd 1 goes to devnull, so the flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
