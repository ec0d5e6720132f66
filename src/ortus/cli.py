"""Command-line interface.

Subcommands: ``validate`` an .ort file, ``build`` it into connectome CSVs,
``export`` it (CSV or DOT), ``run`` a protocol against it, or run a full
``experiment`` (protocol plus a never-conditioned control and a summary).
Exit codes: 0 success, 1 domain error (parse/validate/build/run), 2 usage or
I/O error.  Every config value is overridable with ``--set ns.key=value``;
the resolved configuration is echoed into the output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import sys
from importlib import resources
from pathlib import Path

from . import connectome as cn
from . import dsl
from . import protocol as proto
from .connectome import BuildConfig, build
from .errors import OrtusError
from .kernel import SimConfig
from .physiology import PhysioConfig
from .plasticity import PlasticityConfig
from .protocol import Query, RunConfig, control_variant, load_protocol, metrics_csv, run, summarize

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def asset_path(name: str) -> Path:
    """Path of a bundled asset file (the default organism and protocol)."""
    return Path(str(resources.files("ortus").joinpath("assets", name)))


def _resolve_input(path_str: str) -> Path:
    path = Path(path_str)
    if path.exists():
        return path
    candidate = asset_path(Path(path_str).name)
    if candidate.exists():
        return candidate
    raise FileNotFoundError(f"no such file: {path_str}")


# ---------------------------------------------------------------------------
# --set plumbing
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Configs:
    build: BuildConfig
    run: RunConfig

    @classmethod
    def defaults(cls) -> "Configs":
        return cls(BuildConfig(), RunConfig())

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


def apply_overrides(cfgs: Configs, pairs: list[str]) -> Configs:
    """Apply ``ns.key=value`` strings onto fresh config objects."""
    sections = cfgs.sections()
    for pair in pairs:
        if "=" not in pair or "." not in pair.split("=", 1)[0]:
            raise OrtusError(f"--set expects ns.key=value, got {pair!r}")
        key, _, text = pair.partition("=")
        ns, _, name = key.partition(".")
        if ns not in sections:
            raise OrtusError(f"unknown config namespace {ns!r} (one of {', '.join(sections)})")
        target = sections[ns]
        fields = {f.name: f for f in dataclasses.fields(target)}
        if name not in fields or name in sections:
            raise OrtusError(f"unknown config key {key!r}")
        try:
            value = _coerce(fields[name], text)
        except ValueError as exc:
            raise OrtusError(f"bad value for {key!r}: {exc}") from exc
        setattr(target, name, value)
    # Re-run validation hooks after the overrides land.
    for obj in sections.values():
        obj.__post_init__()
    return cfgs


def resolved_config_text(cfgs: Configs) -> str:
    lines = []
    sections = cfgs.sections()
    for ns, obj in sections.items():
        for f in dataclasses.fields(obj):
            if f.name in sections:
                continue
            value = getattr(obj, f.name)
            if isinstance(value, enum.Enum):
                value = value.value
            lines.append(f"{ns}.{f.name} = {value}")
    return "\n".join(sorted(lines)) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _load_spec(path: Path) -> dsl.NetworkSpec:
    return dsl.parse_source(path.read_text())


def _cmd_validate(args: argparse.Namespace) -> int:
    cfgs = apply_overrides(Configs.defaults(), args.set or [])
    spec = _load_spec(_resolve_input(args.ort))
    diags = dsl.validate_spec(spec, sci_cap=cfgs.build.sci_cap)
    for d in diags:
        print(d)
    if dsl.has_errors(diags):
        return EXIT_DOMAIN
    print(f"ok: {len(spec.elements)} elements, {len(spec.relationships)} relationships")
    return EXIT_OK


def _build_from_args(args: argparse.Namespace, cfgs: Configs):
    spec = _load_spec(_resolve_input(args.ort))
    diags = dsl.validate_spec(spec, sci_cap=cfgs.build.sci_cap)
    for d in diags:
        if d.severity is dsl.Severity.WARNING:
            print(d, file=sys.stderr)
    if dsl.has_errors(diags):
        raise OrtusError("\n".join(str(d) for d in diags if d.severity is dsl.Severity.ERROR))
    return build(spec, cfgs.build)


def _cmd_build(args: argparse.Namespace) -> int:
    cfgs = apply_overrides(Configs.defaults(), args.set or [])
    net = _build_from_args(args, cfgs)
    outdir = Path(args.out)
    cn.write_csvs(net, outdir)
    (outdir / "config.resolved").write_text(resolved_config_text(cfgs))
    print(
        f"built {net.n} neurons, {len(net.chem)} chemical synapses,"
        f" {len(net.gap)} gap junctions -> {outdir}"
    )
    return EXIT_OK


def _cmd_export(args: argparse.Namespace) -> int:
    cfgs = apply_overrides(Configs.defaults(), args.set or [])
    net = _build_from_args(args, cfgs)
    if args.dot:
        text = cn.to_dot(net)
        if args.out:
            outdir = Path(args.out)
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / "connectome.dot").write_text(text)
            print(f"wrote {outdir / 'connectome.dot'}")
        else:
            print(text, end="")
    else:
        outdir = Path(args.out or "ortus_out")
        cn.write_csvs(net, outdir)
        print(f"wrote connectome CSVs -> {outdir}")
    return EXIT_OK


def _prepare_run(args: argparse.Namespace):
    cfgs = apply_overrides(Configs.defaults(), args.set or [])
    if getattr(args, "no_plasticity", False):
        cfgs.run.plasticity_enabled = False
    net = _build_from_args(args, cfgs)
    protocol = load_protocol(_resolve_input(args.protocol), net)
    return cfgs, net, protocol


def _cmd_run(args: argparse.Namespace) -> int:
    cfgs, net, protocol = _prepare_run(args)
    trace = run(net, protocol, cfgs.run)
    outdir = Path(args.out)
    cn.write_csvs(net, outdir)
    trace.write_csv(outdir)
    (outdir / "config.resolved").write_text(resolved_config_text(cfgs))
    print(f"ran {protocol.total_steps} steps -> {outdir}")
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    cfgs, net, protocol = _prepare_run(args)
    outdir = Path(args.out)
    trace = run(net, protocol, cfgs.run)
    control = run(net, control_variant(protocol), cfgs.run)

    cn.write_csvs(net, outdir)
    trace.write_csv(outdir)
    control.write_csv(outdir, prefix="control_")
    (outdir / "config.resolved").write_text(resolved_config_text(cfgs))

    headline = args.headline
    rows: list[proto.MetricRow] = []
    extra: list[tuple[str, str, float]] = []
    probe_ev = proto.probe_event(protocol)
    if headline in net.name_to_id:
        # Per-burst peaks: the response lags the stimulus (gas dynamics), so
        # extend each window a little past the event end.
        for ev in protocol.events:
            if ev.kind is proto.EventKind.INJECT and ev is not probe_ev:
                tail_end = min(ev.end + 15, protocol.total_steps)
                rows.extend(summarize(trace, [Query("peak", headline, ev.start, tail_end)]))
        if probe_ev is not None:
            start, end = probe_ev.start, probe_ev.end
            probe = summarize(trace, [Query("peak", headline, start, end)])[0]
            control_probe = summarize(control, [Query("peak", headline, start, end)])[0]
            rows.append(probe)
            rows.append(dataclasses.replace(control_probe, metric="control_peak"))
            ratio = probe.value / control_probe.value if control_probe.value > 0 else float("inf")
            extra.append(("probe_peak_ratio", headline, ratio))
            print(f"probe {headline} peak ratio: {ratio!r}")
    lung = cfgs.run.physio.lung_name
    if lung in net.name_to_id:
        rows.extend(
            summarize(
                trace,
                [Query("peak_count", lung), Query("interval_mean", lung), Query("interval_cv", lung)],
            )
        )
    (outdir / "summary.csv").write_text(metrics_csv(rows, extra))
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

    p = sub.add_parser("validate", help="parse and validate an .ort file")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("build", help="compile an .ort file into connectome CSVs")
    common(p)
    p.add_argument("--out", default="ortus_out")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("export", help="export the connectome (CSV, or DOT with --dot)")
    common(p)
    p.add_argument("--dot", action="store_true", help="emit DOT instead of CSVs")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("run", help="run one protocol and record traces")
    common(p, protocol=True)
    p.add_argument("--out", default="ortus_out")
    p.add_argument("--no-plasticity", action="store_true")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("experiment", help="run a protocol plus its control and summarize")
    common(p, protocol=True)
    p.add_argument("--out", default="ortus_out")
    p.add_argument("--no-plasticity", action="store_true")
    p.add_argument("--headline", default="eFEAR", help="neuron for the headline probe metric")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OrtusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
