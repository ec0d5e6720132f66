"""End-to-end CLI behavior: subcommands, exit codes, --set plumbing, outputs."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ortus import connectome, dsl
from ortus.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, Configs, apply_overrides, asset_path, main
from ortus.kernel import GjMode

BAD_ORT = "element sX { type: sensory }\nelement sX { type: sensory }\n"
TINY_PROTOCOL = "steps 40\nat 5..15 inject sH2O 0.5\nat 20..30 inject sH2O 0.5\n"


@pytest.fixture()
def tiny_ort(tmp_path):
    path = tmp_path / "tiny.ort"
    path.write_text(
        """
element sPING { type: sensory threshold: 0.01 }
element eCALM { type: emotion affect: positive threshold: 0.05 }
relationship { sPING causes eCALM weight: 0.6 }
"""
    )
    return path


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_ok(tiny_ort, capsys):
    assert main(["validate", str(tiny_ort)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ok: 2 elements, 1 relationships" in out


def test_validate_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.ort"
    bad.write_text(BAD_ORT)
    assert main(["validate", str(bad)]) == EXIT_DOMAIN
    out = capsys.readouterr().out
    assert "error:" in out and "declared twice" in out


def test_validate_reports_unreadable_numbers_with_a_position(tmp_path, capsys):
    bad = tmp_path / "bad.ort"
    bad.write_text("element sX { type: sensory }\nelement eY { type: emotion threshold: .e5 }\n")
    assert main(["validate", str(bad)]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err == "error: 2:39: malformed number '.e5'\n"


def test_validate_applies_overrides(capsys):
    assert main(["validate", "ortus.ort", "--set", "build.sci_cap=3"]) == EXIT_DOMAIN
    out = capsys.readouterr().out
    assert "error:" in out and "exceeding the cap of 3" in out and "ok:" not in out
    assert main(["validate", "ortus.ort", "--set", "bogus.key=1"]) == EXIT_DOMAIN
    assert "unknown config namespace 'bogus'" in capsys.readouterr().err


def test_missing_file_is_a_usage_error(capsys):
    assert main(["validate", "nope_does_not_exist.ort"]) == EXIT_USAGE
    assert "no such file" in capsys.readouterr().err


def test_bundled_assets_resolve_by_bare_name(capsys):
    assert main(["validate", "ortus.ort"]) == EXIT_OK
    assert "ok: 8 elements" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["/nonexistent/dir/ortus.ort", "missing_dir/ortus.ort", "./ortus.ort"])
def test_missing_path_with_a_directory_part_never_falls_back_to_the_assets(
    name, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)  # holds no ortus.ort of its own
    assert main(["validate", name]) == EXIT_USAGE
    assert "no such file" in capsys.readouterr().err
    assert main(["run", name, "fear_conditioning.protocol", "--out", "out"]) == EXIT_USAGE
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["", ".", "sub", "sub/"])
def test_a_directory_or_the_empty_path_is_no_such_file(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert main(["validate", name]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: no such file: {name}\n"
    assert main(["run", "ortus.ort", name, "--out", "out"]) == EXIT_USAGE
    assert "no such file" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# build / export
# ---------------------------------------------------------------------------


def test_build_writes_csvs_and_config(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["build", "ortus.ort", "--out", str(out)]) == EXIT_OK
    for name in ("neurons.csv", "chem.csv", "gap.csv", "config.resolved"):
        assert (out / name).exists()
    assert "built 32 neurons, 58 chemical synapses, 14 gap junctions" in capsys.readouterr().out


def test_build_rejects_invalid_spec(tmp_path, capsys):
    bad = tmp_path / "bad.ort"
    bad.write_text(BAD_ORT)
    assert main(["build", str(bad), "--out", str(tmp_path / "o")]) == EXIT_DOMAIN
    assert "error" in capsys.readouterr().err


def test_duplicate_wiring_fails_with_a_position(tmp_path, capsys):
    dup = tmp_path / "dup.ort"
    dup.write_text(
        "element sH2O { type: sensory }\n"
        "element eFEAR { type: emotion affect: negative }\n"
        "element mX { type: motor }\n"
        "\n"
        "relationship { sH2O causes mX }\n"
        "relationship { sH2O causes mX }\n"
    )
    diagnostic = "error:6:1: sH2O -> mX is already wired by the relationship at 5:1"
    assert main(["validate", str(dup)]) == EXIT_DOMAIN
    assert diagnostic in capsys.readouterr().out
    assert main(["build", str(dup), "--out", str(tmp_path / "o")]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.count(diagnostic) == 1
    assert not (tmp_path / "o").exists()


def test_export_prints_dot(tiny_ort, capsys):
    assert main(["export", str(tiny_ort)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("digraph") and "eCALM" in out


def test_export_dot_to_directory(tiny_ort, tmp_path):
    out = tmp_path / "dots"
    assert main(["export", str(tiny_ort), "--out", str(out)]) == EXIT_OK
    assert [p.name for p in out.iterdir()] == ["connectome.dot"]
    assert (out / "connectome.dot").read_text().startswith("digraph")


def test_export_dot_flag_is_gone(tiny_ort, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export", str(tiny_ort), "--dot"])
    assert exc.value.code == EXIT_USAGE
    assert "--dot" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build", "experiment"])
def test_spec_is_validated_once_and_warnings_reach_stderr(command, tmp_path, monkeypatch, capsys):
    calls = []
    original = dsl.validate_spec

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(dsl, "validate_spec", counted)
    monkeypatch.setattr(connectome, "validate_spec", counted)
    ort = tmp_path / "idle.ort"
    ort.write_text("element mIDLE { type: motor }\n" + asset_path("ortus.ort").read_text())
    proto = tmp_path / "p.protocol"
    proto.write_text(TINY_PROTOCOL)
    inputs = [str(ort), str(proto)] if command == "experiment" else [str(ort)]

    assert main([command, *inputs, "--out", str(tmp_path / "ok")]) == EXIT_OK
    assert len(calls) == 1
    err = capsys.readouterr().err
    assert err.count("motor element 'mIDLE' is not referenced by any relationship") == 1

    calls.clear()
    code = main([command, *inputs, "--out", str(tmp_path / "capped"), "--set", "build.sci_cap=3"])
    assert code == EXIT_DOMAIN
    assert len(calls) == 1
    err = capsys.readouterr().err
    explosion = "3 sensory elements expand to 2^3-1 = 7 sensory consolidation interneurons"
    assert err.count(explosion) == 1 and "exceeding the cap of 3" in err
    assert not (tmp_path / "capped").exists()


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_produces_trace(tmp_path, capsys):
    proto = tmp_path / "p.protocol"
    proto.write_text(TINY_PROTOCOL)
    out = tmp_path / "out"
    assert main(["run", "ortus.ort", str(proto), "--out", str(out)]) == EXIT_OK
    trace = (out / "trace.csv").read_text().splitlines()
    assert len(trace) == 1 + 40
    assert trace[0].split(",")[0] == "sCO2"
    assert (out / "weights.csv").exists()
    assert (out / "markers.csv").exists()
    assert (out / "config.resolved").exists()


def test_set_overrides_are_applied_and_echoed(tmp_path):
    proto = tmp_path / "p.protocol"
    proto.write_text("steps 20\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "ortus.ort", str(proto), "--out", str(out1)]) == EXIT_OK
    assert (
        main(
            [
                "run", "ortus.ort", str(proto), "--out", str(out2),
                "--set", "sim.decay_fraction=0.5",
                "--set", "physio.co2_production=0.02",
            ]
        )
        == EXIT_OK
    )
    resolved = (out2 / "config.resolved").read_text()
    assert "sim.decay_fraction = 0.5" in resolved
    assert "physio.co2_production = 0.02" in resolved
    assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()


@pytest.mark.parametrize(
    "override",
    [
        "nonsense",  # no ns.key=value shape
        "rocket.fuel=1",  # unknown namespace
        "sim.warp_speed=9",  # unknown key
        "sim.activation_clamp=maybe",  # uncoercible boolean
        "sim.decay_fraction=1.5",  # fails the config's own validation
        "sim.gj_mode=sideways",  # not a member of the enum
        "run.weight_snapshot_every=-1",  # fails the run config's validation
        "run.weight_snapshot_every=2.5",  # not an integer
        "sim.conservation_tolerance=-1",  # would fail every checked step
        "build.sei_weight=1.5",  # the plasticity clip would move an immutable weight
        "build.eei_mutability=-0.5",  # likewise
        "plasticity.slope_window=4",  # the slope windows would reach past the history
    ],
)
def test_bad_set_values_fail_cleanly(tmp_path, capsys, override):
    proto = tmp_path / "p.protocol"
    proto.write_text("steps 5\n")
    code = main(["run", "ortus.ort", str(proto), "--out", str(tmp_path / "o"), "--set", override])
    assert code == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "error" in err
    # the message names the key, or the namespace when that is unknown
    ns, _, name = override.partition("=")[0].rpartition(".")
    assert name in err or f"'{ns}'" in err


@pytest.mark.parametrize("module", ["ortus", "ortus.cli"])
def test_python_dash_m_runs_the_cli(module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", module, "--help"], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0
    assert "experiment" in done.stdout
    assert "RuntimeWarning" not in done.stderr


def test_set_coerces_by_the_default_type():
    cfgs = apply_overrides(
        Configs.defaults(),
        [
            "sim.gj_mode=paper-literal",
            "sim.activation_clamp=off",
            "run.weight_snapshot_every=0",
            "build.sci_cap=8",
            "plasticity.rapid_rate=0.02",
            "physio.lung_name=LUNG2",
        ],
    )
    assert cfgs.run.sim.gj_mode is GjMode.PAPER_LITERAL
    assert cfgs.run.sim.activation_clamp is False
    assert cfgs.run.weight_snapshot_every == 0
    assert cfgs.build.sci_cap == 8
    assert cfgs.run.plasticity.rapid_rate == 0.02
    assert cfgs.run.physio.lung_name == "LUNG2"


def test_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "ortus.ort", "--threads", "4"])
    assert exc.value.code == EXIT_USAGE
    assert "--threads" in capsys.readouterr().err


def test_no_plasticity_flag_freezes_weights(tmp_path):
    proto = tmp_path / "p.protocol"
    proto.write_text(
        "steps 120\nat 10..60 inject sH2O 0.8\nat 10..60 block respiration\n"
    )
    out_on, out_off = tmp_path / "on", tmp_path / "off"
    assert main(["run", "ortus.ort", str(proto), "--out", str(out_on)]) == EXIT_OK
    assert main(["run", "ortus.ort", str(proto), "--out", str(out_off), "--no-plasticity"]) == EXIT_OK

    def final_weights(outdir):
        lines = (outdir / "weights.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines]
        last_step = rows[-1][0]
        return {(r[1], r[2]): float(r[3]) for r in rows if r[0] == last_step}

    w_on, w_off = final_weights(out_on), final_weights(out_off)
    first = {(r.split(",")[1], r.split(",")[2]): float(r.split(",")[3])
             for r in (out_off / "weights.csv").read_text().splitlines()[1:]
             if r.split(",")[0] == "0"}
    assert w_off == first  # frozen
    assert w_on != w_off  # learning actually happened


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def test_experiment_outputs_and_headline(tmp_path, capsys):
    out = tmp_path / "exp"
    code = main(["experiment", "ortus.ort", "fear_conditioning.protocol", "--out", str(out)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "probe eFEAR peak ratio:" in stdout
    for name in (
        "trace.csv",
        "control_trace.csv",
        "weights.csv",
        "control_weights.csv",
        "summary.csv",
        "config.resolved",
    ):
        assert (out / name).exists()
    summary = (out / "summary.csv").read_text()
    assert summary.splitlines()[0] == "metric,neuron,start,end,value"
    assert "probe_peak_ratio,eFEAR" in summary
    assert "control_peak,eFEAR" in summary
    assert "interval_cv,LUNG" in summary


def test_experiment_headline_override(tmp_path, capsys):
    out = tmp_path / "exp"
    code = main(
        [
            "experiment", "ortus.ort", "fear_conditioning.protocol",
            "--out", str(out), "--headline", "ePLEASURE",
        ]
    )
    assert code == EXIT_OK
    assert "probe ePLEASURE peak ratio:" in capsys.readouterr().out


def test_experiment_rejects_an_unknown_headline_before_running(tmp_path, capsys):
    out = tmp_path / "exp"
    code = main(
        ["experiment", "ortus.ort", "fear_conditioning.protocol", "--out", str(out), "--headline", "eNOPE"]
    )
    assert code == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert "eNOPE" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "override", ["plasticity.rapid_rate=nan", "plasticity.rapid_rate=inf", "physio.co2_production=nan"]
)
def test_run_rejects_a_non_finite_override_before_running(tmp_path, capsys, override):
    out = tmp_path / "o"
    code = main(["run", "ortus.ort", "fear_conditioning.protocol", "--out", str(out), "--set", override])
    assert code == EXIT_DOMAIN
    name = override.split(".", 1)[1].split("=")[0]
    assert f"{name} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "physiology_line,overrides",
    [
        ("physiology sCO2 sCO2 sCO2\n", []),
        ("physiology sCO2 sO2 sCO2\n", []),
        ("", ["--set", "physio.o2_name=sCO2"]),
        ("", ["--set", "physio.lung_name=sO2"]),
    ],
)
def test_physiology_roles_must_be_distinct(tmp_path, capsys, physiology_line, overrides):
    proto = tmp_path / "p.protocol"
    proto.write_text("steps 30\n" + physiology_line)
    out = tmp_path / "o"
    assert main(["run", "ortus.ort", str(proto), "--out", str(out), *overrides]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "three distinct elements" in err
    if physiology_line:
        assert f"{proto}:2:" in err
    assert not out.exists()


def test_experiment_probe_is_latest_injection_in_time(tmp_path, capsys):
    proto = tmp_path / "p.protocol"
    proto.write_text("steps 100\nat 80..90 inject sH2O 0.5\nat 10..20 inject sCO2 0.5\n")
    out = tmp_path / "exp"
    assert main(["experiment", "ortus.ort", str(proto), "--out", str(out)]) == EXIT_OK
    rows = [line.split(",")[:4] for line in (out / "summary.csv").read_text().splitlines()]
    assert ["peak", "eFEAR", "10", "35"] in rows  # the earlier injection is a burst
    assert ["peak", "eFEAR", "80", "90"] in rows  # the later one is the probe
    assert ["control_peak", "eFEAR", "80", "90"] in rows
    assert (out / "control_markers.csv").read_text() == (
        "step,marker\n80,start inject sH2O 0.5\n90,end inject sH2O 0.5\n"
    )
