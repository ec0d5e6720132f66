"""End-to-end CLI behavior: subcommands, exit codes, --set plumbing, outputs."""

import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ortus import connectome, dsl
from ortus.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, Configs, apply_overrides, asset_path, main
from ortus.protocol import experiment, metrics_csv, parse_protocol
from strategies import COLLISIONS

BAD_ORT = "element sX { type: sensory }\nelement sX { type: sensory }\n"
TINY_PROTOCOL = "steps 40\nat 5..15 inject sH2O 0.5\nat 20..30 inject sH2O 0.5\n"
SRC = str(Path(__file__).resolve().parents[1] / "src")
LOCALES = {"utf8": {"PYTHONUTF8": "1"}, "posix": {"PYTHONUTF8": "0", "LC_ALL": "POSIX"}}
EXPERIMENT_FILES = {
    f"{prefix}{name}.csv" for prefix in ("", "control_") for name in ("trace", "weights", "markers")
} | {"neurons.csv", "chem.csv", "gap.csv", "summary.csv", "config.resolved"}


def ortus_env(**extra: str) -> dict[str, str]:
    """The environment of a ``python -m ortus`` process on this checkout's
    ``src/``, plus `extra`."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def read_dir(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


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
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: spec failed validation:\n"
        "error:2:1: element 'sX' declared twice\n"
        "error:0:0: an organism needs at least one emotion element\n"
    )


@pytest.mark.parametrize("source,generated,where", COLLISIONS, ids=[name for _, name, _ in COLLISIONS])
def test_validate_refuses_a_generated_name_collision_as_build_does(source, generated, where, tmp_path, capsys):
    ort = tmp_path / "collide.ort"
    ort.write_text(source)
    message = (
        "error: spec failed validation:\n"
        f"error:{where}: generated name '{generated}' collides with an existing neuron\n"
    )
    assert main(["validate", str(ort)]) == EXIT_DOMAIN
    assert capsys.readouterr() == ("", message)
    assert main(["build", str(ort), "--out", str(tmp_path / "o")]) == EXIT_DOMAIN
    assert capsys.readouterr() == ("", message)
    assert not (tmp_path / "o").exists()


def test_validate_reports_unreadable_numbers_with_a_position(tmp_path, capsys):
    bad = tmp_path / "bad.ort"
    bad.write_text("element sX { type: sensory }\nelement eY { type: emotion threshold: .e5 }\n")
    assert main(["validate", str(bad)]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err == "error: 2:39: malformed number '.e5'\n"


@pytest.mark.parametrize("command", ["validate", "build"])
def test_a_byte_that_is_no_utf8_is_refused_at_its_line_and_column(command, tmp_path, capsys):
    bad = tmp_path / "bad.ort"
    bad.write_bytes("element sA { type: sensory }\n# β caf".encode() + b"\xe9\n")  # column 8, byte 9
    out = [] if command == "validate" else ["--out", str(tmp_path / "o")]
    assert main([command, str(bad), *out]) == EXIT_DOMAIN
    assert capsys.readouterr() == ("", "error: 2:8: byte 0xe9 is not UTF-8\n")
    assert not (tmp_path / "o").exists()


def test_validate_applies_overrides(capsys):
    assert main(["validate", "ortus.ort", "--set", "build.sci_cap=3"]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert "error:" in captured.err and "exceeding the cap of 3" in captured.err
    assert captured.out == ""
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
    assert capsys.readouterr().err.count(diagnostic) == 1
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


@pytest.mark.parametrize("command", ["validate", "build", "experiment"])
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
    out = [] if command == "validate" else ["--out", str(tmp_path / "ok")]

    assert main([command, *inputs, *out]) == EXIT_OK
    assert len(calls) == 1
    err = capsys.readouterr().err
    assert err.count("motor element 'mIDLE' is not referenced by any relationship") == 1

    calls.clear()
    out = [] if command == "validate" else ["--out", str(tmp_path / "capped")]
    code = main([command, *inputs, *out, "--set", "build.sci_cap=3"])
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
        "sim.gj_mode=sideways",  # neither symmetric nor paper-literal
        "run.weight_snapshot_every=-1",  # fails the run config's validation
        "run.weight_snapshot_every=2.5",  # not an integer
        "sim.conservation_tolerance=-1",  # would fail every checked step
        "build.sei_weight=1.5",  # the plasticity clip would move an immutable weight
        "build.eei_mutability=-0.5",  # likewise
        "plasticity.slope_window=4",  # the slope windows would reach past the history
        "plasticity.xcorr_window=0",  # no correlation window to sum
        "plasticity.xcorr_window=-3",  # likewise
        "plasticity.max_lag=0",  # no lag to correlate over
        "plasticity.rapid_rate=-0.01",  # each strengthening class would weaken
        "plasticity.slow_rate=-0.001",  # likewise
        "physio.initial_co2=5",  # outside the activation range
        "physio.initial_o2=-1.5",  # likewise
        "build.generated_threshold=5",  # a threshold outside [0, 1) once ran to a nan probe ratio
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


def test_a_protocol_byte_that_is_no_utf8_is_refused_before_any_file_is_written(tmp_path, capsys):
    proto = tmp_path / "bad.protocol"
    proto.write_bytes(b"steps 5\n# caf\xe9\n")
    assert main(["experiment", "ortus.ort", str(proto), "--out", str(tmp_path / "o")]) == EXIT_DOMAIN
    assert capsys.readouterr() == ("", f"error: {proto}:2: byte 0xe9 is not UTF-8\n")
    assert not (tmp_path / "o").exists()


def test_a_non_ascii_name_writes_the_same_bytes_under_an_ascii_locale(tmp_path):
    # the files are read and written as UTF-8 whatever the locale says
    ort = tmp_path / "beta.ort"
    ort.write_bytes("element mβ { type: motor }\n".encode() + asset_path("ortus.ort").read_bytes())
    outputs = {}
    for name, locale in LOCALES.items():
        done = subprocess.run(
            [sys.executable, "-m", "ortus", "experiment", str(ort), "fear_conditioning.protocol", "--out", name],
            cwd=tmp_path, env=ortus_env(**locale), capture_output=True, timeout=120,
        )
        assert done.returncode == EXIT_OK, done.stderr
        outputs[name] = read_dir(tmp_path / name)
    assert outputs["posix"] == outputs["utf8"]
    assert "\n0,mβ,motor,".encode() in outputs["utf8"]["neurons.csv"]


def test_export_prints_the_bytes_it_writes_under_an_ascii_locale(tmp_path):
    # stdout is written as UTF-8 whatever the locale says, as connectome.dot is
    ort = tmp_path / "beta.ort"
    ort.write_bytes(asset_path("ortus.ort").read_bytes().replace(b"sH2O", "sβ".encode()))
    assert main(["export", str(ort), "--out", str(tmp_path / "dot")]) == EXIT_OK
    written = (tmp_path / "dot" / "connectome.dot").read_bytes()
    assert 'label="sβ"'.encode() in written
    for locale in LOCALES.values():
        done = subprocess.run(
            [sys.executable, "-m", "ortus", "export", str(ort)],
            env=ortus_env(**locale), capture_output=True, timeout=120,
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout == written


def test_the_probe_line_is_utf8_on_an_ascii_stdout(tmp_path, monkeypatch):
    ort = tmp_path / "beta.ort"
    ort.write_bytes(asset_path("ortus.ort").read_bytes().replace(b"eFEAR", "eβ".encode()))
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    argv = ["experiment", str(ort), "fear_conditioning.protocol", "--headline", "eβ", "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_OK
    stdout.flush()
    assert stdout.buffer.getvalue() == (
        "probe eβ peak ratio: 4.7824580767148515\n".encode()
        + f"experiment complete -> {tmp_path / 'o'}\n".encode()
    )


def ascii_locale_run(tmp_path, ort_bytes, argv):
    """``python -m ortus`` on a copy of the bundled organism, with the
    protocol and ``--out o``, under an ASCII locale."""
    ort = tmp_path / "beta.ort"
    ort.write_bytes(ort_bytes)
    done = subprocess.run(
        [sys.executable, "-m", "ortus", argv[0], str(ort), "fear_conditioning.protocol", "--out", "o", *argv[1:]],
        cwd=tmp_path, env=ortus_env(**LOCALES["posix"]), capture_output=True, timeout=120,
    )
    assert done.returncode == EXIT_OK, done.stderr
    return done


def test_a_non_ascii_headline_from_argv_is_read_as_utf8_under_an_ascii_locale(tmp_path):
    ort = asset_path("ortus.ort").read_bytes().replace(b"eFEAR", "eβ".encode())
    done = ascii_locale_run(tmp_path, ort, ["experiment", "--headline", "eβ"])
    assert done.stdout.startswith("probe eβ peak ratio: 4.7824580767148515\n".encode())


def test_a_non_ascii_set_value_from_argv_is_read_as_utf8_under_an_ascii_locale(tmp_path):
    ort = asset_path("ortus.ort").read_bytes().replace(b"LUNG", "Lβ".encode())
    ascii_locale_run(tmp_path, ort, ["run", "--set", "physio.lung_name=Lβ"])
    assert "\nphysio.lung_name = Lβ\n".encode() in (tmp_path / "o" / "config.resolved").read_bytes()


BETA_OUT = "oβ".encode() + b"\xff"  # no UTF-8 as a whole, and printed as its own bytes all the same
BETA_STDOUT = {  # the command's words after the organism, and its stdout, %s standing for BETA_OUT
    "validate": ([], b"ok: 8 elements, 8 relationships\n"),
    "build": (["--out", BETA_OUT], b"built 32 neurons, 58 chemical synapses, 14 gap junctions -> %s\n"),
    "export": (["--out", BETA_OUT], b"wrote %s/connectome.dot\n"),
    "run": (["beta.protocol", "--out", BETA_OUT], b"ran 700 steps -> %s\n"),
    "experiment": (
        ["beta.protocol", "--headline", "eβ", "--out", BETA_OUT],
        "probe eβ peak ratio: 4.7824580767148515\nexperiment complete -> %s\n".encode(),
    ),
}


@pytest.mark.parametrize("command", BETA_STDOUT)
def test_each_command_prints_the_same_bytes_under_an_ascii_locale(command, tmp_path):
    # stdout is UTF-8 whatever the locale says, and a path from argv is its own bytes
    beta = {b"sH2O": "sβ".encode(), b"eFEAR": "eβ".encode()}
    for name, asset in (("beta.ort", "ortus.ort"), ("beta.protocol", "fear_conditioning.protocol")):
        text = asset_path(asset).read_bytes()
        for old, new in beta.items():
            text = text.replace(old, new)
        (tmp_path / name).write_bytes(text)
    words, stdout = BETA_STDOUT[command]
    for locale in LOCALES.values():
        done = subprocess.run(
            [sys.executable, "-m", "ortus", command, "beta.ort", *words],
            cwd=tmp_path, env=ortus_env(**locale), capture_output=True, timeout=120,
        )
        assert (done.returncode, done.stderr) == (EXIT_OK, b"")
        assert done.stdout == stdout.replace(b"%s", BETA_OUT)


def run_without_a_reader(argv: list[str], cwd: Path, stdout: str = "reader_gone"):
    """``python ARGV`` whose stdout nobody reads: a pipe whose reader has gone
    (as under ``| head -c 0``), or fd 1 closed before the start."""
    argv = [sys.executable, *argv]
    if stdout == "fd1_closed":
        return subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", *argv], cwd=cwd, env=ortus_env(), stderr=subprocess.PIPE, timeout=120
        )
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(argv, cwd=cwd, env=ortus_env(), stdout=write, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write)


@pytest.mark.parametrize("stdout", ["reader_gone", "fd1_closed"])
def test_a_closed_stdout_costs_the_experiment_no_file(stdout, tmp_path):
    argv = ["experiment", "ortus.ort", "fear_conditioning.protocol", "--out"]
    assert main([*argv, str(tmp_path / "read")]) == EXIT_OK
    done = run_without_a_reader(["-m", "ortus", *argv, "unread"], tmp_path, stdout)
    assert (done.returncode, done.stderr) == (EXIT_OK, b"")
    written = read_dir(tmp_path / "unread")
    assert set(written) == EXPERIMENT_FILES
    assert written == read_dir(tmp_path / "read")


@pytest.mark.parametrize("stdout", ["reader_gone", "fd1_closed"])
def test_export_to_a_closed_stdout_is_no_error(stdout, tmp_path):
    done = run_without_a_reader(["-m", "ortus", "export", "ortus.ort"], tmp_path, stdout)
    assert (done.returncode, done.stderr) == (EXIT_OK, b"")


def test_once_the_reader_has_gone_stdout_stays_quiet_to_the_exit_flush(tmp_path):
    # text left for stdout after main returns goes nowhere, and exit flushes it quietly
    code = (
        "import sys\n"
        "from ortus.cli import main\n"
        "code = main(['export', 'ortus.ort'])\n"
        "print('more')\n"
        "sys.exit(code)\n"
    )
    done = run_without_a_reader(["-c", code], tmp_path)
    assert (done.returncode, done.stderr) == (EXIT_OK, b"")


def test_a_bundled_experiment_never_imports_numpy_ma(tmp_path):
    # numpy.ma comes in with the first np.unique call and costs about 1.6 MB of RSS
    argv = ["experiment", "ortus.ort", "fear_conditioning.protocol", "--out", str(tmp_path / "o")]
    code = (
        "import sys\n"
        "from ortus.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ortus_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("module", ["ortus", "ortus.cli"])
def test_python_dash_m_runs_the_cli(module):
    done = subprocess.run(
        [sys.executable, "-m", module, "--help"], capture_output=True, text=True, env=ortus_env(), timeout=60
    )
    assert done.returncode == 0
    assert "experiment" in done.stdout
    assert "RuntimeWarning" not in done.stderr


def test_set_coerces_by_the_default_type():
    cfgs = apply_overrides(
        Configs(),
        [
            "sim.gj_mode=paper-literal",
            "sim.activation_clamp=off",
            "run.weight_snapshot_every=0",
            "build.sci_cap=8",
            "plasticity.rapid_rate=0.02",
            "physio.lung_name=LUNG2",
        ],
    )
    assert cfgs.run.sim.gj_mode == "paper-literal"
    assert cfgs.run.sim.activation_clamp is False
    assert cfgs.run.weight_snapshot_every == 0
    assert cfgs.build.sci_cap == 8
    assert cfgs.run.plasticity.rapid_rate == 0.02
    assert cfgs.run.physio.lung_name == "LUNG2"


def test_config_resolved_round_trips_through_set(tmp_path):
    """Every line of ``config.resolved``, fed back as ``--set key=value``,
    resolves to the same bytes: each namespace's keys, a string setting and a
    boolean included."""
    first, again = tmp_path / "first", tmp_path / "again"
    changed = ["--set", "sim.gj_mode=paper-literal", "--set", "sim.activation_clamp=off"]
    assert main(["build", "ortus.ort", "--out", str(first), *changed]) == EXIT_OK
    text = (first / "config.resolved").read_text()
    assert "sim.gj_mode = paper-literal\n" in text and "sim.activation_clamp = False\n" in text
    assert {line.partition(".")[0] for line in text.splitlines()} == set(Configs().sections())
    argv = [arg for line in text.splitlines() for arg in ("--set", line.replace(" = ", "=", 1))]
    assert main(["build", "ortus.ort", "--out", str(again), *argv]) == EXIT_OK
    assert (again / "config.resolved").read_bytes() == text.encode()


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "ortus.ort", "--threads", "4"],
        # the one spelling is --set run.plasticity_enabled=false
        ["run", "ortus.ort", "fear_conditioning.protocol", "--no-plasticity"],
        ["experiment", "ortus.ort", "fear_conditioning.protocol", "--no-plasticity"],
    ],
)
def test_removed_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    flag = next(arg for arg in argv if arg.startswith("--"))
    assert flag in capsys.readouterr().err


def test_plasticity_switched_off_freezes_weights(tmp_path):
    proto = tmp_path / "p.protocol"
    proto.write_text(
        "steps 120\nat 10..60 inject sH2O 0.8\nat 10..60 block respiration\n"
    )
    out_on, out_off = tmp_path / "on", tmp_path / "off"
    assert main(["run", "ortus.ort", str(proto), "--out", str(out_on)]) == EXIT_OK
    off = ["--set", "run.plasticity_enabled=false"]
    assert main(["run", "ortus.ort", str(proto), "--out", str(out_off), *off]) == EXIT_OK
    assert "run.plasticity_enabled = False" in (out_off / "config.resolved").read_text()

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
    # the probe's ePLEASURE peak (-0.1427) is below zero, as is the
    # control's (-0.0816): a ratio to a peak at or below zero is nan
    assert "probe ePLEASURE peak ratio: nan\n" in capsys.readouterr().out
    summary = (out / "summary.csv").read_text().splitlines()
    assert "control_peak,ePLEASURE,590,630,-0.08163573336574897" in summary
    assert summary[-1] == "probe_peak_ratio,ePLEASURE,,,nan"


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
    "override",
    [
        "plasticity.rapid_rate=nan",
        "plasticity.rapid_rate=inf",
        "physio.co2_production=nan",
        "build.eei_gj_weight=inf",
        "sim.conservation_tolerance=inf",
    ],
)
def test_run_rejects_a_non_finite_override_before_running(tmp_path, capsys, override):
    out = tmp_path / "o"
    code = main(["run", "ortus.ort", "fear_conditioning.protocol", "--out", str(out), "--set", override])
    assert code == EXIT_DOMAIN
    name = override.split(".", 1)[1].split("=")[0]
    assert f"{name} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override", ["physio.o2_name=sCO2", "physio.lung_name=sO2"])
def test_physiology_roles_must_be_distinct(tmp_path, capsys, override):
    proto = tmp_path / "p.protocol"
    proto.write_text("steps 30\n")
    out = tmp_path / "o"
    assert main(["run", "ortus.ort", str(proto), "--out", str(out), "--set", override]) == EXIT_DOMAIN
    assert "three distinct elements" in capsys.readouterr().err
    assert not out.exists()


def test_the_lung_is_rebound_by_set_alone_and_summarized_as_rebound(tmp_path, capsys):
    out = tmp_path / "exp"
    overrides = ["--set", "physio.lung_name=mINHALE"]
    assert main(["experiment", "ortus.ort", "fear_conditioning.protocol", "--out", str(out), *overrides]) == EXIT_OK
    rows = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()]
    breathing = [row[:2] for row in rows if row[0] in ("peak_count", "interval_mean", "interval_cv")]
    assert breathing == [["peak_count", "mINHALE"], ["interval_mean", "mINHALE"], ["interval_cv", "mINHALE"]]
    assert "physio.lung_name = mINHALE\n" in (out / "config.resolved").read_text()

    proto = tmp_path / "p.protocol"
    proto.write_text("steps 30\nphysiology sCO2 sO2 mINHALE\n")
    out = tmp_path / "o"
    assert main(["experiment", "ortus.ort", str(proto), "--out", str(out)]) == EXIT_DOMAIN
    assert f"{proto}:2: unknown directive 'physiology'" in capsys.readouterr().err
    assert not out.exists()


def test_a_protocol_that_injects_nothing_has_no_probe(tmp_path, capsys, organism_net):
    text = "steps 100\nat 10..20 clamp sH2O 0.5\n"
    result = experiment(organism_net, parse_protocol(text, organism_net))
    assert result.ratio is None
    assert [(row.metric, row.neuron) for row in result.rows] == [
        ("peak_count", "LUNG"), ("interval_mean", "LUNG"), ("interval_cv", "LUNG")
    ]
    proto = tmp_path / "p.protocol"
    proto.write_text(text)
    out = tmp_path / "exp"
    assert main(["experiment", "ortus.ort", str(proto), "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == f"experiment complete -> {out}\n"  # no ratio line
    assert (out / "summary.csv").read_text() == metrics_csv(result.rows)


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


def summary_of(tmp_path, name, text):
    proto = tmp_path / f"{name}.protocol"
    proto.write_text(text)
    out = tmp_path / name
    assert main(["experiment", "ortus.ort", str(proto), "--out", str(out)]) == EXIT_OK
    return (out / "summary.csv").read_text()


def test_experiment_summary_keeps_step_order_whatever_the_line_order(tmp_path, capsys):
    text = asset_path("fear_conditioning.protocol").read_text()
    first = "at 50..90   inject sH2O 0.8\nat 50..90   block respiration exhale inhale\n"
    second = "at 150..190 inject sH2O 0.8\nat 150..190 block respiration exhale inhale\n"
    assert first + second in text
    moved = text.replace(first + second, second + first)
    assert summary_of(tmp_path, "moved", moved) == summary_of(tmp_path, "bundled", text)


def test_experiment_summary_has_one_row_per_burst_window(tmp_path, capsys):
    text = asset_path("fear_conditioning.protocol").read_text()
    paired_with_o2 = text.replace("block respiration exhale inhale", "inject sO2 0.8")
    rows = [line.split(",") for line in summary_of(tmp_path, "o2", paired_with_o2).splitlines()]
    bursts = [row[2:4] for row in rows if row[0] == "peak"][:-1]  # the last is the probe
    assert bursts == [["50", "105"], ["150", "205"], ["250", "305"], ["350", "405"]]
    assert "probe eFEAR peak ratio: 4.7824580767148515\n" in capsys.readouterr().out


def test_experiment_refuses_a_tie_for_the_probe(tmp_path, capsys):
    proto = tmp_path / "p.protocol"
    proto.write_text("steps 100\nat 10..20 inject sH2O 0.8\nat 10..20 inject sCO2 0.5\n")
    out = tmp_path / "exp"
    assert main(["experiment", "ortus.ort", str(proto), "--out", str(out)]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "ambiguous probe" in err and "step 10" in err
    assert "'inject sH2O 0.8'" in err and "'inject sCO2 0.5'" in err
    assert not out.exists()


def test_experiment_refuses_a_zero_step_protocol_before_writing(tmp_path, capsys):
    proto = tmp_path / "p.protocol"
    proto.write_text("steps 0\n")
    out = tmp_path / "exp"
    assert main(["experiment", "ortus.ort", str(proto), "--out", str(out)]) == EXIT_DOMAIN
    assert f"{proto}:1: steps must lie in [1, inf), got 0" in capsys.readouterr().err
    assert not out.exists()
