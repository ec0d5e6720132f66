"""Shared fixtures: the bundled organism, compiled once per session, and a
loader for the benchmark's modules under ``perfbench/``."""

import importlib.util
import sys
from pathlib import Path

import pytest

from ortus import BuildConfig, build, parse_source
from ortus.cli import asset_path

ASSETS = Path(asset_path("ortus.ort")).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="session")
def organism_source() -> str:
    return (ASSETS / "ortus.ort").read_text()


@pytest.fixture(scope="session")
def organism_spec(organism_source):
    return parse_source(organism_source)


@pytest.fixture(scope="session")
def organism_net(organism_spec):
    return build(organism_spec, BuildConfig())


@pytest.fixture(scope="session")
def conditioning_protocol_path() -> Path:
    return ASSETS / "fear_conditioning.protocol"


@pytest.fixture()
def load_perfbench(monkeypatch):
    """Load ``perfbench/<name>.py`` as a module without running its ``main``
    and without a bytecode cache, so nothing under ``perfbench/`` is written."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)

    def load(name):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load
