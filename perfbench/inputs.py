"""Seeded inputs for the benchmark workloads.

Every input starts from the bundled organism and protocol under
``src/ortus/assets``.  The seed chooses the names of the extra sensors and
the dense protocol; nothing else varies, so the same seed always gives the
same bytes.
"""

from __future__ import annotations

import random
import string
from pathlib import Path

ASSETS = Path("src/ortus/assets")
SENSORS = 10  # the widest organism; 2**10 - 1 subsets fill the SCI cap of 1024
STEPS = 700


def bundled_organism() -> str:
    return (ASSETS / "ortus.ort").read_text()


def bundled_protocol() -> str:
    return (ASSETS / "fear_conditioning.protocol").read_text()


def extra_sensor_names(seed: int, count: int = SENSORS - 3) -> list[str]:
    """Distinct lower-case names, none of which can clash with an element of
    the bundled organism (those all carry upper-case letters)."""
    rng = random.Random(f"sensors:{seed}")
    names: list[str] = []
    while len(names) < count:
        name = "s" + "".join(rng.choice(string.ascii_lowercase) for _ in range(5))
        if name not in names:
            names.append(name)
    return names


def organism(extra: list[str]) -> str:
    """The bundled organism with unconnected sensors declared after sH2O, so
    the SCI layer expands over them as well."""
    decls = "".join(
        f"element {name:<9} {{ type: sensory  threshold: 0.01 }}\n" for name in extra
    )
    lines = bundled_organism().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith("element sH2O")) + 1
    return "".join(lines[:at] + [decls] + lines[at:])


def dense_protocol(seed: int, extra: list[str]) -> str:
    """About forty overlapping 20-60 step injections over the non-gas
    sensors, four respiration blocks, and a lone sH2O probe last in both file
    order and time (the control run keeps only that probe)."""
    rng = random.Random(f"dense:{seed}")
    sensors = ["sH2O"] + extra
    lines = [f"steps {STEPS}", ""]
    for _ in range(40):
        length = rng.randint(20, 60)
        start = rng.randint(10, 560 - length)
        lines.append(f"at {start}..{start + length} inject {rng.choice(sensors)} 0.8")
    for block in range(4):
        start = 40 + 130 * block + rng.randint(0, 40)
        lines.append(f"at {start}..{start + 40} block respiration exhale inhale")
    lines.append("")
    lines.append("at 600..640 inject sH2O 0.8")
    return "\n".join(lines) + "\n"


def generate(workload: str, seed: int) -> dict[str, str]:
    """File name -> text of every input the workload hands to the program."""
    if workload == "bundled":
        return {"organism.ort": bundled_organism(), "experiment.protocol": bundled_protocol()}
    extra = extra_sensor_names(seed)
    if workload == "wide":
        return {"organism.ort": organism(extra), "experiment.protocol": bundled_protocol()}
    if workload == "dense":
        return {"organism.ort": organism(extra), "experiment.protocol": dense_protocol(seed, extra)}
    raise ValueError(f"unknown workload {workload!r}")
