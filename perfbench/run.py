"""The ortus benchmark: end-to-end timings and, traced, a per-layer split.

    python3 perfbench/run.py --workload bundled|wide|dense --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-golden

Run it from the root of a checkout; it imports ``ortus`` from ``src/``.
Workloads (BENCHMARK.json gates ``bundled`` and ``dense`` and says why):

- ``bundled``: ``ortus experiment`` on the bundled organism and protocol.
- ``wide``: the same command on the bundled organism plus seven extra
  sensors (3,094 neurons), bundled protocol.  Not gated: at two 13-20 s
  experiments per run its timings spread by more than any allowed bound on a
  shared two-core host, so it is for runs by hand with a longer ``--seconds``.
- ``dense``: the ``wide`` organism built with ``eei_initial_weight=0.3`` and
  a seeded protocol, run in process with no files written.

The seed picks the extra sensor names and the dense protocol.  One process
drives everything and starts one child at a time (``child.py``), with the
BLAS thread pools pinned to one thread.  With ``--trace 0`` it samples
set-up alone a few times, then repeats whole experiments until ``--seconds``
is used up (two at least) and prints the median of each timing and the
run's overall simulation rate.  With ``--trace 1`` it alternates untraced and
traced experiments, then runs the sensor sweep, and prints the per-layer
metrics.  Every experiment's outputs are checked by SHA-256 against
``golden.json`` when the inputs are the stored ones, else against the run's
first experiment.  The last line of stdout is the result as JSON.

``--write-golden`` stores the digests of one experiment per workload at the
default seed; rerun it only when a change is meant to alter the outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 0
WORKLOADS = ("bundled", "wide", "dense")
SETUP_PROBES = 2
MIN_EXPERIMENTS = 2
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WRITER_OUTPUTS = ("trace.csv", "weights.csv", "markers.csv")  # what TraceLog.write_csv writes
RATIO_PREFIX = "probe eFEAR peak ratio: "
# Per-layer counts derived from the returned TraceLog, the connectome and the
# output files rather than timed; they repeat exactly from run to run.
COMPUTED = {
    "connectome.neurons", "connectome.chem_synapses", "connectome.mutable_synapses",
    "connectome.gap_junctions", "kernel.synapse_evals", "plasticity.active_steps",
    "plasticity.pairs_evaluated", "plasticity.active_mutable", "plasticity.useful_ratio",
    "plasticity.weights_changed", "protocol.bytes_written",
}


class BenchError(Exception):
    pass


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Bench:
    """One workload's generated inputs, work directory and children."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.work = root / ".perfbench_tmp" / str(os.getpid())
        self.work.mkdir(parents=True, exist_ok=True)
        self.outdir = self.work / "out"
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]))
        self.env.update({var: "1" for var in BLAS_THREAD_VARS})
        self.input_digests = {}
        self.input_paths = []
        for name, text in inputs.generate(workload, seed).items():
            path = self.work / name
            path.write_text(text)
            self.input_paths.append(str(path.relative_to(root)))
            self.input_digests[name] = hashlib.sha256(text.encode()).hexdigest()
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        stored = golden.get(workload)
        self.reference = stored if stored and stored["inputs"] == self.input_digests else None
        if workload == "dense":
            self.child_args = ["dense", *self.input_paths]
        else:
            self.child_args = ["cli", *self.input_paths, str(self.outdir)]

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        parent = self.work.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()

    def spawn(self, *args: str) -> dict:
        """Run one child to exit; returns its JSON plus wall time and peak RSS."""
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with out_path.open("w") as out, err_path.open("w") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), *args],
                cwd=self.root, env=self.env, stdout=out, stderr=err,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            t_exit = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = err_path.read_text().strip().splitlines()[-5:]
            raise BenchError(f"child {' '.join(args)} exited with {proc.returncode}: " + " | ".join(tail))
        lines = out_path.read_text().splitlines()
        data = json.loads(lines[-1])
        data.update(t_spawn=t_spawn, wall_s=t_exit - t_spawn, peak_rss_mb=usage.ru_maxrss / 1024.0)
        ratio = [ln[len(RATIO_PREFIX):] for ln in lines if ln.startswith(RATIO_PREFIX)]
        if ratio:
            data["probe_ratio"] = ratio[0]
        return data

    def setup_probe(self) -> float:
        data = self.spawn(*self.child_args, "--setup-only")
        return data["t_first_run"] - data["t_spawn"]

    def experiment(self, traced: bool = False) -> dict:
        """One whole experiment in a fresh child, with its outputs' digests."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        data = self.spawn(*self.child_args, *(["--trace"] if traced else []))
        if self.workload == "dense":
            # Spawn to the end of the in-process experiment; hashing the logs comes after.
            data["wall_s"] = data["t_end"] - data["t_spawn"]
            data["bytes_written"] = 0
        else:
            files = sorted(p for p in self.outdir.iterdir() if p.is_file())
            data["outputs"] = {p.name: sha256_file(p) for p in files}
            data["bytes_written"] = sum(p.stat().st_size for p in files if p.name.endswith(WRITER_OUTPUTS))
            shutil.rmtree(self.outdir)
        data["setup_s"] = data["t_first_run"] - data["t_spawn"]
        data["experiment_s"] = data["t_end"] - data["t_first_run"]
        return data

    def check(self, runs: list[dict]) -> list[bool]:
        """Each experiment's outputs and probe ratio against the stored
        digests, or, for inputs with none stored, against the first run."""
        expected = self.reference or runs[0]
        return [r["outputs"] == expected["outputs"] and r.get("probe_ratio") == expected["probe_ratio"] for r in runs]


def summary(values: list[float]) -> dict:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n > 10:
        out["tail"] = {"pct": 100.0 * (n - 10) / n, "value": ordered[n - 11]}
    return out


def environment(numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads_in_child": {var: "1" for var in BLAS_THREAD_VARS},
        "blas_threads_in_parent": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def room_for_another(deadline: float, durations: list[float], minimum: int) -> bool:
    """Whether to start another sample: always up to `minimum`, then while
    at least half of a typical sample fits before the deadline, so that runs
    end near the deadline on average and overrun it by half a sample at most."""
    if len(durations) < minimum:
        return True
    return time.monotonic() + statistics.median(durations) / 2 <= deadline


def measure(bench: Bench, seconds: float) -> tuple[dict, dict, int, int]:
    """Untraced: set-up probes, then whole experiments until the time is used."""
    deadline = time.monotonic() + seconds
    setups = [bench.setup_probe() for _ in range(SETUP_PROBES)]
    runs, durations = [], []
    while room_for_another(deadline, durations, MIN_EXPERIMENTS):
        t0 = time.monotonic()
        runs.append(bench.experiment())
        durations.append(time.monotonic() - t0)
    ok = bench.check(runs)
    setups += [r["setup_s"] for r in runs]
    stats = {
        "wall_s": (summary([r["wall_s"] for r in runs]), "s"),
        "setup_s": (summary(setups), "s"),
        "experiment_s": (summary([r["experiment_s"] for r in runs]), "s"),
        "peak_rss_mb": (summary([r["peak_rss_mb"] for r in runs]), "MB"),
    }
    metrics = {name: {"value": s["median"], "unit": unit} for name, (s, unit) in stats.items()}
    # A rate over the whole run: every simulated step over all host seconds spent in protocol.run.
    rate = sum(r["run_steps"] for r in runs) / sum(r["run_s"] for r in runs)
    metrics["steps_per_s"] = {"value": rate, "unit": "1/s"}
    metrics["outputs_ok"] = {"value": sum(ok) / len(ok), "unit": "ratio"}
    info = {name: s for name, (s, _) in stats.items()}
    info["probe_ratio"] = runs[0]["probe_ratio"]
    info["numpy"] = runs[0]["numpy"]
    return metrics, info, len(runs), len(runs) - sum(ok)


def measure_traced(bench: Bench, seconds: float, seed: int) -> tuple[dict, dict, int, int]:
    """Untraced and traced experiments in pairs, then the sensor sweep."""
    deadline = time.monotonic() + seconds
    bench.setup_probe()
    plain, traced, durations = [], [], []
    while room_for_another(deadline, durations, 1):
        t0 = time.monotonic()
        plain.append(bench.experiment())
        traced.append(bench.experiment(traced=True))
        durations.append(time.monotonic() - t0)
    sweep = bench.spawn("sweep", str(seed))["sweep"]
    runs = plain + traced
    ok = bench.check(runs)

    counts = traced[0]["counts"]
    if any(t["counts"] != counts for t in traced):
        raise BenchError(f"learning counts differ between traced runs: {[t['counts'] for t in traced]}")

    def layer(name: str, key: str = "s") -> float:
        values = [t["layers"][name][key] if name in t["layers"] else 0.0 for t in traced]
        return statistics.median(values)

    def calls(name: str) -> int:
        return traced[0]["layers"].get(name, {}).get("calls", 0)

    kernel_calls, plasticity_calls = calls("kernel.step"), calls("plasticity.step")
    write_s = layer("protocol.write")
    bytes_written = traced[0]["bytes_written"]
    experiment_s = statistics.median(t["experiment_s"] for t in traced)
    covered_s = statistics.median(t["covered_s"] for t in traced)
    m = {
        "cli.import_s": (statistics.median(t["import_s"] for t in traced), "s"),
        "dsl.parse_s": (layer("dsl.parse"), "s"),
        "dsl.validate_s": (layer("dsl.validate"), "s"),
        "connectome.build_s": (layer("connectome.build"), "s"),
        "connectome.write_s": (layer("connectome.write"), "s"),
        "connectome.neurons": (counts["neurons"], "count"),
        "connectome.chem_synapses": (counts["chem_synapses"], "count"),
        "connectome.mutable_synapses": (counts["mutable_synapses"], "count"),
        "connectome.gap_junctions": (counts["gap_junctions"], "count"),
        "kernel.step_s": (layer("kernel.step"), "s"),
        "kernel.us_per_step": (1e6 * layer("kernel.step") / kernel_calls, "us"),
        "kernel.calls": (kernel_calls, "count"),
        "kernel.synapse_evals": (kernel_calls * counts["chem_synapses"], "count"),
        "plasticity.step_s": (layer("plasticity.step"), "s"),
        "plasticity.us_per_step": (1e6 * layer("plasticity.step") / plasticity_calls, "us"),
        "plasticity.calls": (plasticity_calls, "count"),
        "plasticity.active_steps": (counts["active_steps"], "count"),
        "plasticity.pairs_evaluated": (counts["pairs_evaluated"], "count"),
        "plasticity.active_mutable": (counts["active_mutable"], "count"),
        "plasticity.useful_ratio": (counts["active_mutable"] / max(1, counts["pairs_evaluated"]), "ratio"),
        "plasticity.weights_changed": (counts["weights_changed"], "count"),
        "physiology.s": (layer("physiology"), "s"),
        "physiology.calls": (calls("physiology"), "count"),
        "protocol.run_s": (layer("protocol.run"), "s"),
        "protocol.loop_self_s": (layer("protocol.run", "self_s"), "s"),
        "protocol.summarize_s": (layer("protocol.summarize"), "s"),
        "protocol.write_s": (write_s, "s"),
        "protocol.bytes_written": (bytes_written, "B"),
        "protocol.write_mb_per_s": (bytes_written / 1e6 / write_s if write_s else 0.0, "MB/s"),
        "tracing.overhead_s": (
            statistics.median(t["wall_s"] for t in traced) - statistics.median(p["wall_s"] for p in plain), "s"
        ),
        "tracing.coverage": (covered_s / experiment_s, "ratio"),
    }
    m.update({name: (us, "us") for name, us in sweep["us_per_step"].items()})
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
    info = {"traced_runs": len(traced), "sweep_sizes": sweep["size"], "probe_ratio": traced[0]["probe_ratio"],
            "numpy": traced[0]["numpy"]}
    return metrics, info, len(runs), len(runs) - sum(ok)


def write_golden(root: Path) -> None:
    golden = {"seed": GOLDEN_SEED}
    for workload in WORKLOADS:
        bench = Bench(root, workload, GOLDEN_SEED)
        try:
            run = bench.experiment()
        finally:
            bench.close()
        golden[workload] = {"inputs": bench.input_digests, "outputs": run["outputs"], "probe_ratio": run["probe_ratio"]}
        print(f"{workload}: probe ratio {run['probe_ratio']}")
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(root)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="store the output digests of every workload at the default seed")
    args = parser.parse_args()
    # On SIGTERM the benchmark still stops and reaps its child (see Bench.spawn).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "ortus" / "cli.py").is_file():
        print(f"benchmark: no ortus sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.write_golden:
        write_golden(root)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    bench = Bench(root, args.workload, args.seed)
    try:
        if args.trace:
            metrics, info, attempted, failed = measure_traced(bench, args.seconds, args.seed)
        else:
            metrics, info, attempted, failed = measure(bench, args.seconds)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("inputs: " + ", ".join(f"{name} sha256={d}" for name, d in bench.input_digests.items()))
    print("outputs checked against " + ("stored digests" if bench.reference else "the run's first experiment"))
    print(f"probe eFEAR peak ratio: {info['probe_ratio']}")
    for name, metric in metrics.items():
        line = f"{name} = {metric['value']!r} {metric['unit']}"
        if name in info:
            line += f"  (median of n={info[name]['n']}"
            if "tail" in info[name]:
                line += f"; p{info[name]['tail']['pct']:.0f} = {info[name]['tail']['value']!r}"
            line += ")"
        if name in COMPUTED:
            line += "  [computed, not measured]"
        print(line)
    print("info " + json.dumps({"environment": environment(info.pop("numpy")), **info}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
