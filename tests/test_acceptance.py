"""Behavioral acceptance suite for the shipped organism.

Nine end-to-end criteria, one test each (three for determinism), covering: the
respiratory central pattern generator, associative fear conditioning and its
controls, the exact numeric contracts of the learning rule and the
activation kernel, generator combinatorics against a brute-force oracle,
byte-level determinism (run against run, and against the SHA-256 digests in
``perfbench/golden.json`` for the bundled and the benchmark's ``dense``
experiment), and vectorized/brute-force oracle equivalence.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict line
per criterion.
"""

import hashlib
import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ortus.cli import asset_path
from ortus.cli import main as cli_main
from ortus.connectome import ChemicalSynapse
from ortus.dsl import Layer
from ortus.kernel import NetView, SimConfig, step
from ortus.plasticity import H_LEN, PlasticityConfig, _lag_sums, _slope_sums, plasticity_step
from ortus.protocol import RunConfig, control_variant, load_protocol, parse_protocol, peak_indices, run
from oracles import Classification, classify, make_net, slope_abs_sum, xcorr_lag_sum

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def report(number, text):
    print(f"\n[PASS] criterion {number}: {text}")


# ---------------------------------------------------------------------------
# shared runs (computed once)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def free_run(organism_net):
    proto = parse_protocol("steps 600\n", organism_net)
    return run(organism_net, proto, RunConfig())


@pytest.fixture(scope="module")
def conditioning(organism_net, conditioning_protocol_path):
    return load_protocol(conditioning_protocol_path, organism_net)


@pytest.fixture(scope="module")
def conditioned_run(organism_net, conditioning):
    return run(organism_net, conditioning, RunConfig())


@pytest.fixture(scope="module")
def control_run(organism_net, conditioning):
    return run(organism_net, control_variant(conditioning), RunConfig())


@pytest.fixture(scope="module")
def ablated_run(organism_net, conditioning):
    return run(organism_net, conditioning, RunConfig(plasticity_enabled=False))


def burst_windows(protocol):
    from ortus.protocol import EventKind

    injects = [ev for ev in protocol.events if ev.kind is EventKind.INJECT]
    bursts = [(ev.start, min(ev.end + 15, protocol.total_steps)) for ev in injects[:-1]]
    probe = (injects[-1].start, injects[-1].end)
    return bursts, probe


# ---------------------------------------------------------------------------
# 1. respiratory oscillation
# ---------------------------------------------------------------------------


def test_criterion_1_respiratory_oscillation(free_run):
    lung = free_run.column("LUNG")
    peaks = peak_indices(lung)
    assert len(peaks) >= 3

    intervals = np.diff(peaks).astype(float)
    cv = intervals.std() / intervals.mean()
    assert cv < 0.2

    co2, o2 = free_run.column("sCO2"), free_run.column("sO2")
    corr = float(np.corrcoef(co2 - co2.mean(), o2 - o2.mean())[0, 1])
    assert corr < -0.5

    report(1, f"{len(peaks)} LUNG peaks, interval CV {cv:.4f}, corr(sCO2, sO2) {corr:+.3f}")


# ---------------------------------------------------------------------------
# 2. fear grows across conditioning bursts
# ---------------------------------------------------------------------------


def test_criterion_2_fear_growth(conditioned_run, conditioning):
    bursts, _ = burst_windows(conditioning)
    assert len(bursts) == 4
    fear = conditioned_run.column("eFEAR")
    peaks = [float(fear[s:e].max()) for s, e in bursts]
    for earlier, later in zip(peaks, peaks[1:]):
        assert later > earlier
    report(2, "per-burst eFEAR peaks strictly increase: " + " < ".join(f"{p:.4f}" for p in peaks))


# ---------------------------------------------------------------------------
# 3. conditioned response at least twice the control response
# ---------------------------------------------------------------------------


def test_criterion_3_conditioned_probe_response(conditioned_run, control_run, conditioning):
    _, (start, end) = burst_windows(conditioning)
    conditioned = float(conditioned_run.column("eFEAR")[start:end].max())
    control = float(control_run.column("eFEAR")[start:end].max())
    assert conditioned >= 2.0 * control
    report(
        3,
        f"probe eFEAR peak {conditioned:.4f} >= 2 x control {control:.4f}"
        f" (ratio {conditioned / control:.2f})",
    )


# ---------------------------------------------------------------------------
# 4. no growth without plasticity
# ---------------------------------------------------------------------------


def test_criterion_4_learning_ablation(ablated_run, conditioning):
    bursts, _ = burst_windows(conditioning)
    fear = ablated_run.column("eFEAR")
    peaks = [float(fear[s:e].max()) for s, e in bursts]
    ratio = peaks[3] / peaks[0]
    assert ratio < 1.1
    report(4, f"plasticity off: burst4/burst1 peak ratio {ratio:.6f} < 1.1")


# ---------------------------------------------------------------------------
# 5. the three learning rules, verified exactly
# ---------------------------------------------------------------------------


def test_criterion_5_rule_thresholds(organism_net):
    cfg = PlasticityConfig()
    hot = cfg.activity_threshold + 0.3
    cold = cfg.activity_threshold

    # constant synchronized supra-threshold pair
    flat = np.full(8, hot)
    xs = xcorr_lag_sum(flat, flat, cfg)
    ss = slope_abs_sum(flat, cfg)
    assert abs(xs - 4.0) <= 1e-9
    assert xs >= cfg.rapid_xcorr_min
    assert abs(ss) <= 1e-9 and ss <= cfg.rapid_slope_max

    # correlated pair still in motion
    moving = np.linspace(hot + 0.4, hot - 0.3, 8)
    assert slope_abs_sum(moving, cfg) > cfg.rapid_slope_max

    # orthogonal pair: no lagged window of one overlaps the other
    h_post = np.array([hot, 0, 0, 0, 0, 0, 0, 0.0])
    h_pre = np.array([hot, 0, 0, 0, 0, hot, 0, 0.0])
    assert xcorr_lag_sum(h_post, h_pre, cfg) < cfg.weaken_xcorr_max

    # the engine moves one mutable synapse of the organism, every other
    # neuron at rest, by the rate the reference rule names
    view = NetView.of(organism_net)
    k = next(i for i, syn in enumerate(organism_net.chem) if syn.mutability > 0)
    syn = organism_net.chem[k]
    chilled = np.full(8, cold)
    cases = [
        (flat, flat, Classification.RAPID_STRENGTHEN, cfg.rapid_rate),
        (moving, moving, Classification.SLOW_STRENGTHEN, cfg.slow_rate),
        (h_pre, h_post, Classification.SLOW_WEAKEN, -cfg.slow_rate),
        (chilled, chilled, Classification.NONE, 0.0),  # no update however correlated
    ]
    for pre_hist, post_hist, expected, rate in cases:
        assert classify(pre_hist[0], post_hist[0], pre_hist, post_hist, cfg) is expected
        history = np.zeros((H_LEN, view.n))  # row 0 is the current activation
        history[:, syn.pre] = pre_hist
        history[:, syn.post] = post_hist
        moved = plasticity_step(history, np.full(len(view.syn_pre), 0.5), view, cfg)[k] - 0.5
        assert moved == pytest.approx(rate * syn.mutability, abs=1e-15)

    report(5, f"flat pair sums to {xs!r}; the engine fires rapid/slow/weaken/none on their bands")


# ---------------------------------------------------------------------------
# 6. kernel numerics: conductance anchors and diffusion conservation
# ---------------------------------------------------------------------------


def kernel_conductance(a_pre):
    """The kernel's conductance at `a_pre`: one step of a synapse with unit
    weight and reversal onto a resting, never-gated, non-decaying neuron."""
    view = NetView.of(make_net(2, [ChemicalSynapse(0, 1, 1.0, 1.0, 0.0)], thresholds=[0.0, -1.0]))
    return float(step(np.array([a_pre, 0.0]), view.syn_w0, view, cfg=SimConfig(decay_fraction=0.0))[1])


def test_criterion_6_kernel_numerics(organism_net):
    assert kernel_conductance(0.0) == 0.5
    g_hi, g_lo = kernel_conductance(1.0), kernel_conductance(-1.0)
    assert 0.90 < g_hi < 0.93
    assert 0.07 < g_lo < 0.10

    # diffusion-only network: total activation is conserved step by step
    gj_only = replace(organism_net, chem=[])
    view = NetView.of(gj_only)
    rng = np.random.default_rng(2024)
    a = rng.uniform(-0.9, 0.9, gj_only.n)
    cfg = SimConfig(decay_fraction=0.0)
    worst = 0.0
    for _ in range(1000):
        before = float(a.sum())
        a = step(a, view.syn_w0, view, np.zeros(gj_only.n), cfg)
        worst = max(worst, abs(float(a.sum()) - before))
    assert worst < 1e-9
    report(
        6,
        f"g(0) = 0.5, g(+1) = {g_hi:.4f}, g(-1) = {g_lo:.4f};"
        f" worst per-step diffusion drift {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 7. generator combinatorics against a brute-force oracle
# ---------------------------------------------------------------------------


def test_criterion_7_builder_combinatorics(organism_net):
    net = organism_net
    names = {i: n.name for i, n in enumerate(net.neurons)}
    sensors = [n.name for n in net.neurons if n.layer is Layer.SENSORY]
    assert len(sensors) == 3

    # brute-force subset enumeration
    oracle = set()
    for r in range(1, len(sensors) + 1):
        for combo in itertools.combinations(sensors, r):
            oracle.add("c_" + "_".join(sorted(combo)))
    scis = [n for n in net.neurons if n.layer is Layer.SCI]
    assert {n.name for n in scis} == oracle
    assert len(scis) == 7

    fan_in = {}
    for syn in net.chem:
        if names[syn.post] in oracle and net.neurons[syn.pre].layer is Layer.SEI:
            fan_in.setdefault(names[syn.post], 0.0)
            fan_in[names[syn.post]] += syn.weight
    assert set(fan_in) == oracle
    for total in fan_in.values():
        assert abs(total - 1.0) <= 1e-9

    # dominance: exactly one EEI-level inhibitory synapse per SCI
    per_sci = {name: 0 for name in oracle}
    for syn in net.chem:
        pre, post = names[syn.pre], names[syn.post]
        if pre.startswith("xeFEAR_") and post.startswith("xePLEASURE_"):
            assert syn.reversal == -1.0
            per_sci[pre.removeprefix("xeFEAR_")] += 1
    assert all(count == 1 for count in per_sci.values())

    report(7, "7 SCIs match the subset oracle; fan-ins sum to 1; one dominance synapse per SCI")


# ---------------------------------------------------------------------------
# 8. determinism: byte-identical experiment outputs
# ---------------------------------------------------------------------------


def test_criterion_8_byte_identical_runs(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = cli_main(
            ["experiment", "ortus.ort", "fear_conditioning.protocol", "--out", str(out)]
        )
        assert code == 0
    compared = []
    for path_a in sorted(out_a.iterdir()):
        path_b = out_b / path_a.name
        assert path_b.exists()
        assert path_a.read_bytes() == path_b.read_bytes()
        compared.append(path_a.name)
    assert "trace.csv" in compared and "summary.csv" in compared
    report(8, f"two experiment runs byte-identical across {len(compared)} output files")


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_criterion_8_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())["bundled"]
    assets = {
        "organism.ort": sha256(asset_path("ortus.ort")),
        "experiment.protocol": sha256(asset_path("fear_conditioning.protocol")),
    }
    assert assets == golden["inputs"], "the bundled assets changed, not the simulator"
    out = tmp_path / "exp"
    assert cli_main(["experiment", "ortus.ort", "fear_conditioning.protocol", "--out", str(out)]) == 0
    produced = {path.name: sha256(path) for path in out.iterdir()}
    assert produced == golden["outputs"]
    report(8, f"{len(produced)} experiment outputs match the stored SHA-256 digests")


def test_dense_outputs_match_golden_digests(tmp_path, monkeypatch, load_perfbench):
    """The benchmark's ``dense`` experiment (3,094 neurons, hundreds of active
    mutable pairs per step) reproduces its stored digests and probe ratio."""
    stored = json.loads(GOLDEN.read_text())
    golden = stored["dense"]
    monkeypatch.chdir(GOLDEN.parents[1])  # the generator reads the assets by relative path
    inputs, child = load_perfbench("inputs"), load_perfbench("child")
    digests = {}
    for name, text in inputs.generate("dense", stored["seed"]).items():
        (tmp_path / name).write_text(text)
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == golden["inputs"], "the dense inputs changed, not the simulator"
    result = child.dense_experiment(str(tmp_path / "organism.ort"), str(tmp_path / "experiment.protocol"))
    assert result["outputs"] == golden["outputs"]
    assert result["probe_ratio"] == golden["probe_ratio"]
    report(8, f"dense experiment: {len(result['outputs'])} digests and probe ratio {result['probe_ratio']} match")


# ---------------------------------------------------------------------------
# 9. vectorized learning math equals brute force
# ---------------------------------------------------------------------------


def brute_cos(x, y):
    nx = math.sqrt(math.fsum(v * v for v in x))
    ny = math.sqrt(math.fsum(v * v for v in y))
    if nx < 1e-12 or ny < 1e-12:
        return 0.0
    return math.fsum(a * b for a, b in zip(x, y)) / (nx * ny)


def brute_slope(h, t, u=2):
    seg = [float(v) for v in h[t : t + u + 1]]
    xs = list(range(len(seg)))
    xbar = sum(xs) / len(xs)
    ybar = math.fsum(seg) / len(seg)
    num = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, seg))
    den = math.fsum((x - xbar) ** 2 for x in xs)
    return -(num / den)


def test_criterion_9_oracle_equivalence():
    # 1000 synapses, each from its own presynaptic to its own postsynaptic
    # neuron, so every column of one random history is an independent case
    pairs = 1000
    net = make_net(2 * pairs, [ChemicalSynapse(i, pairs + i, 0.5, 1.0, 1.0) for i in range(pairs)])
    rng = np.random.default_rng(99)
    history = rng.uniform(-1, 1, (H_LEN, 2 * pairs))
    history[:, :pairs][:, rng.uniform(size=pairs) < 0.05] = 0.0  # exercise the zero-norm guard
    cfg = PlasticityConfig()
    view = NetView.of(net)
    lag_sums = _lag_sums(history.take(np.concatenate((view.syn_pre, view.syn_post)), axis=1), cfg)
    slope_sums = _slope_sums(history, cfg)
    worst_x, worst_s = 0.0, 0.0
    for i in range(pairs):
        h_pre, h_post = history[:, i], history[:, pairs + i]
        want = math.fsum(brute_cos(h_post[0:4], h_pre[lag : lag + 4]) for lag in range(1, 5))
        worst_x = max(worst_x, abs(lag_sums[i] - want))
    for j in range(2 * pairs):
        want = math.fsum(abs(brute_slope(history[:, j], t)) for t in range(1, 5))
        worst_s = max(worst_s, abs(slope_sums[j] - want))
    assert worst_x < 1e-9
    assert worst_s < 1e-9
    report(9, f"{pairs} random synapses: max lag-sum error {worst_x:.2e}, max slope-sum error {worst_s:.2e}")
