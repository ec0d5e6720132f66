"""Correlation-gated weight updates.

The scalar reference rule in ``oracles`` (lagged cosine similarity,
short-window regression slope, four-way classification) is pinned with
hand-computed values; the vectorized engine, ``plasticity_step``, must agree
with it synapse for synapse.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ortus import BuildConfig, build, parse_source
from ortus.errors import ConfigError
from ortus.kernel import H_LEN, NetView, SimState
from ortus.plasticity import ZERO_NORM, PlasticityConfig, _lag_sums, _slope_sums, plasticity_step
from oracles import (
    Classification,
    InsufficientHistory,
    apply_updates,
    classify,
    lag_sums_by_neuron,
    lagged_xcorr,
    slope,
    slope_abs_sum,
    slope_sums_by_neuron,
    xcorr_lag_sum,
)

# newest sample first, as the kernel stores history
H_POST = np.array([0.5, 0.4, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01])
H_PRE = np.array([0.45, 0.5, 0.42, 0.33, 0.2, 0.12, 0.06, 0.02])

FROZEN_XCORR = {
    1: 0.9993350693779111,
    2: 0.9946377672787922,
    3: 0.975983717013533,
    4: 0.9572946193992719,
}
FROZEN_LAG_SUM = 3.927251173069508


def brute_cos(x, y):
    nx = math.sqrt(math.fsum(v * v for v in x))
    ny = math.sqrt(math.fsum(v * v for v in y))
    if nx < 1e-12 or ny < 1e-12:
        return 0.0
    return math.fsum(a * b for a, b in zip(x, y)) / (nx * ny)


def brute_slope(h, t=0, u=2):
    seg = list(h[t : t + u + 1])
    xs = list(range(len(seg)))
    xbar = sum(xs) / len(xs)
    ybar = math.fsum(seg) / len(seg)
    num = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, seg))
    den = math.fsum((x - xbar) ** 2 for x in xs)
    return -(num / den)


# ---------------------------------------------------------------------------
# correlation and slope primitives
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lag", [1, 2, 3, 4])
def test_lagged_xcorr_frozen(lag):
    assert lagged_xcorr(H_POST, H_PRE, lag) == pytest.approx(FROZEN_XCORR[lag], abs=1e-12)


def test_xcorr_lag_sum_frozen():
    assert xcorr_lag_sum(H_POST, H_PRE, PlasticityConfig()) == pytest.approx(
        FROZEN_LAG_SUM, abs=1e-12
    )


def test_xcorr_identical_flat_histories_saturate():
    flat = np.full(8, 0.42)
    assert xcorr_lag_sum(flat, flat, PlasticityConfig()) == pytest.approx(4.0, abs=1e-12)


def test_xcorr_zero_norm_guard():
    dead = np.zeros(8)
    assert lagged_xcorr(H_POST, dead, 1) == 0.0
    assert lagged_xcorr(dead, H_POST, 1) == 0.0


def test_xcorr_needs_enough_history():
    with pytest.raises(InsufficientHistory):
        lagged_xcorr(H_POST[:5], H_PRE[:5], 4)


def test_slope_frozen_values():
    assert slope(H_POST) == pytest.approx(0.1, abs=1e-12)
    assert slope(H_PRE, t=2) == pytest.approx(0.11, abs=1e-12)


def test_slope_is_midpoint_difference_for_default_window():
    # least squares over three points collapses to (y0 - y2) / 2
    for t in range(1, 5):
        assert slope(H_PRE, t=t) == pytest.approx((H_PRE[t] - H_PRE[t + 2]) / 2, abs=1e-12)


def test_slope_sign_convention():
    rising_toward_present = np.array([0.9, 0.6, 0.3, 0.1, 0.0, 0.0, 0.0, 0.0])
    assert slope(rising_toward_present) > 0
    falling_toward_present = np.array([0.0, 0.1, 0.3, 0.6, 0.9, 0.9, 0.9, 0.9])
    assert slope(falling_toward_present) < 0


def test_slope_abs_sum_frozen():
    assert slope_abs_sum(H_PRE, PlasticityConfig()) == pytest.approx(0.37, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=8, max_size=8),
    st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=8, max_size=8),
    st.integers(min_value=1, max_value=4),
)
def test_xcorr_always_in_unit_interval(xs, ys, lag):
    v = lagged_xcorr(np.array(xs), np.array(ys), lag)
    assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12
    assert v == pytest.approx(brute_cos(xs[0:4], ys[lag : lag + 4]), abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=8, max_size=8),
    st.integers(min_value=0, max_value=5),
)
def test_slope_matches_brute_force(h, t):
    assert slope(np.array(h), t=t) == pytest.approx(brute_slope(h, t), abs=1e-9)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_flat_coactive_pair_classifies_rapid():
    flat = np.full(8, 0.5)
    assert classify(0.5, 0.5, flat, flat) is Classification.RAPID_STRENGTHEN


def test_activity_gate_silences_everything():
    flat = np.full(8, 0.5)
    cfg = PlasticityConfig()
    assert classify(cfg.activity_threshold, 0.5, flat, flat) is Classification.NONE
    assert classify(0.5, cfg.activity_threshold, flat, flat) is Classification.NONE


def test_correlated_but_moving_pair_strengthens_slowly():
    moving = np.array([0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1])
    assert xcorr_lag_sum(moving, moving, PlasticityConfig()) > 3.92
    assert slope_abs_sum(moving, PlasticityConfig()) > 0.02
    assert classify(0.8, 0.8, moving, moving) is Classification.SLOW_STRENGTHEN


def test_uncorrelated_pair_weakens():
    # chosen so every lagged window of h_pre is orthogonal to h_post[0:4]
    h_post = np.array([0.6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    h_pre = np.array([0.6, 0.0, 0.0, 0.0, 0.0, 0.6, 0.0, 0.0])
    assert xcorr_lag_sum(h_post, h_pre, PlasticityConfig()) < 0.05
    assert classify(0.6, 0.6, h_pre, h_post) is Classification.SLOW_WEAKEN


def test_middle_band_does_nothing():
    h_post = np.array([0.5, 0.1, 0.5, 0.1, 0.5, 0.1, 0.5, 0.1])
    h_pre = np.array([0.5, 0.4, 0.5, 0.4, 0.5, 0.4, 0.5, 0.4])
    xs = xcorr_lag_sum(h_post, h_pre, PlasticityConfig())
    assert 0.05 <= xs <= 3.5
    assert classify(0.5, 0.5, h_pre, h_post) is Classification.NONE


def test_classification_band_edges():
    cfg = PlasticityConfig()
    assert cfg.rapid_xcorr_min == 3.92
    assert cfg.rapid_slope_max == 0.02
    assert cfg.weaken_xcorr_max == 0.05
    assert cfg.strengthen_xcorr_min == 3.5
    assert cfg.rapid_rate == 0.01
    assert cfg.slow_rate == 0.001


def test_config_band_ordering_validated():
    with pytest.raises(Exception):
        PlasticityConfig(weaken_xcorr_max=3.6, strengthen_xcorr_min=3.5)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name",
    [
        "rapid_xcorr_min",
        "rapid_slope_max",
        "weaken_xcorr_max",
        "strengthen_xcorr_min",
        "rapid_rate",
        "slow_rate",
        "activity_threshold",
    ],
)
def test_config_rejects_non_finite_numbers(name, value):
    # a NaN threshold would switch learning off and an infinite rate would
    # write NaN weights (0 * inf), both without a word
    with pytest.raises(ConfigError, match=f"^{name} must be finite"):
        PlasticityConfig(**{name: value})


@pytest.mark.parametrize("slope_window", [0, 4, 9])
def test_slope_windows_stay_inside_the_history_ring(slope_window):
    # max_lag 4 leaves rows for a 3-step window at most; 0 steps fit no slope
    with pytest.raises(ConfigError, match="slope_window"):
        PlasticityConfig(slope_window=slope_window)
    assert PlasticityConfig(slope_window=3).slope_window == 3


# ---------------------------------------------------------------------------
# weight updates
# ---------------------------------------------------------------------------


def test_apply_updates_rates_and_mutability():
    cfg = PlasticityConfig()
    weights = np.array([0.5, 0.5, 0.5, 0.5])
    classes = [
        Classification.RAPID_STRENGTHEN,
        Classification.SLOW_STRENGTHEN,
        Classification.SLOW_WEAKEN,
        Classification.NONE,
    ]
    mut = np.array([1.0, 1.0, 0.5, 1.0])
    out = apply_updates(weights, classes, mut, cfg)
    np.testing.assert_allclose(out, [0.51, 0.501, 0.4995, 0.5])
    # immutable synapses never move
    frozen = apply_updates(weights, classes, np.zeros(4), cfg)
    np.testing.assert_allclose(frozen, weights)


def test_apply_updates_clamps_to_unit_interval():
    cfg = PlasticityConfig()
    up = apply_updates(np.array([0.9999]), [Classification.RAPID_STRENGTHEN], np.array([1.0]), cfg)
    assert up[0] == 1.0
    down = apply_updates(np.array([0.0004]), [Classification.SLOW_WEAKEN], np.array([1.0]), cfg)
    assert down[0] == 0.0


# ---------------------------------------------------------------------------
# vectorized engine vs the scalar reference
# ---------------------------------------------------------------------------


def random_state(view, rng):
    state = SimState.initial(view)
    state.activation = rng.uniform(-1, 1, view.n)
    state.history = rng.uniform(-1, 1, (8, view.n))
    state.step = 8
    return state


@pytest.mark.parametrize("all_mutable", [False, True])
def test_plasticity_step_matches_oracle(organism_net, all_mutable):
    # with every synapse mutable, each classification shows in the weights
    view = NetView.of(organism_net)
    if all_mutable:
        view = replace(view, syn_mi=np.ones(len(view.syn_mi)))
    rng = np.random.default_rng(4)
    cfg = PlasticityConfig()
    for _ in range(20):
        state = random_state(view, rng)
        state.weights = rng.uniform(0, 1, len(organism_net.chem))
        classes = [
            classify(
                state.activation[syn.pre],
                state.activation[syn.post],
                state.history[:, syn.pre],
                state.history[:, syn.post],
                cfg,
            )
            for syn in organism_net.chem
        ]
        want = apply_updates(state.weights, classes, view.syn_mi, cfg)
        np.testing.assert_allclose(plasticity_step(state, view, cfg), want, atol=1e-15)


# two unconnected sensors declared after sH2O, so that the SCI layer expands
# over five sensors (31 subsets) and the EEI layer with it
EXTRA_SENSORS = (
    "element swade     { type: sensory  threshold: 0.01 }\n"
    "element sglint    { type: sensory  threshold: 0.01 }\n"
)


@pytest.fixture(scope="module")
def five_sensor_net(organism_source):
    lines = organism_source.splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith("element sH2O")) + 1
    return build(parse_source("".join(lines[:at]) + EXTRA_SENSORS + "".join(lines[at:])), BuildConfig())


def mixed_history(n, rng):
    """Noise, nearly flat and ramping columns, so that every class occurs."""
    h = rng.uniform(-1, 1, (H_LEN, n))
    kind = rng.integers(0, 3, n)
    flat, ramp = kind == 1, kind == 2
    h[:, flat] = rng.uniform(0.3, 0.9, flat.sum()) + rng.normal(0, 1e-4, (H_LEN, flat.sum()))
    h[:, ramp] = np.linspace(0.9, 0.2, H_LEN)[:, None] * rng.uniform(0.5, 1.0, ramp.sum())
    return h


def test_sparse_pass_matches_oracle_beyond_bundled_organism(five_sensor_net):
    net = five_sensor_net
    view = NetView.of(net)
    assert len(net.sensor_ids) == 5
    rng = np.random.default_rng(6)
    cfg = PlasticityConfig()
    seen = set()
    for _ in range(20):
        state = random_state(view, rng)  # about 60% of the neurons sit at or below threshold
        state.history = mixed_history(net.n, rng)
        weights = rng.uniform(0, 1, len(net.chem))
        edge = rng.uniform(size=len(weights))
        weights[edge < 0.15] = 0.0
        weights[edge > 0.85] = 1.0
        state.weights = weights.copy()
        classes = [
            classify(
                state.activation[syn.pre],
                state.activation[syn.post],
                state.history[:, syn.pre],
                state.history[:, syn.post],
                cfg,
            )
            for syn in net.chem
        ]
        out = plasticity_step(state, view, cfg)
        np.testing.assert_allclose(out, apply_updates(weights, classes, view.syn_mi, cfg), atol=1e-15)
        np.testing.assert_array_equal(state.weights, weights)  # the input is not written
        a = state.activation
        live = (view.syn_mi > 0) & (a[view.syn_pre] > cfg.activity_threshold) & (
            a[view.syn_post] > cfg.activity_threshold
        )
        np.testing.assert_array_equal(out[~live], weights[~live])
        assert (out is state.weights) == (out.tobytes() == weights.tobytes())  # copied only on a change
        seen.update(c for c, ok in zip(classes, live) if ok)
    assert seen == set(Classification)


def test_live_pairs_at_their_bounds_hand_the_same_weights_on(five_sensor_net):
    # every strengthening target already at the cap, every weakening one at
    # 0: the pass evaluates live pairs but changes no byte, so copies nothing
    view = NetView.of(five_sensor_net)
    rng = np.random.default_rng(11)
    cfg = PlasticityConfig()
    for _ in range(10):
        state = random_state(view, rng)
        state.history = mixed_history(view.n, rng)
        a, h = state.activation, state.history
        classes = [classify(a[s.pre], a[s.post], h[:, s.pre], h[:, s.post], cfg) for s in five_sensor_net.chem]
        weaken = np.array([c is Classification.SLOW_WEAKEN for c in classes])
        state.weights = np.where(weaken, 0.0, 1.0)
        live = (view.syn_mi > 0) & np.array([c is not Classification.NONE for c in classes])
        assert live.any()
        assert plasticity_step(state, view, cfg) is state.weights


def edge_history(n, rng):
    """Noise plus the columns the guards and signs are about: zero at every
    offset, zero in the newest window only, zero in the oldest window only,
    norms straddling ZERO_NORM, and +0.0 and -0.0 samples throughout."""
    h = rng.uniform(-1, 1, (H_LEN, n))
    kind = rng.integers(0, 5, n)
    h[:, kind == 1] = 0.0
    h[:4, kind == 2] = 0.0
    h[4:, kind == 3] = 0.0
    h[:, kind == 4] *= ZERO_NORM * rng.uniform(0.2, 2.0)
    zeros = rng.uniform(size=h.shape) < 0.1
    h[zeros] = rng.choice([0.0, -0.0], zeros.sum())
    return h


@pytest.mark.parametrize("n, k", [(1, 1), (3, 1), (3, 40), (60, 1), (60, 400)])
def test_gathered_windows_equal_the_per_neuron_formulas_bit_for_bit(n, k):
    # with k > n the pairs share neurons on both sides; the windows are
    # gathered as plasticity_step does, pre columns then post in one take
    rng = np.random.default_rng(100 * n + k)
    cfg = PlasticityConfig()
    for _ in range(25):
        history = edge_history(n, rng)
        pre, post = rng.integers(0, n, k), rng.integers(0, n, k)
        both = np.concatenate((pre, post))
        win = history.take(both, axis=1)
        got, want = _lag_sums(win[:, :k], win[:, k:], cfg), lag_sums_by_neuron(history, pre, post, cfg)
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == want.tobytes()
        got, want = _slope_sums(win, cfg), slope_sums_by_neuron(history, cfg)[both]
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == want.tobytes()


def test_plasticity_step_inert_during_warmup(organism_net):
    rng = np.random.default_rng(5)
    view = NetView.of(organism_net)
    state = random_state(view, rng)
    state.step = 7  # one short of a full history ring
    out = plasticity_step(state, view)
    assert out is state.weights  # nothing written, so nothing copied
    state.step = H_LEN
    state.activation = np.full(view.n, PlasticityConfig().activity_threshold)  # no pair above it
    assert plasticity_step(state, view) is state.weights
