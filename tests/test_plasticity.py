"""Correlation-gated weight updates.

The scalar reference rule in ``oracles`` (lagged cosine similarity,
short-window regression slope, four-way classification) is pinned with
hand-computed values; the vectorized engine, ``plasticity_step``, must agree
with it synapse for synapse.
"""

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ortus import BuildConfig, build, parse_source, plasticity, protocol
from ortus.connectome import ChemicalSynapse
from ortus.dsl import Layer
from ortus.errors import ConfigError
from ortus.kernel import NetView
from ortus.plasticity import (
    CERTIFICATE_MARGIN,
    H_LEN,
    ZERO_NORM,
    PlasticityConfig,
    _lag_sums,
    _slope_sums,
    plasticity_step,
)
from oracles import (
    Classification,
    InsufficientHistory,
    apply_updates,
    brute_cos,
    brute_slope,
    classify,
    lag_sums_by_neuron,
    lagged_xcorr,
    make_net,
    plasticity_step_uncertified,
    slope,
    slope_abs_sum,
    slope_sums_by_neuron,
    xcorr_lag_sum,
)

# newest sample first, as the runner hands the last trace rows to plasticity_step
H_POST = np.array([0.5, 0.4, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01])
H_PRE = np.array([0.45, 0.5, 0.42, 0.33, 0.2, 0.12, 0.06, 0.02])

FROZEN_XCORR = {
    1: 0.9993350693779111,
    2: 0.9946377672787922,
    3: 0.975983717013533,
    4: 0.9572946193992719,
}
FROZEN_LAG_SUM = 3.927251173069508


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


@pytest.mark.parametrize("value", ["x", None, True, [0.01]])
@pytest.mark.parametrize("name", ["rapid_rate", "weaken_xcorr_max", "activity_threshold"])
def test_config_rejects_what_is_no_number(name, value):
    # checked before math.isfinite, which raises TypeError on a str or None
    with pytest.raises(ConfigError, match="^" + re.escape(f"{name} must be a number, got {value!r}")):
        PlasticityConfig(**{name: value})


@pytest.mark.parametrize("value", [2.5, 3.0, True, "4", None, [4]])
@pytest.mark.parametrize("name", ["xcorr_window", "max_lag", "slope_window"])
def test_window_sizes_must_be_integers(name, value):
    # they size the strided window views; a float would fail inside the pass,
    # and the other windows' bounds are worked out from max_lag
    with pytest.raises(ConfigError, match="^" + re.escape(f"{name} must be an integer, got {value!r}")):
        PlasticityConfig(**{name: value})


@pytest.mark.parametrize("slope_window", [0, 4, 9])
def test_slope_windows_stay_inside_the_history_ring(slope_window):
    # max_lag 4 leaves rows for a 3-step window at most; 0 steps fit no slope
    with pytest.raises(ConfigError, match="slope_window"):
        PlasticityConfig(slope_window=slope_window)
    assert PlasticityConfig(slope_window=3).slope_window == 3


@pytest.mark.parametrize("windows", [{}, {"xcorr_window": 1, "slope_window": 1}])
def test_a_lag_that_leaves_no_slope_fit_is_refused_by_name(windows):
    # max_lag 7 leaves one row of the history, and a slope fit needs two, so
    # no window fits: the refusal names max_lag, not the window it empties
    with pytest.raises(ConfigError, match="^" + re.escape("max_lag must lie in [1, 6], got 7") + "$"):
        PlasticityConfig(max_lag=7, **windows)
    assert max(shape.max_lag for shape in WINDOW_SHAPES) == 6


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


def oracle_classes(net, history, cfg):
    """Each synapse's class from the scalar rule; the current activation is
    the history's newest row, as in every run."""
    a = history[0]
    return [classify(a[s.pre], a[s.post], history[:, s.pre], history[:, s.post], cfg) for s in net.chem]


@pytest.mark.parametrize("all_mutable", [False, True])
def test_plasticity_step_matches_oracle(organism_net, all_mutable):
    # with every synapse mutable, each classification shows in the weights
    net = organism_net
    if all_mutable:
        net = replace(net, chem=[replace(s, mutability=1.0) for s in net.chem])
    view = NetView.of(net)
    rng = np.random.default_rng(4)
    cfg = PlasticityConfig()
    for _ in range(20):
        history = rng.uniform(-1, 1, (H_LEN, view.n))
        weights = rng.uniform(0, 1, len(net.chem))
        want = apply_updates(weights, oracle_classes(net, history, cfg), view.syn_mi, cfg)
        np.testing.assert_allclose(plasticity_step(history, weights, view, cfg), want, atol=1e-15)


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
    assert sum(nr.layer is Layer.SENSORY for nr in net.neurons) == 5
    rng = np.random.default_rng(6)
    cfg = PlasticityConfig()
    seen = set()
    for _ in range(20):
        history = mixed_history(net.n, rng)  # about 20% of the neurons sit at or below threshold
        weights = rng.uniform(0, 1, len(net.chem))
        edge = rng.uniform(size=len(weights))
        weights[edge < 0.15] = 0.0
        weights[edge > 0.85] = 1.0
        before = [history.copy(), weights.copy()]
        classes = oracle_classes(net, history, cfg)
        out = plasticity_step(history, weights, view, cfg)
        np.testing.assert_allclose(out, apply_updates(weights, classes, view.syn_mi, cfg), atol=1e-15)
        for x, was in zip((history, weights), before):  # no input is written
            assert x.tobytes() == was.tobytes()
        a = history[0]
        live = (view.syn_mi > 0) & (a[view.syn_pre] > cfg.activity_threshold) & (
            a[view.syn_post] > cfg.activity_threshold
        )
        np.testing.assert_array_equal(out[~live], weights[~live])
        assert (out is weights) == (out.tobytes() == weights.tobytes())  # copied only on a change
        seen.update(c for c, ok in zip(classes, live) if ok)
    assert seen == set(Classification)


def test_live_pairs_at_their_bounds_hand_the_same_weights_on(five_sensor_net):
    # every strengthening target already at the cap, every weakening one at
    # 0: the pass evaluates live pairs but changes no byte, so copies nothing
    view = NetView.of(five_sensor_net)
    rng = np.random.default_rng(11)
    cfg = PlasticityConfig()
    for _ in range(10):
        history = mixed_history(view.n, rng)
        classes = oracle_classes(five_sensor_net, history, cfg)
        weaken = np.array([c is Classification.SLOW_WEAKEN for c in classes])
        weights = np.where(weaken, 0.0, 1.0)
        live = (view.syn_mi > 0) & np.array([c is not Classification.NONE for c in classes])
        assert live.any()
        assert plasticity_step(history, weights, view, cfg) is weights


# (pre, post) histories, newest sample first, that classify one way each
CLASS_HISTORIES = {
    Classification.RAPID_STRENGTHEN: (np.full(8, 0.5), np.full(8, 0.5)),
    Classification.SLOW_STRENGTHEN: (np.linspace(0.8, 0.1, 8), np.linspace(0.8, 0.1, 8)),
    Classification.SLOW_WEAKEN: (
        np.array([0.6, 0.0, 0.0, 0.0, 0.0, 0.6, 0.0, 0.0]),
        np.array([0.6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
    ),
    Classification.NONE: (
        np.array([0.5, 0.4, 0.5, 0.4, 0.5, 0.4, 0.5, 0.4]),
        np.array([0.5, 0.1, 0.5, 0.1, 0.5, 0.1, 0.5, 0.1]),
    ),
}


@pytest.mark.parametrize("old", [-0.0, 0.0, 1.0])
def test_weight_clamp_has_np_clips_bits_under_every_rate(old):
    # one pair per class, so the four rates (rapid, slow, -slow, 0) all land
    # on a weight built as -0.0, 0.0 or 1.0
    classes = list(CLASS_HISTORIES)
    chem = [ChemicalSynapse(2 * i, 2 * i + 1, old, 1.0, 0.7) for i in range(len(classes))]
    view = NetView.of(make_net(2 * len(classes), chem))
    history = np.stack([h for c in classes for h in CLASS_HISTORIES[c]], axis=1)
    a = history[0]
    assert [classify(a[s.pre], a[s.post], history[:, s.pre], history[:, s.post]) for s in chem] == classes
    want = np.clip(view.syn_w0 + np.array([0.01, 0.001, -0.001, 0.0]) * view.syn_mi, 0.0, 1.0)
    got = plasticity_step(history, view.syn_w0, view)
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got).any()  # even from -0.0


def test_band_edges_belong_to_the_middle_band():
    # both edges are strict: a lag sum equal to weaken_xcorr_max or to
    # strengthen_xcorr_min leaves the weight alone, one ulp past either moves it
    view = NetView.of(make_net(2, [ChemicalSynapse(0, 1, 0.5, 1.0, 1.0)]))
    history = np.stack(CLASS_HISTORIES[Classification.NONE], axis=1)  # pre column, then post
    xs = float(_lag_sums(history, PlasticityConfig())[0])
    assert 0.05 < xs < 3.5

    def learned(**band):
        return plasticity_step(history, view.syn_w0, view, PlasticityConfig(**band))[0]

    assert learned(weaken_xcorr_max=xs) == 0.5
    assert learned(strengthen_xcorr_min=xs) == 0.5
    assert learned(weaken_xcorr_max=math.nextafter(xs, math.inf)) == 0.5 - 0.001
    assert learned(strengthen_xcorr_min=math.nextafter(xs, -math.inf)) == 0.5 + 0.001


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
        got, want = _lag_sums(win, cfg), lag_sums_by_neuron(history, pre, post, cfg)
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == want.tobytes()
        got, want = _slope_sums(win, cfg), slope_sums_by_neuron(history, cfg)[both]
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == want.tobytes()


def window_shapes():
    """Every (xcorr_window, max_lag, slope_window) that PlasticityConfig
    accepts, with ordered classification bands that fit any lag count."""
    shapes = []
    for w, lags, u in itertools.product(range(H_LEN + 1), repeat=3):
        bands = dict(weaken_xcorr_max=0.05, strengthen_xcorr_min=0.875 * lags, rapid_xcorr_min=0.98 * lags)
        try:
            shapes.append(PlasticityConfig(xcorr_window=w, max_lag=lags, slope_window=u, **bands))
        except ConfigError:
            pass
    return shapes


WINDOW_SHAPES = window_shapes()
# With slope_window >= 3 the oracle's matrix product adds a slope's terms in
# another order than the engine's running sum.  Such a sum stays below 4 (at
# most 4 slopes of |value| <= 0.8), so 1e-15 allows two of its ulps (ulp(2)
# is 4.4e-16).  With coefficients -1, 0, 1 or +-0.5 every product and the one
# sum are exact, so those shapes match bit for bit.
SLOPE_ATOL = 1e-15


def test_window_shapes_are_all_the_legal_ones():
    assert len(WINDOW_SHAPES) == 112
    assert PlasticityConfig() in WINDOW_SHAPES


@pytest.mark.parametrize(
    "cfg", WINDOW_SHAPES, ids=lambda c: f"w{c.xcorr_window}-lag{c.max_lag}-u{c.slope_window}"
)
def test_every_window_shape_matches_the_oracles(cfg, organism_net):
    rng = np.random.default_rng([cfg.xcorr_window, cfg.max_lag, cfg.slope_window])
    for n, k in [(1, 1), (3, 40), (60, 400)]:
        for _ in range(3):
            history = edge_history(n, rng)
            pre, post = rng.integers(0, n, k), rng.integers(0, n, k)
            both = np.concatenate((pre, post))
            win = history.take(both, axis=1)
            got, want = _lag_sums(win, cfg), lag_sums_by_neuron(history, pre, post, cfg)
            assert got.tobytes() == want.tobytes()
            got, want = _slope_sums(win, cfg), slope_sums_by_neuron(history, cfg)[both]
            if cfg.slope_window <= 2:
                assert got.tobytes() == want.tobytes()
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=SLOPE_ATOL)
    # the whole pass, with weights at both bounds so the cap rule is exercised
    net = replace(organism_net, chem=[replace(s, mutability=1.0) for s in organism_net.chem])
    view = NetView.of(net)
    history = mixed_history(view.n, rng)
    weights = rng.choice([0.0, 0.3, 1.0], len(net.chem))
    want = apply_updates(weights, oracle_classes(net, history, cfg), view.syn_mi, cfg)
    np.testing.assert_allclose(plasticity_step(history, weights, view, cfg), want, rtol=0, atol=1e-15)
    assert_certified_as_uncertified(cfg, rng)


def test_plasticity_step_without_a_live_pair_hands_the_weights_on(organism_net):
    rng = np.random.default_rng(5)
    view = NetView.of(organism_net)
    history = rng.uniform(-1, 1, (H_LEN, view.n))
    history[0] = PlasticityConfig().activity_threshold  # no pair above it now, whatever came before
    assert plasticity_step(history, view.syn_w0, view) is view.syn_w0


# ---------------------------------------------------------------------------
# the held-pair certificate
# ---------------------------------------------------------------------------


def certificate_bounds(history, pre, post, cfg):
    """The certificate's lower bound on each (pre[i], post[i]) pair's lag
    sum, as plasticity_step works it out; NaN where a neuron has a sample
    outside [ZERO_NORM, 1]."""
    lo, hi = history.min(axis=0), history.max(axis=0)
    ok = (lo >= ZERO_NORM) & (hi <= 1.0)
    rho = np.full(len(lo), np.nan)
    rho[ok] = lo[ok] / hi[ok]
    return rho[pre] * rho[post] * (cfg.max_lag * (1.0 - CERTIFICATE_MARGIN))


def with_bands(shape, weaken):
    """`shape`'s windows with weaken_xcorr_max at `weaken`, the rapid band at
    max_lag and the strengthening one between; None where they cannot be ordered."""
    strengthen = (weaken + shape.max_lag) / 2
    if not weaken < strengthen:
        strengthen = math.nextafter(weaken, math.inf)
    try:
        return replace(shape, weaken_xcorr_max=weaken, strengthen_xcorr_min=strengthen, rapid_xcorr_min=shape.max_lag)
    except ConfigError:
        return None


EDGE_SAMPLES = [0.0, -0.0, ZERO_NORM, math.nextafter(ZERO_NORM, 0.0), 1.0, math.nextafter(1.0, 2.0), 1.5, -0.5]


@st.composite
def certificate_cases(draw):
    """A hand-wired net, histories and weights, mostly held at 1.0, and a
    config whose weaken_xcorr_max is free, at most 0, or at one pair's
    certificate bound or lag sum or one ulp either side of either."""
    shape = draw(st.sampled_from(WINDOW_SHAPES))
    n = draw(st.integers(2, 5))
    columns = []
    for _ in range(n):
        kind = draw(st.sampled_from(["constant", "steady", "positive", "mixed", "edge"]))
        if kind == "constant":  # rho is 1, so the bound is max_lag, and the lag sum may round below it
            column = [draw(st.floats(0.21, 1.0))] * H_LEN
        elif kind == "steady":
            base = draw(st.floats(0.25, 1.0))
            column = [min(1.0, base * (1.0 + draw(st.floats(-1e-3, 1e-3)))) for _ in range(H_LEN)]
        else:
            samples = {
                "positive": st.floats(ZERO_NORM, 1.0),
                "mixed": st.floats(-1.0, 1.0),
                "edge": st.sampled_from(EDGE_SAMPLES),
            }[kind]
            column = draw(st.lists(samples, min_size=H_LEN, max_size=H_LEN))
            if draw(st.booleans()):
                column[0] = draw(st.floats(0.21, 1.0))  # above the activity threshold now
        columns.append(column)
    history = np.array(columns).T.copy()
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=8))
    chem = [ChemicalSynapse(i, j, 1.0, 1.0, draw(st.sampled_from([1.0, 0.9, 0.0]))) for i, j in pairs]
    weights = np.array([draw(st.sampled_from([1.0, 1.0, 1.0, 0.5, 0.0, math.nextafter(1.0, 0.0)])) for _ in chem])
    kind = draw(st.sampled_from(["free", "nonpositive", "bound", "lag sum"]))
    if kind == "free":
        weaken = draw(st.floats(-shape.max_lag, 0.9 * shape.max_lag))
    elif kind == "nonpositive":
        weaken = draw(st.sampled_from([0.0, -0.0, -1e-300, -0.25, -float(shape.max_lag)]))
    else:
        j = draw(st.integers(0, len(pairs) - 1))
        pre, post = np.array(pairs).T
        if kind == "bound":
            edge = float(certificate_bounds(history, pre, post, shape)[j])
        else:
            edge = float(_lag_sums(history.take([pre[j], post[j]], axis=1), shape)[0])
        assume(math.isfinite(edge))
        weaken = draw(st.sampled_from([edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]))
    cfg = with_bands(shape, weaken)
    assume(cfg is not None)
    return make_net(n, chem), history, weights, cfg


@settings(max_examples=400, deadline=None)
@given(certificate_cases())
def test_the_certified_pass_equals_the_uncertified_one_byte_for_byte(case):
    net, history, weights, cfg = case
    view = NetView.of(net)
    got = plasticity_step(history, weights, view, cfg)
    want = plasticity_step_uncertified(history, weights, view, cfg)
    assert got.tobytes() == want.tobytes()
    assert (got is weights) == (want is weights)


def anti_history(rng, n):
    """Columns active now whose earlier samples take either sign, half of
    them flipped against the newest, so that held pairs weaken below 0."""
    h = rng.uniform(0.3, 1.0, (H_LEN, n))
    h[1:, : n // 2] *= -1.0
    h[1:, rng.uniform(size=n) < 0.2] = ZERO_NORM / 2
    return h


def assert_certified_as_uncertified(shape, rng):
    """Every pair held at 1.0, with weaken_xcorr_max at, below and above 0
    and one ulp around some pairs' bounds: the certified pass moves the same
    bytes as the uncertified one, and certifies some pair."""
    n = 12
    pre, post = rng.integers(0, n, 40), rng.integers(0, n, 40)
    view = NetView.of(make_net(n, [ChemicalSynapse(i, j, 1.0, 1.0, 0.9) for i, j in zip(pre, post)]))
    skipped = 0
    for history in (anti_history(rng, n), mixed_history(n, rng), rng.uniform(0.5, 1.0, (H_LEN, n))):
        bounds = certificate_bounds(history, pre, post, shape)
        finite = bounds[np.isfinite(bounds)]
        near = [x for b in finite[:3] for x in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf))]
        weakens = [0.05, 0.0, -0.0, -0.5] + near
        for cfg in filter(None, (with_bands(shape, w) for w in weakens)):
            got = plasticity_step(history, view.syn_w0, view, cfg)
            want = plasticity_step_uncertified(history, view.syn_w0, view, cfg)
            assert got.tobytes() == want.tobytes()
            assert (got is view.syn_w0) == (want is view.syn_w0)
            skipped += int((bounds >= cfg.weaken_xcorr_max).sum())
    assert skipped > 0


def test_a_held_pair_whose_lag_sum_rounds_below_the_bound_is_not_certified():
    # Two constant histories give rho = 1 and an exact bound of max_lag, but
    # the computed lag sum can round below it: with weaken_xcorr_max just
    # above that sum the pair weakens, so the margin has to keep it live.
    shape = next(c for c in WINDOW_SHAPES if (c.xcorr_window, c.max_lag) == (7, 1))
    rng = np.random.default_rng(3)
    for _ in range(1000):
        history = np.tile(rng.uniform(0.21, 1.0, 2), (H_LEN, 1))
        xs = float(_lag_sums(history, shape)[0])
        if xs < math.nextafter(math.nextafter(1.0, 0.0), 0.0):
            break
    cfg = with_bands(shape, math.nextafter(xs, math.inf))
    assert certificate_bounds(history, [0], [1], cfg)[0] < cfg.weaken_xcorr_max <= 1.0
    view = NetView.of(make_net(2, [ChemicalSynapse(0, 1, 1.0, 1.0, 0.9)]))
    got = plasticity_step(history, view.syn_w0, view, cfg)
    assert got.tobytes() == plasticity_step_uncertified(history, view.syn_w0, view, cfg).tobytes()
    assert got.tolist() == [1.0 - 0.9 * cfg.slow_rate]


def test_a_neuron_with_a_sample_above_1_is_not_certified():
    # constant histories, so rho = 1 for both, but the presynaptic squares
    # overflow: its norms are inf, each cosine 0, and the held pair weakens
    history = np.tile([1e160, 0.5], (H_LEN, 1))
    view = NetView.of(make_net(2, [ChemicalSynapse(0, 1, 1.0, 1.0, 0.9)]))
    with np.errstate(over="ignore"):
        got = plasticity_step(history, view.syn_w0, view)
        want = plasticity_step_uncertified(history, view.syn_w0, view)
    assert got.tobytes() == want.tobytes()
    assert got.tolist() == [1.0 - 0.9 * 0.001]


def test_the_bundled_runs_take_no_lag_sum_for_a_certified_held_pair(
    organism_net, conditioning_protocol_path, monkeypatch
):
    view, cfg = NetView.of(organism_net), PlasticityConfig()
    lagged = []
    real_lag_sums, real_step = plasticity._lag_sums, protocol.plasticity_step

    def lag_sums(win, c):
        lagged.append(win.shape[1] // 2)
        return real_lag_sums(win, c)

    passes = []  # per pass: active pairs, certified held pairs, held pairs, pairs given a lag sum

    def counted(history, weights, v, c):
        above = history[0].take(view.mut_ends) > cfg.activity_threshold
        active = (above[0] & above[1]).nonzero()[0]
        pre, post = view.mut_ends[:, active]
        held = weights[view.syn_mutable[active]] == 1.0
        certified = held & (certificate_bounds(history, pre, post, cfg) >= cfg.weaken_xcorr_max)
        before = len(lagged)
        out = real_step(history, weights, v, c)
        passes.append((len(active), int(certified.sum()), int(held.sum()), sum(lagged[before:])))
        return out

    monkeypatch.setattr(plasticity, "_lag_sums", lag_sums)
    monkeypatch.setattr(protocol, "plasticity_step", counted)
    prot = protocol.load_protocol(conditioning_protocol_path, organism_net)
    protocol.run(organism_net, prot)
    protocol.run(organism_net, protocol.control_variant(prot))
    assert [lag for k, cert, _, lag in passes] == [k - cert for k, cert, _, _ in passes]
    active = [p for p in passes if p[0]]
    assert (len(passes), len(active)) == (1006, 629)
    assert sum(k for k, *_ in passes) == 4186
    assert sum(cert for _, cert, _, _ in passes) == sum(held for _, _, held, _ in passes) == 2732  # every held pair
    assert sum(lag == 0 for *_, lag in active) == 349
