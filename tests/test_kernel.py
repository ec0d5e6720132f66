"""Activation dynamics: graded conductances, gated chemical inflow, symmetric
gap-junction flux, and the double-buffered synchronous step.

Frozen constants below were computed independently from the closed-form
expressions (sigmoid at the reversal potentials, hand-multiplied inflows) so
regressions in the vectorized path cannot hide.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ortus.connectome import ChemicalSynapse, GapJunction
from ortus.errors import ConfigError
from ortus.kernel import ConservationError, NetView, SimConfig, _chem_terms, _gap_terms, step
from oracles import chem_terms_all_synapses, conductance, gap_terms_add_at, cs_inflow, gj_flux, make_net

# sigmoid of +/- the full activation range, frozen
G_AT_EXCIT_REVERSAL = 0.9241418199787566
G_AT_INHIB_REVERSAL = 0.07585818002124355


# ---------------------------------------------------------------------------
# scalar reference pieces
# ---------------------------------------------------------------------------


def test_conductance_at_equilibrium_is_exactly_half():
    assert conductance(0.0) == 0.5


def test_conductance_at_reversals():
    assert conductance(1.0) == pytest.approx(G_AT_EXCIT_REVERSAL, abs=1e-12)
    assert conductance(-1.0) == pytest.approx(G_AT_INHIB_REVERSAL, abs=1e-12)


def test_conductance_inverted_mirrors():
    for a in (-0.8, -0.3, 0.0, 0.4, 1.0):
        assert conductance(a, inverted=True) == pytest.approx(conductance(-a), abs=1e-15)


@given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_conductance_bounded_and_monotone(a):
    g = conductance(a)
    assert 0.0 < g < 1.0
    assert conductance(a) <= conductance(min(a + 0.1, 1.0)) + 1e-15


def test_cs_inflow_hand_computed():
    syn = ChemicalSynapse(pre=0, post=1, weight=0.7, reversal=1.0, mutability=0.0)
    # w * g(0.3) * (reversal - a_post) with a_post = 0.1
    assert cs_inflow(syn, 0.3, 0.1, threshold=0.0) == pytest.approx(
        0.42788258048049754, abs=1e-15
    )


def test_cs_inflow_gated_below_threshold():
    syn = ChemicalSynapse(0, 1, 0.7, 1.0, 0.0)
    assert cs_inflow(syn, 0.049, 0.0, threshold=0.05) == 0.0
    assert cs_inflow(syn, 0.05, 0.0, threshold=0.05) > 0.0  # >= transmits


def test_cs_inflow_inverted_drive():
    syn = ChemicalSynapse(0, 1, 0.5, -1.0, 0.0, inverted=True)
    # pre at -0.4 drives as +0.4; inflow pulls toward the inhibitory reversal
    assert cs_inflow(syn, -0.4, 0.2, threshold=0.0) == pytest.approx(
        -0.43863514717800295, abs=1e-15
    )
    # the same synapse is silent when its pre is above equilibrium
    assert cs_inflow(syn, 0.4, 0.2, threshold=0.05) == 0.0


def test_gj_flux_antisymmetric_and_halved():
    j = GapJunction(0, 1, 0.5)
    into_a, into_b = gj_flux(j, 0.8, 0.2)
    assert into_b == pytest.approx(0.5 * (0.8 - 0.2) / 2)
    assert into_a == -into_b


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), st.booleans())
def test_step_conductance_matches_oracle(a_pre, inverted):
    # a gate that always passes, unit weight and reversal, no decay, and a
    # postsynaptic neuron at rest: its next activation is the conductance
    syn = ChemicalSynapse(0, 1, 1.0, 1.0, 0.0, inverted=inverted)
    view = NetView.of(make_net(2, [syn], thresholds=[0.0, -1.0]))
    a = step(np.array([a_pre, 0.0]), view.syn_w0, view, cfg=SimConfig(decay_fraction=0.0))
    assert a[1] == pytest.approx(conductance(a_pre, inverted=inverted), abs=1e-15)


def test_built_weights_are_stored_in_synapse_order(organism_net):
    view = NetView.of(organism_net)
    np.testing.assert_array_equal(view.syn_w0, [s.weight for s in organism_net.chem])


def test_a_view_of_many_distinct_thresholds_takes_memory_linear_in_the_net():
    # 3,000 neurons, each with its own threshold, and one synapse each, every
    # other one inverted: each synapse is its own gate entry, out of
    # 2 * 3,000 * 3,000 possible (presynaptic neuron, sign, threshold) keys
    n = 3000
    chem = [ChemicalSynapse(i, (7 * i) % n, 0.5, 1.0, 0.0, inverted=i % 2 == 1) for i in range(n)]
    net = make_net(n, chem, thresholds=[i / n for i in range(n)])
    tracemalloc.start()
    try:
        view = NetView.of(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert view.ent_inverted_from == n // 2
    np.testing.assert_array_equal(view.ent_pre.take(view.syn_ent), view.syn_pre)
    np.testing.assert_array_equal(view.ent_threshold.take(view.syn_ent), [(7 * i) % n / n for i in range(n)])


# ---------------------------------------------------------------------------
# synchronous step against a straight-line reference
# ---------------------------------------------------------------------------


def reference_step(net, a, weights, inject, decay):
    """Pure-Python restatement of one synchronous update."""
    n = len(a)
    new = [0.0] * n
    cs = [0.0] * n
    for syn, w in zip(net.chem, weights):
        pre, post = syn.pre, syn.post
        drive = -a[pre] if syn.inverted else a[pre]
        if drive < net.neurons[post].threshold:
            continue
        g = 1.0 / (1.0 + math.exp(-5.0 * drive / 2.0))
        cs[post] += w * g * (syn.reversal - a[post])
    gj = [0.0] * n
    for junction in net.gap:
        f = junction.weight * (a[junction.a] - a[junction.b]) / 2.0
        gj[junction.b] += f
        gj[junction.a] -= f
    for i in range(n):
        new[i] = a[i] - decay * a[i] + gj[i] + cs[i] + inject[i]
        new[i] = min(1.0, max(-1.0, new[i]))
    return np.array(new)


def test_step_matches_reference_on_random_net():
    rng = np.random.default_rng(7)
    chem = [
        ChemicalSynapse(0, 2, 0.6, 1.0, 0.0),
        ChemicalSynapse(1, 2, 0.4, -1.0, 0.0),
        ChemicalSynapse(2, 3, 0.9, 1.0, 0.5, inverted=True),
        ChemicalSynapse(3, 0, 0.2, 1.0, 0.0),
    ]
    gap = [GapJunction(0, 1, 0.3), GapJunction(2, 3, 0.8)]
    net = make_net(4, chem, gap, thresholds=[0.0, 0.05, 0.1, 0.0])
    view = NetView.of(net)
    a = rng.uniform(-1, 1, 4)
    cfg = SimConfig()
    for _ in range(25):
        inject = rng.uniform(-0.2, 0.2, 4)
        expected = reference_step(net, a, view.syn_w0, inject, cfg.decay_fraction)
        a = step(a, view.syn_w0, view, inject, cfg)
        np.testing.assert_allclose(a, expected, atol=1e-12)


def test_step_matches_reference_on_organism(organism_net):
    rng = np.random.default_rng(11)
    view = NetView.of(organism_net)
    a = rng.uniform(-0.5, 0.5, organism_net.n)
    cfg = SimConfig()
    for _ in range(10):
        inject = rng.uniform(-0.05, 0.05, organism_net.n)
        expected = reference_step(organism_net, a, view.syn_w0, inject, cfg.decay_fraction)
        a = step(a, view.syn_w0, view, inject, cfg)
        np.testing.assert_allclose(a, expected, atol=1e-12)


def test_reads_come_from_the_previous_step_only():
    """A three-neuron chain advances one hop per step: the classic smoke test
    for double buffering."""
    chem = [ChemicalSynapse(0, 1, 0.8, 1.0, 0.0), ChemicalSynapse(1, 2, 0.8, 1.0, 0.0)]
    view = NetView.of(make_net(3, chem, thresholds=[0.0, 0.3, 0.3]))
    a = step(np.array([1.0, 0.0, 0.0]), view.syn_w0, view, np.zeros(3), SimConfig())
    assert a[1] > 0.3
    assert a[2] == 0.0  # n1 was below gate when this step read it
    a = step(a, view.syn_w0, view, np.zeros(3), SimConfig())
    assert a[2] > 0.0


def test_clamp_overrides_dynamics():
    view = NetView.of(make_net(2, [ChemicalSynapse(0, 1, 0.9, 1.0, 0.0)]))
    mask, value = np.array([False, True]), np.array([0.0, -0.25])
    a = step(np.array([0.9, 0.0]), view.syn_w0, view, None, SimConfig(), mask, value)
    assert a[1] == -0.25


def test_activations_clip_to_unit_interval():
    view = NetView.of(make_net(1))
    a = step(np.array([0.5]), view.syn_w0, view, np.array([5.0]), SimConfig())
    assert a[0] == 1.0
    a = step(a, view.syn_w0, view, np.array([-5.0]), SimConfig())
    assert a[0] == -1.0


def test_step_never_writes_its_inputs(organism_net):
    view = NetView.of(organism_net)
    rng = np.random.default_rng(8)
    a = rng.uniform(-1, 1, view.n)
    weights = rng.uniform(0, 1, len(view.syn_pre))
    inject, mask, value = rng.uniform(-0.3, 0.3, view.n), rng.uniform(size=view.n) < 0.3, np.zeros(view.n)
    for _ in range(10):
        inputs = (a, weights, inject, mask, value)
        before = [x.copy() for x in inputs]
        for x in inputs:
            x.flags.writeable = False  # a write inside step would raise
        nxt = step(a, weights, view, inject, SimConfig(check_conservation=True), mask, value)
        for x, was in zip(inputs, before):
            assert x.tobytes() == was.tobytes()
        assert isinstance(nxt, np.ndarray) and nxt.shape == (view.n,)
        assert not any(np.shares_memory(nxt, x) for x in inputs)
        a = nxt


# Levels for the "gate" draw: drives land exactly on the thresholds, and
# +0.0 and -0.0 both occur as activations and as drives.
GATE_LEVELS = np.array([-0.25, -0.0, 0.0, 0.25, 0.5])
GATE_THRESHOLDS = np.array([-0.25, 0.0, 0.25])


def chem_case(rng, kind, n=12, m=60):
    """A random wiring (shared endpoints, half the synapses inverted, weights
    including 0 and 1) and a state to evaluate it in."""
    if kind == "gate":
        a, thresholds = rng.choice(GATE_LEVELS, n), rng.choice(GATE_THRESHOLDS, n)
    else:
        a = rng.uniform(-1, 1, n)
        a[rng.uniform(size=n) < 0.2] = -0.0
        # "off" lifts every threshold above the largest possible drive
        thresholds = np.full(n, 1.5) if kind == "off" else rng.uniform(-0.5, 0.5, n)
    chem = [
        ChemicalSynapse(int(pre), int(post), 0.5, float(rev), 0.0, inverted=bool(inv))
        for pre, post, rev, inv in zip(
            rng.integers(0, n, m), rng.integers(0, n, m), rng.choice([-1.0, 1.0], m),
            rng.uniform(size=m) < 0.5,
        )
    ]
    weights = rng.choice([0.0, 0.3, 0.7, 1.0], m) * rng.uniform(0.5, 1.0, m)
    weights[rng.uniform(size=m) < 0.1] = 1.0
    return a, weights, make_net(n, chem, thresholds=list(thresholds))


@pytest.mark.parametrize("kind", ["random", "gate", "off"])
def test_gated_chem_terms_equal_the_all_synapse_formula_bit_for_bit(kind):
    rng = np.random.default_rng(["random", "gate", "off"].index(kind))
    on_gate = 0
    for _ in range(40):
        a, weights, net = chem_case(rng, kind)
        got, want = _chem_terms(a, weights, NetView.of(net)), chem_terms_all_synapses(a, weights, net)
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # signed zeros included
        on_gate += sum(
            (-a[s.pre] if s.inverted else a[s.pre]) == net.neurons[s.post].threshold for s in net.chem
        )
        if kind == "off":
            assert got.tobytes() == np.zeros(net.n).tobytes()
    if kind == "gate":
        assert on_gate > 0


# one presynaptic neuron drives a plain and an inverted synapse of each
# reversal sign into one target, so every synapse reads one of the same two
# sigmoid entries and their inflows share one sum
SHARED_SOURCE = [
    ChemicalSynapse(0, 1, 0.6, 1.0, 0.0),
    ChemicalSynapse(0, 1, 0.3, -1.0, 0.0, inverted=True),
    ChemicalSynapse(0, 1, 0.9, -1.0, 0.0),
    ChemicalSynapse(0, 1, 0.2, 1.0, 0.0, inverted=True),
]


@pytest.mark.parametrize("chem", [[], SHARED_SOURCE], ids=["no_synapse", "shared_source"])
def test_chem_terms_equal_the_oracle_on_edge_wirings(chem):
    net = make_net(3, chem, thresholds=[0.0, 0.25, 0.0])
    view = NetView.of(net)
    if chem:  # two gate entries, neuron 0 plain and then inverted at threshold 0.25, each read twice
        entries = view.ent_pre.tolist(), view.ent_inverted_from, view.ent_threshold.tolist(), view.syn_ent.tolist()
        assert entries == ([0, 0], 1, [0.25, 0.25], [0, 1, 0, 1])
    samples = [0.0, -0.0, 0.25, -0.25, 0.7, -0.7, 1.0, -1.0]
    for a0 in samples:
        for a1 in samples:
            a = np.array([a0, a1, 0.5])
            got, want = _chem_terms(a, view.syn_w0, view), chem_terms_all_synapses(a, view.syn_w0, net)
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()  # signed zeros included


def test_gate_entries_are_one_per_neuron_sign_and_threshold():
    # neuron 0 drives targets at three thresholds, -0.0 and 0.0 being one,
    # plainly and inverted, and neuron 1 one inverted target: four entries,
    # plain first, each in order of neuron, then of the threshold's first
    # neuron (0.5 at neuron 0, 0.25 at 1, -0.0 at 2)
    chem = [
        ChemicalSynapse(0, 1, 0.6, 1.0, 0.0),
        ChemicalSynapse(0, 2, 0.3, -1.0, 0.0),
        ChemicalSynapse(0, 3, 0.9, -1.0, 0.0),
        ChemicalSynapse(1, 0, 0.2, 1.0, 0.0, inverted=True),
        ChemicalSynapse(0, 1, 0.5, -1.0, 0.0, inverted=True),
        ChemicalSynapse(0, 1, 0.4, 1.0, 0.0),
    ]
    net = make_net(4, chem, thresholds=[0.5, 0.25, -0.0, 0.0])
    view = NetView.of(net)
    assert view.ent_pre.tolist() == [0, 0, 0, 1]
    assert view.ent_inverted_from == 2
    assert view.ent_threshold.tobytes() == np.array([0.25, -0.0, 0.25, 0.5]).tobytes()
    assert view.syn_ent.tolist() == [0, 1, 1, 3, 2, 0]
    samples = [0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0]
    for a0, a1 in itertools.product(samples, repeat=2):
        a = np.array([a0, a1, 0.3, -0.7])
        assert _chem_terms(a, view.syn_w0, view).tobytes() == chem_terms_all_synapses(a, view.syn_w0, net).tobytes()


@pytest.mark.parametrize("level", [400.0, 1e30])
def test_an_unclamped_step_stays_quiet_far_outside_the_reversal_range(level):
    # every drive beyond where exp overflows, plain and inverted, either
    # sign; pytest fails on a RuntimeWarning from the step, while the
    # oracle's own overflow is silenced
    net = make_net(4, SHARED_SOURCE + [ChemicalSynapse(2, 3, 0.7, -1.0, 0.0)], [GapJunction(1, 3, 0.4)])
    view = NetView.of(net)
    cfg = SimConfig(activation_clamp=False)
    for signs in itertools.product([1.0, -1.0], repeat=4):
        a = level * np.array(signs)
        got = step(a, view.syn_w0, view, cfg=cfg)
        with np.errstate(over="ignore"):
            chem = chem_terms_all_synapses(a, view.syn_w0, net)
        assert _chem_terms(a, view.syn_w0, view).tobytes() == chem.tobytes()
        want = a - cfg.decay_fraction * a
        want += gap_terms_add_at(a, net)
        want += chem
        assert got.tobytes() == want.tobytes()


def test_chem_terms_stay_quiet_where_the_sigmoid_overflows():
    # an unclamped activation of 400 gives the inverted synapse a drive of
    # -400, whose sigmoid overflows exp; pytest fails on a RuntimeWarning
    view = NetView.of(make_net(2, SHARED_SOURCE[:2]))
    a = np.array([400.0, 0.0])
    got = _chem_terms(a, view.syn_w0, view)
    assert got.tobytes() == np.array([0.0, 0.6 * 1.0 * (1.0 - 0.0)]).tobytes()  # g = 1.0, inverted gated off


@pytest.mark.parametrize(
    "chem", [[], [ChemicalSynapse(0, 1, 1.0, 1.0, 0.0)]], ids=["no_synapse", "gated_off"]
)
def test_terms_are_float64_zeros_when_nothing_flows(chem):
    # no junction, and either no synapse or one gated off below its threshold
    view = NetView.of(make_net(3, chem, thresholds=[0.0, 0.9, 0.0]))
    a = np.array([0.5, -0.0, 1.0])
    for got in (_chem_terms(a, view.syn_w0, view), _gap_terms(a, view)):
        assert got.dtype == np.float64
        assert got.tobytes() == np.zeros(3).tobytes()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=4, max_size=4))
def test_activation_stays_bounded_forever(inject):
    chem = [
        ChemicalSynapse(0, 1, 1.0, 1.0, 0.0),
        ChemicalSynapse(1, 2, 1.0, -1.0, 0.0),
        ChemicalSynapse(2, 3, 1.0, 1.0, 0.0, inverted=True),
    ]
    view = NetView.of(make_net(4, chem, [GapJunction(0, 3, 1.0)]))
    a = np.zeros(4)
    for _ in range(50):
        a = step(a, view.syn_w0, view, np.array(inject), SimConfig())
        assert np.all(a <= 1.0) and np.all(a >= -1.0)


# ---------------------------------------------------------------------------
# gap-junction accounting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, k", [(1, 0), (2, 1), (5, 12), (40, 300)])
def test_gap_terms_equal_the_two_add_at_formula_bit_for_bit(n, k):
    # with k > n many junctions share a neuron, at either end or both
    rng = np.random.default_rng(10 * n + k)
    for _ in range(20):
        ends, weights = rng.integers(0, n, (k, 2)).tolist(), rng.uniform(0, 1, k).tolist()
        gap = [GapJunction(i, j, w) for (i, j), w in zip(ends, weights)]
        net = make_net(n, gap=gap)
        a = rng.uniform(-1, 1, n)
        a[rng.uniform(size=n) < 0.2] = rng.choice([0.0, -0.0])
        got, want = _gap_terms(a, NetView.of(net)), gap_terms_add_at(a, net)
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # signed zeros included


def test_gap_fluxes_conserve_charge():
    gap = [GapJunction(0, 1, 0.7), GapJunction(1, 2, 0.4)]
    view = NetView.of(make_net(3, gap=gap))
    a = np.array([0.9, -0.2, 0.3])
    nxt = step(a, view.syn_w0, view, cfg=SimConfig(decay_fraction=0.0, check_conservation=True))
    want = np.zeros(3)
    for j in gap:
        into_a, into_b = gj_flux(j, a[j.a], a[j.b])
        want[j.a] += into_a
        want[j.b] += into_b
    np.testing.assert_allclose(nxt - a, want, atol=1e-15)
    assert abs(nxt.sum() - a.sum()) < 1e-15


def test_conservation_check_raises_when_the_drift_exceeds_the_tolerance():
    # after rounding, the four junction-end terms sum to 2**-56, not 0
    view = NetView.of(make_net(3, gap=[GapJunction(0, 1, 0.7), GapJunction(1, 2, 0.4)]))
    a = np.array([0.2739233746429086, -0.4604265724722594, -0.9180529521276106])
    with pytest.raises(ConservationError, match=r"^gap-junction flux drift 1\.38778e-17 per step$"):
        step(a, view.syn_w0, view, cfg=SimConfig(check_conservation=True, conservation_tolerance=0.0))
    step(a, view.syn_w0, view, cfg=SimConfig(check_conservation=True))  # within the default 1e-9


def test_conservation_check_passes_on_symmetric_mode():
    view = NetView.of(make_net(2, gap=[GapJunction(0, 1, 1.0)]))
    cfg = SimConfig(check_conservation=True)
    a = np.array([1.0, -1.0])
    for _ in range(10):
        a = step(a, view.syn_w0, view, np.zeros(2), cfg)
    # diffusion: both ends meet in the middle
    assert abs(a[0] - a[1]) < abs(1.0 - -1.0)


def test_literal_mode_neutralizes_gap_junctions():
    """In the literal formulation the decay term re-adds the outgoing flux,
    which exactly cancels the incoming flux: the pair never equilibrates."""
    view = NetView.of(make_net(2, gap=[GapJunction(0, 1, 1.0)]))
    sym = lit = np.array([0.5, -0.5])
    for _ in range(5):
        sym = step(sym, view.syn_w0, view, np.zeros(2), SimConfig())
        lit = step(lit, view.syn_w0, view, np.zeros(2), SimConfig(gj_mode="paper-literal"))
    # symmetric mode pulls the pair together; literal mode leaves pure decay
    assert abs(sym[0] - sym[1]) < 0.8 ** 5
    np.testing.assert_allclose(lit, [0.5 * 0.8 ** 5, -0.5 * 0.8 ** 5], atol=1e-12)


def test_literal_mode_refuses_conservation_check():
    with pytest.raises(ConfigError, match="meaningless in paper-literal mode"):
        SimConfig(gj_mode="paper-literal", check_conservation=True)
    SimConfig(gj_mode="paper-literal")
    SimConfig(check_conservation=True)


def test_decay_fraction_validated():
    with pytest.raises(ConfigError, match="^decay_fraction must be a number, got 'x'$"):
        SimConfig(decay_fraction="x")
    with pytest.raises(ConfigError):
        SimConfig(decay_fraction=1.0)
    with pytest.raises(ConfigError):
        SimConfig(decay_fraction=-0.1)
