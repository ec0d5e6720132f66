"""Connectome generation: deterministic expansion of rules into neurons,
chemical synapses, and gap junctions.

The combinatorial layers are cross-checked against brute-force subset
enumeration so the generator can never silently drift.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from ortus.connectome import (
    BuildConfig,
    BuildError,
    Connectome,
    build,
    to_dot,
    write_csvs,
)
from ortus.cli import asset_path
from ortus.dsl import Layer, parse_source, validate_spec
from ortus.errors import ConfigError
from printer import format_spec
from strategies import COLLISIONS, random_specs

TWO_EMOTION = """
element sCO2      { type: sensory  affect: negative  threshold: 0.01 }
element sO2       { type: sensory  affect: positive  threshold: 0.01 }
element sH2O      { type: sensory  threshold: 0.01 }
element eFEAR     { type: emotion  affect: negative  threshold: 0.046 }
element ePLEASURE { type: emotion  affect: positive  threshold: 0.046 }
"""


def net_of(source, cfg=None):
    return build(parse_source(source), cfg or BuildConfig())


def by_name(net):
    return {n.name: n for n in net.neurons}


def chem_map(net):
    names = {i: n.name for i, n in enumerate(net.neurons)}
    return {(names[s.pre], names[s.post]): s for s in net.chem}


def gap_map(net):
    names = {i: n.name for i, n in enumerate(net.neurons)}
    return {(names[j.a], names[j.b]): j for j in net.gap}


# ---------------------------------------------------------------------------
# sensory expansion
# ---------------------------------------------------------------------------


def test_sei_per_sensor():
    net = net_of(TWO_EMOTION)
    neurons = by_name(net)
    for sensor in ("sCO2", "sO2", "sH2O"):
        sei = neurons["is" + sensor]
        assert sei.layer is Layer.SEI
    syn = chem_map(net)[("sCO2", "issCO2")]
    assert syn.weight == 1.0
    assert syn.reversal == 1.0
    assert syn.mutability == 0.0


def test_sci_enumeration_matches_brute_force():
    """Every non-empty sensor subset appears exactly once, in ascending
    bitmask order, with fan-in weights that sum to one."""
    net = net_of(TWO_EMOTION)
    sensors = ["sCO2", "sO2", "sH2O"]  # declaration order
    expected = []
    for mask in range(1, 2 ** len(sensors)):
        subset = [sensors[i] for i in range(len(sensors)) if mask >> i & 1]
        expected.append("c_" + "_".join(sorted(subset)))
    actual = [n.name for n in net.neurons if n.layer is Layer.SCI]
    assert actual == expected
    assert len(actual) == 2 ** len(sensors) - 1

    syn = chem_map(net)
    for mask in range(1, 2 ** len(sensors)):
        subset = [sensors[i] for i in range(len(sensors)) if mask >> i & 1]
        sci = "c_" + "_".join(sorted(subset))
        weights = [syn[("is" + s, sci)].weight for s in subset]
        assert np.allclose(weights, 1.0 / len(subset))
        assert abs(sum(weights) - 1.0) < 1e-9


def test_sci_cap_enforced():
    elements = "\n".join(f"element s{i} {{ type: sensory }}" for i in range(6))
    src = elements + "\nelement eX { type: emotion affect: positive }"
    with pytest.raises(BuildError) as exc:
        net_of(src, BuildConfig(sci_cap=10))
    assert str(exc.value).endswith("2^6-1 = 63 sensory consolidation interneurons, exceeding the cap of 10")
    # 2^6 - 1 = 63 fits in the default cap
    net = net_of(src)
    assert sum(1 for n in net.neurons if n.layer is Layer.SCI) == 63


@pytest.mark.parametrize(
    "field, value",
    [
        ("sei_weight", 1.5),
        ("sei_weight", -0.1),
        ("eei_initial_weight", 1.01),
        ("eei_feedback_weight", -0.02),
        ("dominance_weight", 2.0),
        ("eei_mutability", -0.5),
        ("eei_mutability", 1.5),
        ("eei_gj_weight", -0.8),
        ("sei_weight", float("nan")),
        ("sci_cap", 10.5),  # no integer, so no whole number of subsets
        ("generated_threshold", 5.0),  # once ran and reported a nan probe ratio
        ("generated_threshold", -0.5),
        ("generated_threshold", 1.0),  # thresholds lie in [0, 1), as a declared element's
        ("sei_weight", "1"),  # no number: refused by name, not by a TypeError
        ("dominance_weight", None),
        ("eei_gj_weight", True),
    ],
)
def test_build_config_rejects_out_of_range_values(field, value):
    # a built weight outside [0, 1], or a negative mutability, would be moved
    # by the plasticity clip even on a synapse that must never change
    with pytest.raises(ConfigError, match=field):
        BuildConfig(**{field: value})


def test_build_config_accepts_the_range_edges():
    BuildConfig(sei_weight=0.0, eei_initial_weight=1.0, eei_mutability=0.0, eei_gj_weight=0.0)


def test_generated_neurons_use_configured_threshold():
    net = net_of(TWO_EMOTION, BuildConfig(generated_threshold=0.007))
    for n in net.neurons:
        if n.layer in (Layer.SEI, Layer.SCI, Layer.EEI):
            assert n.threshold == 0.007


# ---------------------------------------------------------------------------
# emotion layer
# ---------------------------------------------------------------------------


def test_eei_per_emotion_sci_pair_emotion_major():
    net = net_of(TWO_EMOTION)
    eeis = [n.name for n in net.neurons if n.layer is Layer.EEI]
    assert len(eeis) == 2 * 7
    assert eeis[:7] == [
        "xeFEAR_c_sCO2",
        "xeFEAR_c_sO2",
        "xeFEAR_c_sCO2_sO2",
        "xeFEAR_c_sH2O",
        "xeFEAR_c_sCO2_sH2O",
        "xeFEAR_c_sH2O_sO2",
        "xeFEAR_c_sCO2_sH2O_sO2",
    ]
    assert all(name.startswith("xePLEASURE_") for name in eeis[7:])


def test_eei_wiring_weights():
    cfg = BuildConfig()
    net = net_of(TWO_EMOTION, cfg)
    syn = chem_map(net)
    gaps = gap_map(net)

    fwd = syn[("c_sH2O", "xeFEAR_c_sH2O")]
    assert fwd.weight == cfg.eei_initial_weight
    assert fwd.mutability == cfg.eei_mutability
    assert fwd.reversal == 1.0

    back = syn[("xeFEAR_c_sH2O", "c_sH2O")]
    assert back.weight == cfg.eei_feedback_weight
    assert back.mutability == 0.0

    # the emotion<->EEI electrical budget is split across that emotion's EEIs
    pair = ("eFEAR", "xeFEAR_c_sH2O")
    junction = gaps.get(pair) or gaps[tuple(reversed(pair))]
    assert junction.weight == pytest.approx(cfg.eei_gj_weight / 7)
    n_gaps = sum(1 for (a, b) in gaps if "eFEAR" in (a, b) or "ePLEASURE" in (a, b))
    assert n_gaps == 14


def test_dominance_creates_one_inhibitory_synapse_per_sci():
    cfg = BuildConfig()
    net = net_of(TWO_EMOTION + "relationship { eFEAR dominates ePLEASURE weight: 0.6 }", cfg)
    syn = chem_map(net)
    scis = [n.name for n in net.neurons if n.layer is Layer.SCI]
    for sci in scis:
        s = syn[(f"xeFEAR_{sci}", f"xePLEASURE_{sci}")]
        assert s.reversal == -1.0
        assert s.weight == cfg.dominance_weight
        assert s.mutability == 0.0
        assert (f"xePLEASURE_{sci}", f"xeFEAR_{sci}") not in syn
    # plus the direct emotion-level inhibition
    direct = syn[("eFEAR", "ePLEASURE")]
    assert direct.reversal == -1.0
    assert direct.weight == 0.6


def test_opposes_inhibits_both_directions_at_eei_level():
    net = net_of(TWO_EMOTION + "relationship { eFEAR opposes ePLEASURE weight: 0.4 }")
    syn = chem_map(net)
    assert syn[("xeFEAR_c_sH2O", "xePLEASURE_c_sH2O")].reversal == -1.0
    assert syn[("xePLEASURE_c_sH2O", "xeFEAR_c_sH2O")].reversal == -1.0
    assert syn[("eFEAR", "ePLEASURE")].reversal == -1.0
    assert syn[("ePLEASURE", "eFEAR")].reversal == -1.0


# ---------------------------------------------------------------------------
# declared relationships
# ---------------------------------------------------------------------------


def test_causes_signs_map_to_reversal_and_inversion():
    src = TWO_EMOTION + """
element mPUMP { type: motor }
relationship { +sCO2 causes +mPUMP weight: 0.7 mutability: 0 }
relationship { +sO2  causes -mPUMP weight: 0.8 mutability: 0 }
relationship { -sH2O causes +mPUMP weight: 0.6 mutability: 0 }
"""
    syn = chem_map(net_of(src))
    excit = syn[("sCO2", "mPUMP")]
    assert (excit.reversal, excit.inverted) == (1.0, False)
    inhib = syn[("sO2", "mPUMP")]
    assert (inhib.reversal, inhib.inverted) == (-1.0, False)
    inverted = syn[("sH2O", "mPUMP")]
    assert (inverted.reversal, inverted.inverted) == (1.0, True)
    assert inverted.weight == 0.6


def test_polarity_attribute_overrides_target_sign():
    src = TWO_EMOTION + """
element mPUMP { type: motor }
relationship { +sCO2 causes +mPUMP polarity: inhibitory }
"""
    syn = chem_map(net_of(src))
    assert syn[("sCO2", "mPUMP")].reversal == -1.0


def test_causes_mutability_flows_through():
    src = TWO_EMOTION + "element mP { type: motor }\nrelationship { sCO2 causes mP mutability: 0.3 }"
    assert chem_map(net_of(src))[("sCO2", "mP")].mutability == 0.3


def test_correlated_becomes_gap_junction():
    src = TWO_EMOTION + """
element nA { type: interneuron }
element nB { type: interneuron }
relationship { nA correlated nB weight: 0.25 }
relationship { sCO2 causes nA }
relationship { sO2 causes nB }
"""
    net = net_of(src)
    gaps = gap_map(net)
    pair = ("nA", "nB")
    junction = gaps.get(pair) or gaps.get(tuple(reversed(pair)))
    assert junction is not None and junction.weight == 0.25
    a, b = junction.a, junction.b
    assert a < b  # canonical storage order


def test_build_rejects_invalid_spec_with_diagnostics():
    with pytest.raises(BuildError) as exc:
        net_of("element sX { type: sensory }\nelement sX { type: sensory }")
    assert "declared twice" in str(exc.value)


@pytest.mark.parametrize(
    "relationship",
    ["eFEAR causes sCO2", "eFEAR dominates sO2", "sH2O opposes eFEAR", "eFEAR opposes sH2O"],
)
def test_build_rejects_wiring_into_sensors(relationship):
    with pytest.raises(BuildError) as exc:
        net_of(TWO_EMOTION + f"relationship {{ {relationship} }}")
    # the validator's diagnostic, with the relationship's line:col
    assert "error:7:1: " in str(exc.value) and "sensors are inputs only" in str(exc.value)


def test_wiring_into_a_sensor_is_reported_before_the_sci_cap():
    with pytest.raises(BuildError) as exc:
        net_of(TWO_EMOTION + "relationship { eFEAR causes sCO2 }", BuildConfig(sci_cap=3))
    assert str(exc.value) == (
        "spec failed validation:\n"
        "error:7:1: causes relationship would drive sensory element 'sCO2'; sensors are inputs only\n"
        "error:0:0: 3 sensory elements expand to 2^3-1 = 7 sensory consolidation interneurons,"
        " exceeding the cap of 3"
    )
    with pytest.raises(BuildError) as exc:
        net_of(TWO_EMOTION, BuildConfig(sci_cap=3))
    assert str(exc.value) == (
        "spec failed validation:\n"
        "error:0:0: 3 sensory elements expand to 2^3-1 = 7 sensory consolidation interneurons,"
        " exceeding the cap of 3"
    )


def test_duplicate_synapse_rejected():
    src = TWO_EMOTION + """
element mP { type: motor }
relationship { sCO2 causes mP }
relationship { +sCO2 causes -mP }
"""
    with pytest.raises(BuildError) as exc:
        net_of(src)
    assert "error:10:1: sCO2 -> mP is already wired by the relationship at 9:1" in str(exc.value)


@pytest.mark.parametrize("source,generated,where", COLLISIONS)
def test_generated_name_collision_rejected(source, generated, where):
    with pytest.raises(BuildError) as exc:
        net_of(source)
    assert str(exc.value) == (
        "spec failed validation:\n"
        f"error:{where}: generated name '{generated}' collides with an existing neuron"
    )


def generated_name_collides(spec) -> bool:
    """Whether two neurons of the build would share a name: the recipe's
    ``is<sensor>``, ``c_<subset>`` and ``x<emotion>_<sci>`` names beside the
    declared ones, enumerated here independently of ``build``."""
    sensors = [el.name for el in spec.elements if el.kind is Layer.SENSORY]
    emotions = [el.name for el in spec.elements if el.kind is Layer.EMOTION]
    scis = [
        "c_" + "_".join(sorted(subset))
        for k in range(1, len(sensors) + 1)
        for subset in itertools.combinations(sensors, k)
    ]
    names = [el.name for el in spec.elements]
    names += [f"is{s}" for s in sensors] + scis + [f"x{e}_{c}" for e in emotions for c in scis]
    return len(set(names)) < len(names)


@settings(max_examples=200, deadline=None)
@given(random_specs())
@example(COLLISIONS[0][0])
@example(COLLISIONS[1][0])
def test_build_fails_exactly_when_validation_does(source):
    """``build`` raises exactly when ``validate_spec`` reports an error or a
    generated name collides."""
    spec = parse_source(source)
    errors, _ = validate_spec(spec)
    invalid = bool(errors) or generated_name_collides(spec)
    try:
        net = build(spec)
    except BuildError:
        assert invalid
        return
    assert not invalid
    pairs = [(s.pre, s.post) for s in net.chem]
    assert len(set(pairs)) == len(pairs)
    gaps = [(j.a, j.b) for j in net.gap]
    assert len(set(gaps)) == len(gaps)
    assert all(a < b for a, b in gaps)


@settings(max_examples=100, deadline=None)
@given(random_specs())
@example(asset_path("ortus.ort").read_text())
def test_printed_spec_builds_the_same_connectome(source):
    spec = parse_source(source)
    assume(not validate_spec(spec)[0])
    net, again = build(spec), build(parse_source(format_spec(spec)))
    assert again.neurons == net.neurons
    assert again.chem == net.chem
    assert again.gap == net.gap


# ---------------------------------------------------------------------------
# whole-organism shape and exports
# ---------------------------------------------------------------------------


def test_bundled_organism_counts(organism_net):
    net = organism_net
    layers = [n.layer for n in net.neurons]
    assert net.n == 8 + 3 + 7 + 14
    assert layers.count(Layer.SEI) == 3
    assert layers.count(Layer.SCI) == 7
    assert layers.count(Layer.EEI) == 14
    # declared + SEI + SCI fan-in + EEI forward + EEI feedback + dominance
    assert len(net.chem) == 8 + 3 + 12 + 14 + 14 + 7
    assert len(net.gap) == 14
    assert [nid for nid, nr in enumerate(net.neurons) if nr.layer is Layer.SENSORY] == [0, 1, 2]
    assert [nr.name for nr in net.neurons if nr.layer is Layer.EMOTION] == ["eFEAR", "ePLEASURE"]


def test_neuron_ids_match_declaration_then_generation_order(organism_net):
    names = [n.name for n in organism_net.neurons]
    assert names[:8] == ["sCO2", "sO2", "sH2O", "mINHALE", "mEXHALE", "LUNG", "eFEAR", "ePLEASURE"]
    assert organism_net.name_to_id["sCO2"] == 0
    assert organism_net.name_to_id["LUNG"] == 5


def test_csv_headers_and_shapes(organism_net, tmp_path):
    paths = write_csvs(organism_net, tmp_path)
    assert paths == [tmp_path / "neurons.csv", tmp_path / "chem.csv", tmp_path / "gap.csv"]
    neurons, chem, gap = (path.read_text().splitlines() for path in paths)
    assert neurons[0] == "id,name,layer,threshold,affect"
    assert chem[0] == "pre,post,weight,reversal,mutability,inverted"
    assert gap[0] == "a,b,weight"
    assert len(neurons) == organism_net.n + 1
    assert len(chem) == len(organism_net.chem) + 1
    assert len(gap) == len(organism_net.gap) + 1


def test_gap_csv_rows_are_canonical(organism_net, tmp_path):
    write_csvs(organism_net, tmp_path)
    for line in (tmp_path / "gap.csv").read_text().splitlines()[1:]:
        a, b, _ = line.split(",")
        assert int(a) < int(b)


def test_a_table_with_no_rows_is_its_header_alone(tmp_path):
    # one net without gap junctions, one without chemical synapses
    chem_only, gap_only = Connectome(), Connectome()
    for net in (chem_only, gap_only):
        net.add_neuron("sA", Layer.SENSORY, 0.1)
        net.add_neuron("mβ", Layer.MOTOR, 0.1)
    chem_only.add_chem(0, 1, 0.5, 1.0, 0.0)
    gap_only.add_gap(1, 0, 0.25)
    files = {
        name: [path.read_bytes().decode() for path in write_csvs(net, tmp_path / name)]
        for name, net in (("chem_only", chem_only), ("gap_only", gap_only))
    }
    chem_header = "pre,post,weight,reversal,mutability,inverted\n"
    neurons = "id,name,layer,threshold,affect\n0,sA,sensory,0.1,neutral\n1,mβ,motor,0.1,neutral\n"
    assert files["chem_only"] == [neurons, chem_header + "0,1,0.5,1.0,0.0,0\n", "a,b,weight\n"]
    assert files["gap_only"] == [neurons, chem_header, "a,b,weight\n0,1,0.25\n"]


def test_dot_export(organism_net):
    dot = to_dot(organism_net)
    assert dot.startswith("digraph")
    assert "eFEAR" in dot and "issCO2" in dot
    assert "dir=none" in dot  # gap junctions are undirected
    assert dot.count("->") >= len(organism_net.chem)
