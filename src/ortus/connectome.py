"""Compile a parsed organism description into an executable network graph.

Layer generation follows a fixed recipe.  Every sensor gets a sensory
extension interneuron (SEI, named ``is<sensor>``) fed by a unit-weight,
immutable synapse.  Every non-empty subset of sensors gets a sensory
consolidation interneuron (SCI, named ``c_<members sorted and joined>``)
whose fan-in synapses from the member SEIs each carry weight 1/k for a
k-member subset, so the fan-in always sums to 1.  Every (SCI, emotion) pair
gets an emotion effector interneuron (EEI, named ``x<emotion>_<sci>``) that
reads its SCI through a weak, highly mutable synapse - the locus of
emotional learning - couples to its emotion through a gap junction, and
whispers back to its SCI through a very weak excitatory synapse.

Dominance between two emotions is wired twice: a direct inhibitory synapse
between the emotions themselves, and one inhibitory synapse per SCI from the
dominant emotion's EEI to the dominated emotion's EEI, so suppression acts
on associations as well as on the raw feeling.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path

from .dsl import (
    Affect,
    ElementKind,
    NetworkSpec,
    Polarity,
    RelationKind,
    Severity,
    Sign,
    validate_spec,
)
from .errors import ConfigError, OrtusError


class BuildError(OrtusError):
    """The spec cannot be compiled into a network."""


class SciCapExceeded(BuildError):
    """Too many sensors: the consolidation layer would exceed the cap."""


class UnsatisfiableRelationship(BuildError):
    """A declared relationship that no wiring can realize."""


class Layer(enum.Enum):
    SENSORY = "sensory"
    SEI = "SEI"
    SCI = "SCI"
    EEI = "EEI"
    EMOTION = "emotion"
    MOTOR = "motor"
    MUSCLE = "muscle"
    PLAIN = "plain-interneuron"


_DECLARED_LAYER = {
    ElementKind.SENSORY: Layer.SENSORY,
    ElementKind.INTERNEURON: Layer.PLAIN,
    ElementKind.MOTOR: Layer.MOTOR,
    ElementKind.MUSCLE: Layer.MUSCLE,
    ElementKind.EMOTION: Layer.EMOTION,
}


@dataclass(frozen=True)
class NeuronParams:
    """Per-neuron electrical constants on the dimensionless activation scale."""

    excit_reversal: float = 1.0
    inhib_reversal: float = -1.0
    equilibrium: float = 0.0

    @property
    def range(self) -> float:
        return self.excit_reversal - self.inhib_reversal

    def __post_init__(self) -> None:
        if self.range <= 0:
            raise BuildError("excitatory reversal must exceed inhibitory reversal")


DEFAULT_PARAMS = NeuronParams()


@dataclass(frozen=True)
class Neuron:
    id: int
    name: str
    layer: Layer
    threshold: float
    affect: Affect = Affect.NEUTRAL
    params: NeuronParams = DEFAULT_PARAMS


@dataclass(frozen=True)
class ChemicalSynapse:
    pre: int
    post: int
    weight: float
    reversal: float
    mutability: float
    inverted: bool = False


@dataclass(frozen=True)
class GapJunction:
    a: int
    b: int
    weight: float


@dataclass(eq=False)
class Connectome:
    neurons: list[Neuron]
    chem: list[ChemicalSynapse]
    gap: list[GapJunction]
    sensor_ids: list[int]
    emotion_ids: list[int]
    motor_ids: list[int]
    muscle_ids: list[int]
    name_to_id: dict[str, int]

    @property
    def n(self) -> int:
        return len(self.neurons)

    def id_of(self, name: str) -> int:
        try:
            return self.name_to_id[name]
        except KeyError:
            raise KeyError(f"no neuron named {name!r}") from None


@dataclass
class BuildConfig:
    """Knobs for the generated layers; declared relationships carry their own."""

    sci_cap: int = 1024
    sei_weight: float = 1.0
    generated_threshold: float = 0.005
    eei_initial_weight: float = 0.05
    eei_mutability: float = 0.9
    # Total gap-junction budget per emotion, split evenly across its EEIs so
    # the diffusive pull on an emotion stays bounded no matter how many
    # subsets the sensor layer expands into.
    eei_gj_weight: float = 0.8
    eei_feedback_weight: float = 0.02
    dominance_weight: float = 0.6

    def __post_init__(self) -> None:
        # The learning rule clips the weights it moves to [0, 1] and skips
        # synapses of mutability 0; both assume built values inside [0, 1].
        for name in (
            "sei_weight",
            "eei_initial_weight",
            "eei_feedback_weight",
            "dominance_weight",
            "eei_mutability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {value!r}")
        if not self.eei_gj_weight >= 0.0:
            raise ConfigError(f"eei_gj_weight cannot be negative, got {self.eei_gj_weight!r}")


@dataclass
class _Draft:
    neurons: list[Neuron] = field(default_factory=list)
    chem: list[ChemicalSynapse] = field(default_factory=list)
    gap: list[GapJunction] = field(default_factory=list)
    name_to_id: dict[str, int] = field(default_factory=dict)
    chem_pairs: set[tuple[int, int]] = field(default_factory=set)
    gap_pairs: set[tuple[int, int]] = field(default_factory=set)

    def add_neuron(
        self, name: str, layer: Layer, threshold: float, affect: Affect = Affect.NEUTRAL
    ) -> int:
        if name in self.name_to_id:
            raise BuildError(f"generated name {name!r} collides with an existing neuron")
        nid = len(self.neurons)
        self.neurons.append(Neuron(nid, name, layer, threshold, affect))
        self.name_to_id[name] = nid
        return nid

    def add_chem(
        self,
        pre: int,
        post: int,
        weight: float,
        reversal: float,
        mutability: float,
        inverted: bool = False,
    ) -> None:
        if (pre, post) in self.chem_pairs:
            a, b = self.neurons[pre].name, self.neurons[post].name
            raise BuildError(f"duplicate chemical synapse {a} -> {b}")
        self.chem_pairs.add((pre, post))
        self.chem.append(ChemicalSynapse(pre, post, weight, reversal, mutability, inverted))

    def add_gap(self, a: int, b: int, weight: float) -> None:
        a, b = (a, b) if a < b else (b, a)
        if (a, b) in self.gap_pairs:
            na, nb = self.neurons[a].name, self.neurons[b].name
            raise BuildError(f"duplicate gap junction {na} <-> {nb}")
        self.gap_pairs.add((a, b))
        self.gap.append(GapJunction(a, b, weight))


def generate_seis(draft: _Draft, sensor_ids: list[int], cfg: BuildConfig) -> dict[int, int]:
    """One relay interneuron per sensor, fed by a unit-weight frozen synapse."""
    sei_of: dict[int, int] = {}
    for sid in sensor_ids:
        sensor = draft.neurons[sid]
        sei = draft.add_neuron(f"is{sensor.name}", Layer.SEI, cfg.generated_threshold)
        draft.add_chem(sid, sei, cfg.sei_weight, 1.0, 0.0)
        sei_of[sid] = sei
    return sei_of


def generate_scis(
    draft: _Draft, sensor_ids: list[int], sei_of: dict[int, int], cfg: BuildConfig
) -> list[int]:
    """One consolidation interneuron per non-empty sensor subset.

    Subsets are enumerated in ascending bitmask order over the sensors'
    declaration order, and each SCI's fan-in weights are 1/k so that its
    total sensory drive sums to one regardless of subset size.
    """
    n = len(sensor_ids)
    count = 2**n - 1
    if count > cfg.sci_cap:
        raise SciCapExceeded(
            f"{n} sensors expand to 2^{n}-1 = {count} consolidation interneurons,"
            f" above the cap of {cfg.sci_cap}"
        )
    sci_ids: list[int] = []
    for mask in range(1, 2**n):
        members = [sensor_ids[i] for i in range(n) if mask >> i & 1]
        names = sorted(draft.neurons[m].name for m in members)
        sci = draft.add_neuron("c_" + "_".join(names), Layer.SCI, cfg.generated_threshold)
        w = 1.0 / len(members)
        for m in members:
            draft.add_chem(sei_of[m], sci, w, 1.0, 0.0)
        sci_ids.append(sci)
    return sci_ids


def generate_emotion_layer(
    draft: _Draft,
    sci_ids: list[int],
    emotion_ids: list[int],
    dominance_pairs: list[tuple[int, int]],
    cfg: BuildConfig,
) -> dict[tuple[int, int], int]:
    """Wire one EEI per (emotion, SCI) pair plus EEI-level dominance."""
    eei_of: dict[tuple[int, int], int] = {}
    gj_w = cfg.eei_gj_weight / max(1, len(sci_ids))
    for eid in emotion_ids:
        emotion = draft.neurons[eid]
        for sci in sci_ids:
            sci_name = draft.neurons[sci].name
            eei = draft.add_neuron(
                f"x{emotion.name}_{sci_name}", Layer.EEI, cfg.generated_threshold, emotion.affect
            )
            draft.add_chem(sci, eei, cfg.eei_initial_weight, 1.0, cfg.eei_mutability)
            draft.add_gap(eei, eid, gj_w)
            draft.add_chem(eei, sci, cfg.eei_feedback_weight, 1.0, 0.0)
            eei_of[(eid, sci)] = eei
    for dominant, dominated in dominance_pairs:
        for sci in sci_ids:
            draft.add_chem(
                eei_of[(dominant, sci)],
                eei_of[(dominated, sci)],
                cfg.dominance_weight,
                -1.0,
                0.0,
            )
    return eei_of


def apply_relationships(draft: _Draft, spec: NetworkSpec, cfg: BuildConfig) -> None:
    """Translate declared relationships into synapses and gap junctions."""
    for rel in spec.relationships:
        a = draft.name_to_id[rel.a]
        b = draft.name_to_id[rel.b]
        if rel.kind is RelationKind.CAUSES:
            if rel.polarity is not None:
                reversal = 1.0 if rel.polarity is Polarity.EXCITATORY else -1.0
            else:
                reversal = 1.0 if rel.b_sign is Sign.PLUS else -1.0
            inverted = rel.a_sign is Sign.MINUS
            draft.add_chem(a, b, rel.weight, reversal, rel.mutability or 0.0, inverted)
        elif rel.kind is RelationKind.CORRELATED:
            draft.add_gap(a, b, rel.weight)
        elif rel.kind is RelationKind.OPPOSES:
            draft.add_chem(a, b, rel.weight, -1.0, 0.0)
            draft.add_chem(b, a, rel.weight, -1.0, 0.0)
        elif rel.kind is RelationKind.DOMINATES:
            draft.add_chem(a, b, rel.weight, -1.0, 0.0)


def build(spec: NetworkSpec, cfg: BuildConfig | None = None) -> Connectome:
    """Compile a validated spec into a Connectome.

    Building is pure and deterministic: the same spec and config always
    produce the same neuron ids, names, and storage order.
    """
    cfg = cfg or BuildConfig()
    problems = [d for d in validate_spec(spec, sci_cap=cfg.sci_cap) if d.severity is Severity.ERROR]
    if problems:
        # Sensors are inputs: a relationship that drives one cannot be wired.
        unwirable = any(d.code == "into-sensor" for d in problems)
        raise (UnsatisfiableRelationship if unwirable else BuildError)(
            "spec failed validation:\n" + "\n".join(str(d) for d in problems)
        )

    draft = _Draft()
    for el in spec.elements:
        draft.add_neuron(el.name, _DECLARED_LAYER[el.kind], el.threshold, el.affect)

    sensor_ids = [draft.name_to_id[el.name] for el in spec.elements if el.kind is ElementKind.SENSORY]
    emotion_ids = [draft.name_to_id[el.name] for el in spec.elements if el.kind is ElementKind.EMOTION]
    motor_ids = [draft.name_to_id[el.name] for el in spec.elements if el.kind is ElementKind.MOTOR]
    muscle_ids = [draft.name_to_id[el.name] for el in spec.elements if el.kind is ElementKind.MUSCLE]

    sei_of = generate_seis(draft, sensor_ids, cfg)
    sci_ids = generate_scis(draft, sensor_ids, sei_of, cfg)

    emotion_names = {draft.neurons[e].name for e in emotion_ids}
    dominance_pairs: list[tuple[int, int]] = []
    for rel in spec.relationships:
        if rel.a in emotion_names and rel.b in emotion_names:
            if rel.kind is RelationKind.DOMINATES:
                dominance_pairs.append((draft.name_to_id[rel.a], draft.name_to_id[rel.b]))
            elif rel.kind is RelationKind.OPPOSES:
                dominance_pairs.append((draft.name_to_id[rel.a], draft.name_to_id[rel.b]))
                dominance_pairs.append((draft.name_to_id[rel.b], draft.name_to_id[rel.a]))
    generate_emotion_layer(draft, sci_ids, emotion_ids, dominance_pairs, cfg)

    apply_relationships(draft, spec, cfg)

    return Connectome(
        neurons=draft.neurons,
        chem=draft.chem,
        gap=draft.gap,
        sensor_ids=sensor_ids,
        emotion_ids=emotion_ids,
        motor_ids=motor_ids,
        muscle_ids=muscle_ids,
        name_to_id=draft.name_to_id,
    )


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def _num(x: float) -> str:
    return repr(float(x))


def neurons_csv(net: Connectome) -> str:
    lines = ["id,name,layer,threshold,affect"]
    for nr in net.neurons:
        lines.append(f"{nr.id},{nr.name},{nr.layer.value},{_num(nr.threshold)},{nr.affect.value}")
    return "\n".join(lines) + "\n"


def chem_csv(net: Connectome) -> str:
    lines = ["pre,post,weight,reversal,mutability,inverted"]
    for s in net.chem:
        lines.append(
            f"{s.pre},{s.post},{_num(s.weight)},{_num(s.reversal)},{_num(s.mutability)},{int(s.inverted)}"
        )
    return "\n".join(lines) + "\n"


def gap_csv(net: Connectome) -> str:
    lines = ["a,b,weight"]
    for g in net.gap:
        lines.append(f"{g.a},{g.b},{_num(g.weight)}")
    return "\n".join(lines) + "\n"


def write_csvs(net: Connectome, outdir: str | Path) -> list[Path]:
    """Write neurons.csv, chem.csv, and gap.csv; returns the created paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in (
        ("neurons.csv", neurons_csv(net)),
        ("chem.csv", chem_csv(net)),
        ("gap.csv", gap_csv(net)),
    ):
        path = outdir / name
        path.write_text(text)
        written.append(path)
    return written


_DOT_SHAPE = {
    Layer.SENSORY: "invtriangle",
    Layer.SEI: "circle",
    Layer.SCI: "doublecircle",
    Layer.EEI: "diamond",
    Layer.EMOTION: "octagon",
    Layer.MOTOR: "triangle",
    Layer.MUSCLE: "box",
    Layer.PLAIN: "circle",
}


def to_dot(net: Connectome) -> str:
    """Render the graph in DOT form: solid excitatory, dashed inhibitory,
    undirected bold edges for gap junctions."""
    lines = ["digraph connectome {", "  rankdir=LR;"]
    for nr in net.neurons:
        lines.append(f'  n{nr.id} [label="{nr.name}" shape={_DOT_SHAPE[nr.layer]}];')
    for s in net.chem:
        style = "solid" if s.reversal > 0 else "dashed"
        lines.append(f'  n{s.pre} -> n{s.post} [style={style} label="{_num(s.weight)}"];')
    for g in net.gap:
        lines.append(f'  n{g.a} -> n{g.b} [dir=none style=bold label="{_num(g.weight)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
