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

``build`` fills the one ``Connectome`` it returns, in storage order: the
declared elements, the SEIs, SCIs and EEIs with their wiring, then the
declared relationships.  It is the one checker of a spec: it raises
``BuildError`` on the validator's errors, on more SCIs than ``sci_cap`` and
on a colliding generated name, and keeps the warnings on the result.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .dsl import Affect, Layer, NetworkSpec, RelationKind, validate_spec
from .errors import THRESHOLD, WEIGHT, OrtusError, require_numbers


class BuildError(OrtusError):
    """The spec cannot be compiled into a network: validation found errors,
    or a generated name collides with another neuron's."""


@dataclass(frozen=True, slots=True)
class Neuron:
    """One neuron; its id is its index in ``Connectome.neurons``."""

    name: str
    layer: Layer
    threshold: float
    affect: Affect = Affect.NEUTRAL


@dataclass(frozen=True, slots=True)
class ChemicalSynapse:
    pre: int
    post: int
    weight: float
    reversal: float
    mutability: float
    inverted: bool = False


@dataclass(frozen=True, slots=True)
class GapJunction:
    a: int
    b: int
    weight: float


@dataclass(eq=False)
class Connectome:
    """The compiled network, in storage order; ``build`` fills one through
    ``add_neuron``, ``add_chem`` and ``add_gap``."""

    neurons: list[Neuron] = field(default_factory=list)
    chem: list[ChemicalSynapse] = field(default_factory=list)
    gap: list[GapJunction] = field(default_factory=list)
    name_to_id: dict[str, int] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)  # printed lines of the build's validation
    view: object = field(default=None, init=False, repr=False)  # kernel.NetView.of's, until an add_*

    @property
    def n(self) -> int:
        return len(self.neurons)

    def add_neuron(
        self, name: str, layer: Layer, threshold: float, affect: Affect = Affect.NEUTRAL
    ) -> int:
        nid = len(self.neurons)
        self.view = None
        self.neurons.append(Neuron(name, layer, threshold, affect))
        self.name_to_id.setdefault(name, nid)  # build refuses a name taken twice
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
        self.view = None
        self.chem.append(ChemicalSynapse(pre, post, weight, reversal, mutability, inverted))

    def add_gap(self, a: int, b: int, weight: float) -> None:
        a, b = (a, b) if a < b else (b, a)
        self.view = None
        self.gap.append(GapJunction(a, b, weight))


@dataclass
class BuildConfig:
    """Knobs for the generated layers; declared relationships carry their own."""

    sci_cap: int = 1024  # most SCIs a spec may expand to; every organism has a sensor, so one at least
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
        require_numbers(
            self, sci_cap="[1, inf)", sei_weight=WEIGHT, generated_threshold=THRESHOLD,
            eei_initial_weight=WEIGHT, eei_mutability=WEIGHT, eei_gj_weight="[0, inf)",
            eei_feedback_weight=WEIGHT, dominance_weight=WEIGHT,
        )


def generate_seis(net: Connectome, sensor_ids: list[int], cfg: BuildConfig) -> dict[int, int]:
    """One relay interneuron per sensor, fed by a unit-weight frozen synapse."""
    sei_of: dict[int, int] = {}
    for sid in sensor_ids:
        sensor = net.neurons[sid]
        sei = net.add_neuron(f"is{sensor.name}", Layer.SEI, cfg.generated_threshold)
        net.add_chem(sid, sei, cfg.sei_weight, 1.0, 0.0)
        sei_of[sid] = sei
    return sei_of


def generate_scis(
    net: Connectome, sensor_ids: list[int], sei_of: dict[int, int], cfg: BuildConfig
) -> list[int]:
    """One consolidation interneuron per non-empty sensor subset.

    Subsets are enumerated in ascending bitmask order over the sensors'
    declaration order, and each SCI's fan-in weights are 1/k so that its
    total sensory drive sums to one regardless of subset size.  ``build``
    has already held the count to ``sci_cap``.
    """
    n = len(sensor_ids)
    sci_ids: list[int] = []
    for mask in range(1, 2**n):
        members = [sensor_ids[i] for i in range(n) if mask >> i & 1]
        names = sorted(net.neurons[m].name for m in members)
        sci = net.add_neuron("c_" + "_".join(names), Layer.SCI, cfg.generated_threshold)
        w = 1.0 / len(members)
        for m in members:
            net.add_chem(sei_of[m], sci, w, 1.0, 0.0)
        sci_ids.append(sci)
    return sci_ids


def generate_emotion_layer(
    net: Connectome,
    sci_ids: list[int],
    emotion_ids: list[int],
    dominance_pairs: list[tuple[int, int]],
    cfg: BuildConfig,
) -> dict[tuple[int, int], int]:
    """Wire one EEI per (emotion, SCI) pair plus EEI-level dominance."""
    eei_of: dict[tuple[int, int], int] = {}
    gj_w = cfg.eei_gj_weight / max(1, len(sci_ids))
    for eid in emotion_ids:
        emotion = net.neurons[eid]
        for sci in sci_ids:
            sci_name = net.neurons[sci].name
            eei = net.add_neuron(
                f"x{emotion.name}_{sci_name}", Layer.EEI, cfg.generated_threshold, emotion.affect
            )
            net.add_chem(sci, eei, cfg.eei_initial_weight, 1.0, cfg.eei_mutability)
            net.add_gap(eei, eid, gj_w)
            net.add_chem(eei, sci, cfg.eei_feedback_weight, 1.0, 0.0)
            eei_of[(eid, sci)] = eei
    for dominant, dominated in dominance_pairs:
        for sci in sci_ids:
            net.add_chem(
                eei_of[(dominant, sci)],
                eei_of[(dominated, sci)],
                cfg.dominance_weight,
                -1.0,
                0.0,
            )
    return eei_of


def apply_relationships(net: Connectome, spec: NetworkSpec) -> None:
    """Translate declared relationships into synapses and gap junctions."""
    ids = net.name_to_id
    for rel in spec.relationships:
        for pre, post, reversal, mutability, inverted in rel.synapses():
            net.add_chem(ids[pre], ids[post], rel.weight, reversal, mutability, inverted)
        if rel.kind is RelationKind.CORRELATED:
            net.add_gap(ids[rel.a], ids[rel.b], rel.weight)


def build(spec: NetworkSpec, cfg: BuildConfig | None = None) -> Connectome:
    """Compile a spec into a Connectome.

    The spec is validated here, once: its errors, more SCIs than
    ``cfg.sci_cap`` and a generated name that collides with another
    neuron's raise ``BuildError``, and the warnings are kept on the result.
    Building is pure and deterministic: the same spec and config always
    produce the same neuron ids, names, and storage order.
    """
    cfg = cfg or BuildConfig()
    errors, warnings = validate_spec(spec)
    s = sum(el.kind is Layer.SENSORY for el in spec.elements)
    if 2**s - 1 > cfg.sci_cap:
        errors.append(
            f"error:0:0: {s} sensory elements expand to 2^{s}-1 = {2**s - 1} sensory consolidation"
            f" interneurons, exceeding the cap of {cfg.sci_cap}"
        )
    if errors:
        raise BuildError("spec failed validation:\n" + "\n".join(errors))

    net = Connectome(warnings=warnings)
    for el in spec.elements:
        net.add_neuron(el.name, el.kind, el.threshold, el.affect)

    sensor_ids = [net.name_to_id[el.name] for el in spec.elements if el.kind is Layer.SENSORY]
    emotion_ids = [net.name_to_id[el.name] for el in spec.elements if el.kind is Layer.EMOTION]

    sei_of = generate_seis(net, sensor_ids, cfg)
    sci_ids = generate_scis(net, sensor_ids, sei_of, cfg)

    emotion_names = {net.neurons[e].name for e in emotion_ids}
    dominance_pairs = [
        (net.name_to_id[pre], net.name_to_id[post])
        for rel in spec.relationships
        if rel.kind in (RelationKind.DOMINATES, RelationKind.OPPOSES)
        and {rel.a, rel.b} <= emotion_names
        for pre, post, *_ in rel.synapses()
    ]
    generate_emotion_layer(net, sci_ids, emotion_ids, dominance_pairs, cfg)

    # Declared names are distinct, so a name taken twice is a generated one;
    # it is refused at the position of the element declared under that name,
    # or at 0:0 when both neurons are generated.
    for nid, nr in enumerate(net.neurons):
        first = net.name_to_id[nr.name]
        if first != nid:
            el = spec.elements[first] if first < len(spec.elements) else None
            where = f"{el.line}:{el.col}" if el else "0:0"
            raise BuildError(
                f"spec failed validation:\nerror:{where}:"
                f" generated name {nr.name!r} collides with an existing neuron"
            )

    apply_relationships(net, spec)

    return net


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def _num(x: float) -> str:
    return repr(float(x))


def write_tables(outdir: str | Path, tables: Iterable[tuple[str, str, Iterable[str]]]) -> list[Path]:
    """Make `outdir` and write each ``(file name, header, rows)`` table in it as UTF-8: the
    header, then each row, each followed by a newline.  Returns the paths in the order written."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, header, rows in tables:
        paths.append(outdir / name)
        with paths[-1].open("w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            fh.writelines(row + "\n" for row in rows)
    return paths


def write_csvs(net: Connectome, outdir: str | Path) -> list[Path]:
    """Write neurons.csv, chem.csv, and gap.csv; returns the created paths."""
    return write_tables(outdir, [
        ("neurons.csv", "id,name,layer,threshold,affect", (
            f"{i},{nr.name},{nr.layer.value},{_num(nr.threshold)},{nr.affect.value}"
            for i, nr in enumerate(net.neurons)
        )),
        ("chem.csv", "pre,post,weight,reversal,mutability,inverted", (
            f"{s.pre},{s.post},{_num(s.weight)},{_num(s.reversal)},{_num(s.mutability)},{int(s.inverted)}"
            for s in net.chem
        )),
        ("gap.csv", "a,b,weight", (f"{g.a},{g.b},{_num(g.weight)}" for g in net.gap)),
    ])


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
    for nid, nr in enumerate(net.neurons):
        lines.append(f'  n{nid} [label="{nr.name}" shape={_DOT_SHAPE[nr.layer]}];')
    for s in net.chem:
        style = "solid" if s.reversal > 0 else "dashed"
        lines.append(f'  n{s.pre} -> n{s.post} [style={style} label="{_num(s.weight)}"];')
    for g in net.gap:
        lines.append(f'  n{g.a} -> n{g.b} [dir=none style=bold label="{_num(g.weight)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
