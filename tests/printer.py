"""The round-trip printer: a parsed spec rendered back to ``.ort`` text.

The tests parse what it prints to check that the parser keeps every
attribute and that the text builds the same connectome.
"""

from ortus.dsl import TYPE_WORDS, NetworkSpec, RelationKind


def _fmt(x: float) -> str:
    return repr(float(x))


def format_spec(spec: NetworkSpec) -> str:
    """Render a spec back to canonical .ort text.

    The output makes every defaulted attribute explicit and parses back to a
    structurally equal spec.
    """
    type_word = {layer: word for word, layer in TYPE_WORDS.items()}
    lines: list[str] = []
    for el in spec.elements:
        lines.append(
            f"element {el.name} {{ type: {type_word[el.kind]} affect: {el.affect.value}"
            f" threshold: {_fmt(el.threshold)} }}"
        )
    for rel in spec.relationships:
        if rel.kind is RelationKind.CAUSES:
            clause = f"{rel.a_sign.value}{rel.a} causes {rel.b_sign.value}{rel.b}"  # type: ignore[union-attr]
        else:
            clause = f"{rel.a} {rel.kind.value} {rel.b}"
        attrs = f" weight: {_fmt(rel.weight)}"
        if rel.mutability is not None:
            attrs += f" mutability: {_fmt(rel.mutability)}"
        if rel.polarity is not None:
            attrs += f" polarity: {rel.polarity.value}"
        lines.append(f"relationship {{ {clause}{attrs} }}")
    return "\n".join(lines) + "\n"
