"""Lexer, parser, and validator for ``.ort`` organism descriptions.

An ``.ort`` file declares elements (neurons and muscles) first, then the
relationships that wire them together.  ``#`` starts a comment that runs to
the end of the line; whitespace and newlines are otherwise interchangeable.

::

    element <name> { type: <sensory|interneuron|motor|muscle|emotion>
                     [affect: <positive|negative|neutral>]
                     [threshold: <decimal>] }

    relationship { [+|-]<name> causes [+|-]<name>
                   [weight: <d>] [mutability: <d>]
                   [polarity: <excitatory|inhibitory>] }
    relationship { <name> correlated <name> [weight: <d>] }
    relationship { <name> opposes <name>    [weight: <d>] }
    relationship { <name> dominates <name>  [weight: <d>] }

On a ``causes`` line the signs describe the coupling: ``+A causes +B`` means
a rise in A drives B up, ``+A causes -B`` means a rise in A drives B down,
and a leading ``-A`` keys the drive to A falling below equilibrium instead
of rising above it.  Omitted signs default to ``+``.  A ``polarity``
attribute, when present, overrides the sign-derived reversal of the synapse.

Text the lexer or the parser cannot accept raises ``ParseError`` with its
``line:col``.  ``validate_spec`` returns the errors and warnings of a parsed
spec as the lines printed for them; ``connectome.build`` runs it and raises
on any error.
"""

from __future__ import annotations

import enum
import graphlib
import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TypeVar

from .errors import THRESHOLD, WEIGHT, OrtusError, bound_error, read_number

DEFAULT_THRESHOLD = 0.05
DEFAULT_WEIGHT = 0.5
DEFAULT_MUTABILITY = 0.5


class ParseError(OrtusError):
    """Source text that the lexer or the parser cannot accept: an unknown
    character, a malformed number, a token sequence off the grammar, or an
    element declared after a relationship.  The message starts ``line:col:``
    and ends with the tokens that would have been accepted, if any."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        if expected:
            message += " (expected " + " or ".join(sorted(expected)) + ")"
        super().__init__(f"{line}:{col}: {message}")


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    LBRACE = "lbrace"
    RBRACE = "rbrace"
    COLON = "colon"
    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    col: int
    value: float | None = None


_PUNCT = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    ":": TokenKind.COLON,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
}


def _scanner(digits: str) -> re.Pattern[str]:
    """The token pattern: one alternative per token class, tried in order,
    the last taking any character no other accepts.  A number may carry an
    exponent, so that printed floats (e.g. 6.1e-05) read back.  ``digits``
    are characters that ``str.isdigit`` accepts but ``float`` cannot read,
    such as ``'²'``: a number runs on over them and is then malformed.
    ``re.compile`` keeps recent patterns, so each is compiled once."""
    d = r"\d" + digits
    return re.compile(
        r"(?P<newline>\n)|(?P<space>[ \t\r]+|#[^\n]*)"
        rf"|(?P<number>[.{d}]+(?:[eE][+-]?[{d}]+)?)"
        r"|(?P<name>[^\W\d]\w*)|(?P<punct>[{}:+-])|(?P<bad>.)",
        re.DOTALL,
    )


def tokenize(source: str) -> list[Token]:
    """Split source text into tokens, tracking 1-based line/column positions."""
    digits = "".join(sorted(c for c in set(source) if c.isdigit() and not c.isdecimal()))
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _scanner(digits).finditer(source):
        kind, text, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "number":
            try:
                value = read_number(text)
            except ValueError:
                raise ParseError(f"malformed number {text!r}", line, col) from None
            tokens.append(Token(TokenKind.NUMBER, text, line, col, value=value))
        elif kind == "punct":
            tokens.append(Token(_PUNCT[text], text, line, col))
        # a name starts with a letter or '_', not with a numeral such as '½'
        elif kind == "name" and (text[0].isalpha() or text[0] == "_"):
            word = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(word, text, line, col))
        elif kind != "space":
            raise ParseError(f"unexpected character {text[0]!r}", line, col)
    return tokens


# ---------------------------------------------------------------------------
# syntax tree
# ---------------------------------------------------------------------------


class Layer(enum.Enum):
    """A neuron's kind, from an element's ``type:`` word to its cell in
    ``neurons.csv`` (the value).  An ``.ort`` file declares the kinds in
    ``TYPE_WORDS``; ``connectome.build`` generates the SEI, SCI and EEI
    layers."""

    SENSORY = "sensory"
    SEI = "SEI"
    SCI = "SCI"
    EEI = "EEI"
    EMOTION = "emotion"
    MOTOR = "motor"
    MUSCLE = "muscle"
    PLAIN = "plain-interneuron"


TYPE_WORDS = {
    "sensory": Layer.SENSORY,
    "interneuron": Layer.PLAIN,
    "motor": Layer.MOTOR,
    "muscle": Layer.MUSCLE,
    "emotion": Layer.EMOTION,
}


class Affect(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    NEUTRAL = "neutral"


class RelationKind(enum.Enum):
    CAUSES = "causes"
    CORRELATED = "correlated"
    OPPOSES = "opposes"
    DOMINATES = "dominates"


KEYWORDS = frozenset({"element", "relationship"} | {kind.value for kind in RelationKind})


class Sign(enum.Enum):
    PLUS = "+"
    MINUS = "-"


class Polarity(enum.Enum):
    EXCITATORY = "excitatory"
    INHIBITORY = "inhibitory"


@dataclass
class ElementDecl:
    name: str
    kind: Layer
    affect: Affect = Affect.NEUTRAL
    threshold: float = DEFAULT_THRESHOLD
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class RelationshipDecl:
    kind: RelationKind
    a: str
    b: str
    a_sign: Sign | None = None
    b_sign: Sign | None = None
    weight: float = DEFAULT_WEIGHT
    mutability: float | None = None
    polarity: Polarity | None = None
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)

    def synapses(self) -> list[tuple[str, str, float, float, bool]]:
        """The chemical synapses this relationship wires, in build order, as
        ``(pre, post, reversal, mutability, inverted)``; each carries the
        relationship's weight.  ``correlated`` wires none: its gap junction
        joins ``a`` and ``b``."""
        if self.kind is RelationKind.CAUSES:
            if self.polarity is not None:
                excitatory = self.polarity is Polarity.EXCITATORY
            else:
                excitatory = self.b_sign is Sign.PLUS
            reversal = 1.0 if excitatory else -1.0
            return [(self.a, self.b, reversal, self.mutability or 0.0, self.a_sign is Sign.MINUS)]
        if self.kind is RelationKind.DOMINATES:
            return [(self.a, self.b, -1.0, 0.0, False)]
        if self.kind is RelationKind.OPPOSES:
            return [(self.a, self.b, -1.0, 0.0, False), (self.b, self.a, -1.0, 0.0, False)]
        return []


@dataclass
class NetworkSpec:
    elements: list[ElementDecl]
    relationships: list[RelationshipDecl]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_E = TypeVar("_E", bound=enum.Enum)


def _values(enum_type: type[_E]) -> dict[str, _E]:
    return {member.value: member for member in enum_type}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def _eof_pos(self) -> tuple[int, int]:
        if self.tokens:
            last = self.tokens[-1]
            return last.line, last.col + len(last.text)
        return 1, 1

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, context: str, expected: tuple[str, ...] = ()) -> Token:
        tok = self.peek()
        if tok is None:
            line, col = self._eof_pos()
            raise ParseError(f"unexpected end of input while parsing {context}", line, col, expected)
        self.pos += 1
        return tok

    def expect(self, kind: TokenKind, context: str, expected: tuple[str, ...]) -> Token:
        tok = self.next(context, expected)
        if tok.kind is not kind:
            raise ParseError(
                f"unexpected {tok.text!r} while parsing {context}", tok.line, tok.col, expected
            )
        return tok

    def parse(self) -> NetworkSpec:
        elements: list[ElementDecl] = []
        relationships: list[RelationshipDecl] = []
        while (tok := self.peek()) is not None:
            if tok.kind is TokenKind.KEYWORD and tok.text == "element":
                if relationships:
                    raise ParseError(
                        "element declared after a relationship; all elements must come first",
                        tok.line,
                        tok.col,
                    )
                self.pos += 1
                elements.append(self._element(tok))
            elif tok.kind is TokenKind.KEYWORD and tok.text == "relationship":
                self.pos += 1
                relationships.append(self._relationship(tok))
            else:
                raise ParseError(
                    f"unexpected {tok.text!r} at top level",
                    tok.line,
                    tok.col,
                    ("element", "relationship"),
                )
        return NetworkSpec(elements, relationships)

    def _ident(self, context: str) -> Token:
        tok = self.peek()
        if tok is not None and tok.kind is TokenKind.KEYWORD:
            raise ParseError(f"{tok.text!r} is a reserved word", tok.line, tok.col, ("identifier",))
        return self.expect(TokenKind.IDENT, context, ("identifier",))

    def _attributes(self, block: str, keys: tuple[str, ...]) -> Iterator[Token]:
        """Read ``key: value`` pairs up to the closing brace of a block.

        Yields each key token once its colon is read; the caller then reads
        the value.  Unknown and repeated keys are rejected here.
        """
        expected = keys + ("}",)
        seen: set[str] = set()
        while (tok := self.next(f"{block} block", expected)).kind is not TokenKind.RBRACE:
            if tok.kind is not TokenKind.IDENT or tok.text not in keys:
                raise ParseError(
                    f"unknown {block} attribute {tok.text!r}", tok.line, tok.col, expected
                )
            if tok.text in seen:
                raise ParseError(f"duplicate attribute {tok.text!r}", tok.line, tok.col)
            seen.add(tok.text)
            self.expect(TokenKind.COLON, f"{tok.text} attribute", (":",))
            yield tok

    def _choice(self, token_kind: TokenKind, choices: dict[str, _E], what: str) -> _E:
        """Read one word of ``choices``, written as a ``token_kind`` token."""
        words = tuple(sorted(choices))
        tok = self.next(what, words)
        if tok.kind is not token_kind or tok.text not in choices:
            raise ParseError(f"unknown {what} {tok.text!r}", tok.line, tok.col, words)
        return choices[tok.text]

    def _number(self, key: str) -> float:
        tok = self.expect(TokenKind.NUMBER, f"{key} value", ("number",))
        return tok.value  # type: ignore[return-value]

    def _element(self, kw: Token) -> ElementDecl:
        name = self._ident("element name")
        self.expect(TokenKind.LBRACE, "element block", ("{",))
        kind: Layer | None = None
        affect = Affect.NEUTRAL
        threshold = DEFAULT_THRESHOLD
        for key in self._attributes("element", ("type", "affect", "threshold")):
            if key.text == "type":
                kind = self._choice(TokenKind.IDENT, TYPE_WORDS, "element type")
            elif key.text == "affect":
                affect = self._choice(TokenKind.IDENT, _values(Affect), "affect")
            else:
                threshold = self._number(key.text)
        if kind is None:
            raise ParseError(
                f"element {name.text!r} is missing a type attribute", name.line, name.col
            )
        return ElementDecl(name.text, kind, affect, threshold, line=kw.line, col=kw.col)

    def _sign(self) -> Sign | None:
        tok = self.peek()
        if tok is not None and tok.kind in (TokenKind.PLUS, TokenKind.MINUS):
            self.pos += 1
            return Sign.PLUS if tok.kind is TokenKind.PLUS else Sign.MINUS
        return None

    def _relationship(self, kw: Token) -> RelationshipDecl:
        self.expect(TokenKind.LBRACE, "relationship block", ("{",))
        a_sign = self._sign()
        a = self._ident("relationship source")
        kind = self._choice(TokenKind.KEYWORD, _values(RelationKind), "relationship kind")
        kind_tok = self.tokens[self.pos - 1]
        b_sign = self._sign()
        b = self._ident("relationship target")
        causes = kind is RelationKind.CAUSES
        if causes:
            a_sign = a_sign or Sign.PLUS
            b_sign = b_sign or Sign.PLUS
        elif a_sign is not None or b_sign is not None:
            raise ParseError(
                f"signs are only valid on causes relationships, not {kind.value}",
                kind_tok.line,
                kind_tok.col,
            )

        weight = DEFAULT_WEIGHT
        mutability = DEFAULT_MUTABILITY if causes else None
        polarity: Polarity | None = None
        for key in self._attributes("relationship", ("weight", "mutability", "polarity")):
            if key.text == "weight":
                weight = self._number(key.text)
            elif not causes:
                raise ParseError(
                    f"{key.text} is only valid on causes relationships", key.line, key.col
                )
            elif key.text == "mutability":
                mutability = self._number(key.text)
            else:
                polarity = self._choice(TokenKind.IDENT, _values(Polarity), "polarity")
        return RelationshipDecl(
            kind,
            a.text,
            b.text,
            a_sign,
            b_sign,
            weight,
            mutability,
            polarity,
            line=kw.line,
            col=kw.col,
        )


def parse_source(source: str) -> NetworkSpec:
    """Parse .ort text into a NetworkSpec, defaulting omitted attributes."""
    return _Parser(tokenize(source)).parse()


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate_spec(spec: NetworkSpec) -> tuple[list[str], list[str]]:
    """Check a parsed spec for problems that would make it unbuildable.

    Returns the errors and the warnings, each as the line printed for it,
    ``error:L:C: message`` or ``warning:L:C: message`` (``0:0`` when no
    single declaration is at fault).  Warnings (elements that no
    relationship touches) do not block building.  The size of the layers
    that ``connectome.build`` generates is its own check.
    """
    errors: list[str] = []

    def err(message: str, line: int = 0, col: int = 0) -> None:
        errors.append(f"error:{line}:{col}: {message}")

    seen: dict[str, ElementDecl] = {}
    for el in spec.elements:
        if el.name in seen:
            err(f"element {el.name!r} declared twice", el.line, el.col)
        else:
            seen[el.name] = el
        if message := bound_error(f"threshold of {el.name!r}", el.threshold, THRESHOLD):
            err(message, el.line, el.col)
        if el.kind is Layer.EMOTION and el.affect is Affect.NEUTRAL:
            err(f"emotion {el.name!r} must declare a positive or negative affect", el.line, el.col)

    sensors = [el for el in spec.elements if el.kind is Layer.SENSORY]
    emotions = [el for el in spec.elements if el.kind is Layer.EMOTION]
    if not sensors:
        err("an organism needs at least one sensory element")
    if not emotions:
        err("an organism needs at least one emotion element")

    referenced: set[str] = set()
    wired: dict[tuple[str, str, str], RelationshipDecl] = {}
    for rel in spec.relationships:
        referenced.add(rel.a)
        referenced.add(rel.b)
        for name in (rel.a, rel.b):
            if name not in seen:
                err(f"relationship references undeclared element {name!r}", rel.line, rel.col)
        if rel.a == rel.b:
            err(f"element {rel.a!r} cannot relate to itself", rel.line, rel.col)
        for name, value in (("weight", rel.weight), ("mutability", rel.mutability)):
            if value is not None and (message := bound_error(name, value, WEIGHT)):
                err(message, rel.line, rel.col)
        # Sensors are inputs: nothing may synapse onto them.
        synapses = rel.synapses()
        for _, post, *_ in synapses:
            el = seen.get(post)
            if el is not None and el.kind is Layer.SENSORY:
                err(
                    f"{rel.kind.value} relationship would drive sensory element {post!r};"
                    " sensors are inputs only",
                    rel.line,
                    rel.col,
                )
        # Two relationships may not wire the same synapse or gap junction.
        wires = [(pre, "->", post) for pre, post, *_ in synapses]
        if rel.kind is RelationKind.CORRELATED:
            lo, hi = sorted((rel.a, rel.b))
            wires.append((lo, "<->", hi))
        for wire in wires:
            first = wired.setdefault(wire, rel)
            if first is not rel:
                err(
                    f"{' '.join(wire)} is already wired by the relationship at"
                    f" {first.line}:{first.col}",
                    rel.line,
                    rel.col,
                )

    emotion_names = {el.name for el in emotions}
    # b comes after the a that dominates it; graphlib reports the first cycle
    # of a depth-first search from each emotion in name order, along the
    # dominance edges in file order
    dominance = graphlib.TopologicalSorter(dict.fromkeys(sorted(emotion_names), ()))
    for rel in spec.relationships:
        if rel.kind is RelationKind.DOMINATES and {rel.a, rel.b} <= emotion_names:
            dominance.add(rel.b, rel.a)
    try:
        dominance.prepare()
    except graphlib.CycleError as exc:
        err("dominance cycle among emotions: " + " -> ".join(exc.args[1]))

    unwired = {TYPE_WORDS[word]: word for word in ("interneuron", "motor", "muscle")}
    warnings = [
        f"warning:{el.line}:{el.col}: {unwired[el.kind]} element {el.name!r}"
        " is not referenced by any relationship"
        for el in spec.elements
        if el.kind in unwired and el.name not in referenced
    ]
    return errors, warnings
