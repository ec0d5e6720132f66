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
"""

from __future__ import annotations

import enum
import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TypeVar

from .errors import OrtusError

KEYWORDS = frozenset(
    {"element", "relationship", "causes", "correlated", "opposes", "dominates"}
)

DEFAULT_THRESHOLD = 0.05
DEFAULT_WEIGHT = 0.5
DEFAULT_MUTABILITY = 0.5
DEFAULT_SCI_CAP = 1024


class LexError(OrtusError):
    """A character or malformed literal the tokenizer cannot accept."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ParseError(OrtusError):
    """A token sequence that does not match the grammar."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        detail = f"{line}:{col}: {message}"
        if expected:
            detail += " (expected " + " or ".join(sorted(expected)) + ")"
        super().__init__(detail)
        self.line = line
        self.col = col
        self.expected = frozenset(expected)


class OrderError(ParseError):
    """An element block that appears after the first relationship block."""


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
                value = float(text)
            except ValueError:
                raise LexError(f"malformed number {text!r}", line, col) from None
            tokens.append(Token(TokenKind.NUMBER, text, line, col, value=value))
        elif kind == "punct":
            tokens.append(Token(_PUNCT[text], text, line, col))
        # a name starts with a letter or '_', not with a numeral such as '½'
        elif kind == "name" and (text[0].isalpha() or text[0] == "_"):
            word = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(word, text, line, col))
        elif kind != "space":
            raise LexError(f"unexpected character {text[0]!r}", line, col)
    return tokens


# ---------------------------------------------------------------------------
# syntax tree
# ---------------------------------------------------------------------------


class ElementKind(enum.Enum):
    SENSORY = "sensory"
    INTERNEURON = "interneuron"
    MOTOR = "motor"
    MUSCLE = "muscle"
    EMOTION = "emotion"


class Affect(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    NEUTRAL = "neutral"


class RelationKind(enum.Enum):
    CAUSES = "causes"
    CORRELATED = "correlated"
    OPPOSES = "opposes"
    DOMINATES = "dominates"


class Sign(enum.Enum):
    PLUS = "+"
    MINUS = "-"


class Polarity(enum.Enum):
    EXCITATORY = "excitatory"
    INHIBITORY = "inhibitory"


@dataclass
class ElementDecl:
    name: str
    kind: ElementKind
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


@dataclass
class NetworkSpec:
    elements: list[ElementDecl]
    relationships: list[RelationshipDecl]

    def element(self, name: str) -> ElementDecl | None:
        for el in self.elements:
            if el.name == name:
                return el
        return None


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_E = TypeVar("_E", bound=enum.Enum)


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
                    raise OrderError(
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

    def _choice(self, token_kind: TokenKind, enum_type: type[_E], what: str) -> _E:
        """Read one word of ``enum_type``, written as a ``token_kind`` token."""
        words = tuple(sorted(member.value for member in enum_type))
        tok = self.next(what, words)
        if tok.kind is not token_kind or tok.text not in words:
            raise ParseError(f"unknown {what} {tok.text!r}", tok.line, tok.col, words)
        return enum_type(tok.text)

    def _number(self, key: str) -> float:
        tok = self.expect(TokenKind.NUMBER, f"{key} value", ("number",))
        return float(tok.value)  # type: ignore[arg-type]

    def _element(self, kw: Token) -> ElementDecl:
        name = self._ident("element name")
        self.expect(TokenKind.LBRACE, "element block", ("{",))
        kind: ElementKind | None = None
        affect = Affect.NEUTRAL
        threshold = DEFAULT_THRESHOLD
        for key in self._attributes("element", ("type", "affect", "threshold")):
            if key.text == "type":
                kind = self._choice(TokenKind.IDENT, ElementKind, "element type")
            elif key.text == "affect":
                affect = self._choice(TokenKind.IDENT, Affect, "affect")
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
        kind = self._choice(TokenKind.KEYWORD, RelationKind, "relationship kind")
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
                polarity = self._choice(TokenKind.IDENT, Polarity, "polarity")
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


def parse(tokens: list[Token]) -> NetworkSpec:
    """Parse a token stream into a NetworkSpec, defaulting omitted attributes."""
    return _Parser(tokens).parse()


def parse_source(source: str) -> NetworkSpec:
    return parse(tokenize(source))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    code: str
    message: str
    line: int = 0
    col: int = 0

    def __str__(self) -> str:
        return f"{self.severity.value}:{self.line}:{self.col}: {self.message}"


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)


def validate_spec(spec: NetworkSpec, *, sci_cap: int = DEFAULT_SCI_CAP) -> list[Diagnostic]:
    """Check a parsed spec for problems that would make it unbuildable.

    Returns a list of diagnostics; an empty list means the spec compiles
    cleanly.  Warnings (consolidation-layer explosion, elements that no
    relationship touches) do not block building.
    """
    diags: list[Diagnostic] = []

    def err(code: str, message: str, line: int = 0, col: int = 0) -> None:
        diags.append(Diagnostic(Severity.ERROR, code, message, line, col))

    def warn(code: str, message: str, line: int = 0, col: int = 0) -> None:
        diags.append(Diagnostic(Severity.WARNING, code, message, line, col))

    seen: dict[str, ElementDecl] = {}
    for el in spec.elements:
        if el.name in seen:
            err("duplicate-name", f"element {el.name!r} declared twice", el.line, el.col)
        else:
            seen[el.name] = el
        if not (0.0 <= el.threshold < 1.0):
            err(
                "bad-threshold",
                f"threshold of {el.name!r} must lie in [0, 1), got {el.threshold!r}",
                el.line,
                el.col,
            )
        if el.kind is ElementKind.EMOTION and el.affect is Affect.NEUTRAL:
            err(
                "neutral-emotion",
                f"emotion {el.name!r} must declare a positive or negative affect",
                el.line,
                el.col,
            )

    sensors = [el for el in spec.elements if el.kind is ElementKind.SENSORY]
    emotions = [el for el in spec.elements if el.kind is ElementKind.EMOTION]
    if not sensors:
        err("no-sensor", "an organism needs at least one sensory element")
    if not emotions:
        err("no-emotion", "an organism needs at least one emotion element")

    referenced: set[str] = set()
    for rel in spec.relationships:
        referenced.add(rel.a)
        referenced.add(rel.b)
        for name in (rel.a, rel.b):
            if name not in seen:
                err("undeclared", f"relationship references undeclared element {name!r}", rel.line, rel.col)
        if rel.a == rel.b:
            err("self-loop", f"element {rel.a!r} cannot relate to itself", rel.line, rel.col)
        if not (0.0 <= rel.weight <= 1.0):
            err("bad-weight", f"weight must lie in [0, 1], got {rel.weight!r}", rel.line, rel.col)
        if rel.mutability is not None and not (0.0 <= rel.mutability <= 1.0):
            err(
                "bad-mutability",
                f"mutability must lie in [0, 1], got {rel.mutability!r}",
                rel.line,
                rel.col,
            )
        # Sensors are inputs: nothing may synapse onto them.
        targets_sensor = []
        if rel.kind in (RelationKind.CAUSES, RelationKind.DOMINATES, RelationKind.OPPOSES):
            targets_sensor.append(rel.b)
        if rel.kind is RelationKind.OPPOSES:
            targets_sensor.append(rel.a)
        for name in targets_sensor:
            el = seen.get(name)
            if el is not None and el.kind is ElementKind.SENSORY:
                err(
                    "into-sensor",
                    f"{rel.kind.value} relationship would drive sensory element {name!r};"
                    " sensors are inputs only",
                    rel.line,
                    rel.col,
                )

    cycle = _dominance_cycle(spec, {el.name for el in emotions})
    if cycle:
        err("dominance-cycle", "dominance cycle among emotions: " + " -> ".join(cycle))

    n = len(sensors)
    if n and 2**n - 1 > sci_cap:
        warn(
            "sci-explosion",
            f"{n} sensory elements expand to 2^{n}-1 = {2**n - 1} sensory consolidation"
            f" interneurons, exceeding the cap of {sci_cap}",
        )

    for el in spec.elements:
        if el.kind in (ElementKind.INTERNEURON, ElementKind.MOTOR, ElementKind.MUSCLE):
            if el.name not in referenced:
                warn(
                    "unreferenced",
                    f"{el.kind.value} element {el.name!r} is not referenced by any relationship",
                    el.line,
                    el.col,
                )

    return diags


def _dominance_cycle(spec: NetworkSpec, emotions: set[str]) -> list[str] | None:
    adj: dict[str, list[str]] = {}
    for rel in spec.relationships:
        if rel.kind is RelationKind.DOMINATES and rel.a in emotions and rel.b in emotions:
            adj.setdefault(rel.a, []).append(rel.b)
    state: dict[str, int] = {}
    stack: list[str] = []

    def visit(node: str) -> list[str] | None:
        state[node] = 1
        stack.append(node)
        for nxt in adj.get(node, ()):
            if state.get(nxt, 0) == 1:
                return stack[stack.index(nxt):] + [nxt]
            if state.get(nxt, 0) == 0:
                found = visit(nxt)
                if found:
                    return found
        stack.pop()
        state[node] = 2
        return None

    for start in sorted(adj):
        if state.get(start, 0) == 0:
            found = visit(start)
            if found:
                return found
    return None


# ---------------------------------------------------------------------------
# pretty printer
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def format_spec(spec: NetworkSpec) -> str:
    """Render a spec back to canonical .ort text.

    The output makes every defaulted attribute explicit and parses back to a
    structurally equal spec.
    """
    lines: list[str] = []
    for el in spec.elements:
        lines.append(
            f"element {el.name} {{ type: {el.kind.value} affect: {el.affect.value}"
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
