"""Rules-language front end: lexer, parser, validation, and the round trip
through the printer in ``tests/printer.py``."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ortus.dsl import (
    TYPE_WORDS,
    Affect,
    ElementDecl,
    Layer,
    ParseError,
    Polarity,
    RelationKind,
    RelationshipDecl,
    Sign,
    TokenKind,
    parse_source,
    tokenize,
    validate_spec,
)
from printer import format_spec

MINIMAL = """
element sLIGHT { type: sensory }
element eJOY   { type: emotion affect: positive }
"""
TWO_EMOTIONS = MINIMAL + "element eFEAR { type: emotion affect: negative }\n"


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------


def test_tokenize_kinds_and_positions():
    toks = tokenize("element sX { type: sensory }")
    kinds = [t.kind for t in toks]
    assert kinds == [
        TokenKind.KEYWORD,
        TokenKind.IDENT,
        TokenKind.LBRACE,
        TokenKind.IDENT,
        TokenKind.COLON,
        TokenKind.IDENT,
        TokenKind.RBRACE,
    ]
    assert toks[0].line == 1 and toks[0].col == 1
    assert toks[1].text == "sX" and toks[1].col == 9


def test_tokenize_numbers_and_signs():
    toks = tokenize("weight: 0.75 -0.5 +1")
    values = [t.value for t in toks if t.kind is TokenKind.NUMBER]
    assert values == [0.75, 0.5, 1.0]
    assert TokenKind.MINUS in {t.kind for t in toks}
    assert TokenKind.PLUS in {t.kind for t in toks}


def test_comments_are_skipped():
    toks = tokenize("# a whole line\nelement # trailing\n")
    assert [t.text for t in toks] == ["element"]
    assert toks[0].line == 2


def test_tokenize_scientific_notation():
    toks = tokenize("threshold: 6.103515625e-05 1E3 2e+2")
    values = [t.value for t in toks if t.kind is TokenKind.NUMBER]
    assert values == [6.103515625e-05, 1000.0, 200.0]


@pytest.mark.parametrize("char", ["$", "½", "\f", "\u00a0"])
def test_lex_error_carries_position(char):
    with pytest.raises(ParseError) as exc:
        tokenize(f"element {char}bad")
    assert str(exc.value) == f"1:9: unexpected character {char!r}"


@pytest.mark.parametrize("number", ["0..5", ".e5", ".E7", "1²", "²", "1e²"])
def test_malformed_number_rejected(number):
    with pytest.raises(ParseError) as exc:
        tokenize(f"# comment\nweight: {number} }}")
    assert str(exc.value) == f"2:9: malformed number {number!r}"


@pytest.mark.parametrize(
    "source,tokens",
    [
        # names start with a letter or '_' and go on over any letter or digit
        ("x² _1 é", [(TokenKind.IDENT, "x²"), (TokenKind.IDENT, "_1"), (TokenKind.IDENT, "é")]),
        # a number is made of the decimal digits of any script
        ("٣.٥", [(TokenKind.NUMBER, "٣.٥")]),
        (
            "1e5x 2e",
            [(TokenKind.NUMBER, "1e5"), (TokenKind.IDENT, "x"), (TokenKind.NUMBER, "2"), (TokenKind.IDENT, "e")],
        ),
    ],
)
def test_tokenize_names_and_numbers_beyond_ascii(source, tokens):
    assert [(t.kind, t.text) for t in tokenize(source)] == tokens


def test_tokenize_values_and_columns_beyond_ascii():
    toks = tokenize("a\t٣.٥\r\n  x²:")
    assert [(t.line, t.col) for t in toks] == [(1, 1), (1, 3), (2, 3), (2, 5)]
    assert toks[1].value == 3.5


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def test_parse_element_defaults():
    light, _ = parse_source(MINIMAL).elements
    assert light.name == "sLIGHT"
    assert light.kind is Layer.SENSORY
    assert light.affect is Affect.NEUTRAL
    assert light.threshold == 0.05


def test_parse_element_attributes():
    (el,) = parse_source("element eX { type: emotion affect: negative threshold: 0.25 }").elements
    assert el.affect is Affect.NEGATIVE
    assert el.threshold == 0.25


def test_parse_causes_signs_and_defaults():
    spec = parse_source(
        MINIMAL + "relationship { +sLIGHT causes -eJOY }"
    )
    (rel,) = spec.relationships
    assert rel.kind is RelationKind.CAUSES
    assert (rel.a, rel.b) == ("sLIGHT", "eJOY")
    assert rel.a_sign is Sign.PLUS and rel.b_sign is Sign.MINUS
    assert rel.weight == 0.5
    assert rel.mutability == 0.5  # causes default
    assert rel.polarity is None


def test_parse_causes_omitted_signs_default_plus():
    spec = parse_source(MINIMAL + "relationship { sLIGHT causes eJOY }")
    (rel,) = spec.relationships
    assert rel.a_sign is Sign.PLUS and rel.b_sign is Sign.PLUS


def test_parse_causes_full_attributes():
    spec = parse_source(
        MINIMAL
        + "relationship { -sLIGHT causes +eJOY weight: 0.9 mutability: 0.1 polarity: inhibitory }"
    )
    (rel,) = spec.relationships
    assert rel.a_sign is Sign.MINUS
    assert rel.weight == 0.9
    assert rel.mutability == 0.1
    assert rel.polarity is Polarity.INHIBITORY


@pytest.mark.parametrize("kind", ["correlated", "opposes", "dominates"])
def test_parse_symmetric_kinds(kind):
    spec = parse_source(MINIMAL + f"relationship {{ sLIGHT {kind} eJOY weight: 0.3 }}")
    (rel,) = spec.relationships
    assert rel.kind is RelationKind(kind)
    assert rel.weight == 0.3
    assert rel.mutability is None  # only causes carries a default


@pytest.mark.parametrize("kind", ["correlated", "opposes", "dominates"])
def test_signs_rejected_outside_causes(kind):
    with pytest.raises(ParseError):
        parse_source(MINIMAL + f"relationship {{ +sLIGHT {kind} eJOY }}")


@pytest.mark.parametrize("attr", ["mutability: 0.3", "polarity: excitatory"])
def test_causes_only_attributes_rejected_elsewhere(attr):
    with pytest.raises(ParseError):
        parse_source(MINIMAL + f"relationship {{ sLIGHT opposes eJOY {attr} }}")


def test_element_after_relationship_is_an_order_error():
    src = MINIMAL + "relationship { sLIGHT causes eJOY }\nelement late { type: motor }"
    with pytest.raises(ParseError) as exc:
        parse_source(src)
    assert str(exc.value) == "5:1: element declared after a relationship; all elements must come first"


def test_duplicate_attribute_rejected():
    with pytest.raises(ParseError):
        parse_source("element sX { type: sensory threshold: 0.1 threshold: 0.2 }")


def test_missing_type_rejected():
    with pytest.raises(ParseError):
        parse_source("element sX { threshold: 0.1 }")


ELEMENT_KEYS = {"type", "affect", "threshold", "}"}
RELATIONSHIP_KEYS = {"weight", "mutability", "polarity", "}"}


@pytest.mark.parametrize(
    "source,position,expected",
    [
        ("element sX { type: spaceship }", (1, 20), {"sensory", "interneuron", "motor", "muscle", "emotion"}),
        ("element eX { affect: grumpy }", (1, 22), {a.value for a in Affect}),
        ("element sX { type: sensory colour: red }", (1, 28), ELEMENT_KEYS),
        ("element sX { type: sensory type: motor }", (1, 28), set()),
        ("element sX { threshold 0.1 }", (1, 24), {":"}),
        (MINIMAL + "relationship { sLIGHT loves eJOY }", (4, 23), {r.value for r in RelationKind}),
        (MINIMAL + "relationship { sLIGHT causes eJOY polarity: up }", (4, 45), {p.value for p in Polarity}),
        (MINIMAL + "relationship { sLIGHT causes eJOY speed: 1 }", (4, 35), RELATIONSHIP_KEYS),
        (MINIMAL + "relationship { sLIGHT opposes eJOY polarity: excitatory }", (4, 36), set()),
        (MINIMAL + "relationship { sLIGHT causes eJOY weight: 0.1", (4, 46), RELATIONSHIP_KEYS),
    ],
)
def test_parse_error_carries_position(source, position, expected):
    """The message starts with the position and ends with the tokens that
    would have been accepted, sorted, when there are any."""
    with pytest.raises(ParseError) as exc:
        parse_source(source)
    line, col = position
    suffix = " (expected " + " or ".join(sorted(expected)) + ")" if expected else ""
    assert re.fullmatch(rf"{line}:{col}: [^()]+{re.escape(suffix)}", str(exc.value))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_minimal_spec_validates_clean():
    assert validate_spec(parse_source(MINIMAL)) == ([], [])


INTO_SENSOR = "error:4:1: {} relationship would drive sensory element 'sLIGHT'; sensors are inputs only"


@pytest.mark.parametrize(
    "source,error",
    [
        (MINIMAL + "element sLIGHT { type: sensory }", "error:4:1: element 'sLIGHT' declared twice"),
        (
            "element sX { type: sensory threshold: 1.0 }\nelement eY { type: emotion affect: positive }",
            "error:1:1: threshold of 'sX' must lie in [0, 1), got 1.0",
        ),
        (
            "element sX { type: sensory }\nelement eY { type: emotion }",
            "error:2:1: emotion 'eY' must declare a positive or negative affect",
        ),
        ("element eY { type: emotion affect: positive }", "error:0:0: an organism needs at least one sensory element"),
        ("element sX { type: sensory }", "error:0:0: an organism needs at least one emotion element"),
        (
            MINIMAL + "relationship { sLIGHT causes eGHOST }",
            "error:4:1: relationship references undeclared element 'eGHOST'",
        ),
        (MINIMAL + "relationship { eJOY causes eJOY }", "error:4:1: element 'eJOY' cannot relate to itself"),
        (MINIMAL + "relationship { sLIGHT causes eJOY weight: 1.5 }", "error:4:1: weight must lie in [0, 1], got 1.5"),
        (
            MINIMAL + "relationship { sLIGHT causes eJOY mutability: 1.5 }",
            "error:4:1: mutability must lie in [0, 1], got 1.5",
        ),
        (MINIMAL + "relationship { eJOY causes sLIGHT }", INTO_SENSOR.format("causes")),
        (MINIMAL + "relationship { eJOY dominates sLIGHT }", INTO_SENSOR.format("dominates")),
        (MINIMAL + "relationship { sLIGHT opposes eJOY }", INTO_SENSOR.format("opposes")),
        (
            MINIMAL + "relationship { sLIGHT causes eJOY }\nrelationship { sLIGHT causes -eJOY }",
            "error:5:1: sLIGHT -> eJOY is already wired by the relationship at 4:1",
        ),
        (
            TWO_EMOTIONS + "relationship { eFEAR dominates eJOY }\nrelationship { eFEAR opposes eJOY }",
            "error:6:1: eFEAR -> eJOY is already wired by the relationship at 5:1",
        ),
        (
            TWO_EMOTIONS + "relationship { eFEAR opposes eJOY }\nrelationship { eJOY causes eFEAR }",
            "error:6:1: eJOY -> eFEAR is already wired by the relationship at 5:1",
        ),
        (
            MINIMAL + "relationship { sLIGHT correlated eJOY }\nrelationship { eJOY correlated sLIGHT }",
            "error:5:1: eJOY <-> sLIGHT is already wired by the relationship at 4:1",
        ),
    ],
)
def test_validation_errors(source, error):
    assert validate_spec(parse_source(source)) == ([error], [])


@pytest.mark.parametrize(
    "relationships,message",
    [
        ("eFEAR dominates eJOY }\nrelationship { eFEAR opposes eJOY", "eFEAR -> eJOY"),
        ("eFEAR opposes eJOY }\nrelationship { eJOY causes eFEAR", "eJOY -> eFEAR"),
        ("eFEAR correlated eJOY }\nrelationship { eJOY correlated eFEAR", "eFEAR <-> eJOY"),
    ],
)
def test_duplicate_wiring_names_both_relationships(relationships, message):
    errors, _ = validate_spec(parse_source(TWO_EMOTIONS + f"relationship {{ {relationships} }}"))
    # reported once, at the later relationship, naming the declared elements
    assert errors == [f"error:6:1: {message} is already wired by the relationship at 5:1"]


def test_distinct_wiring_between_the_same_elements_is_fine():
    src = TWO_EMOTIONS + """relationship { eJOY causes eFEAR }
relationship { eFEAR causes eJOY }
relationship { eJOY correlated eFEAR }
"""
    assert validate_spec(parse_source(src)) == ([], [])


def test_dominance_cycle_detected():
    src = """
element sX { type: sensory }
element eA { type: emotion affect: positive }
element eB { type: emotion affect: negative }
element eC { type: emotion affect: negative }
relationship { eA dominates eB }
relationship { eB dominates eC }
relationship { eC dominates eA }
"""
    errors, _ = validate_spec(parse_source(src))
    assert errors == ["error:0:0: dominance cycle among emotions: eA -> eB -> eC -> eA"]


def test_dominance_cycle_reported_is_the_first_found_from_the_emotions_in_name_order():
    """A depth-first search from eA along the edges in file order reaches eB,
    then eC, which closes the cycle through eB before eB's edge back to eA
    is tried."""
    src = """
element sX { type: sensory }
element eA { type: emotion affect: positive }
element eB { type: emotion affect: negative }
element eC { type: emotion affect: negative }
relationship { eB dominates eC }
relationship { eC dominates eB }
relationship { eA dominates eB }
relationship { eB dominates eA }
"""
    errors, _ = validate_spec(parse_source(src))
    assert errors == ["error:0:0: dominance cycle among emotions: eB -> eC -> eB"]


def test_dominance_chain_is_fine():
    src = """
element sX { type: sensory }
element eA { type: emotion affect: positive }
element eB { type: emotion affect: negative }
relationship { eA dominates eB }
"""
    assert validate_spec(parse_source(src)) == ([], [])


def test_unreferenced_warning_only_for_wirable_kinds():
    src = MINIMAL + "element mARM { type: motor }\nelement sSPARE { type: sensory }"
    assert validate_spec(parse_source(src)) == (
        [], ["warning:4:1: motor element 'mARM' is not referenced by any relationship"]
    )


def test_diagnostic_str_format():
    src = MINIMAL + "      relationship { sLIGHT causes eJOY weight: 1.5 }"
    assert validate_spec(parse_source(src)) == (["error:4:7: weight must lie in [0, 1], got 1.5"], [])


# ---------------------------------------------------------------------------
# pretty printer round trip
# ---------------------------------------------------------------------------


def test_format_round_trip_by_hand():
    src = """
element sX { type: sensory threshold: 0.01 }
element eY { type: emotion affect: negative threshold: 0.3 }
relationship { +sX causes -eY weight: 0.75 mutability: 0.0 }
relationship { sX correlated eY weight: 0.25 }
"""
    spec = parse_source(src)
    again = parse_source(format_spec(spec))
    assert again.elements == spec.elements
    assert again.relationships == spec.relationships


_names = st.sampled_from(["sA", "sB", "mC", "eD", "nE", "uF"])
_kinds = st.sampled_from(list(TYPE_WORDS.values()))
_affects = st.sampled_from(list(Affect))
_signs = st.sampled_from(list(Sign))
_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_thresholds = st.floats(min_value=0.0, max_value=0.99, allow_nan=False)


@st.composite
def specs(draw):
    names = draw(st.lists(_names, unique=True, min_size=1, max_size=4))
    elements = [
        ElementDecl(name, draw(_kinds), draw(_affects), draw(_thresholds)) for name in names
    ]
    rels = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(list(RelationKind)))
        a, b = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        if kind is RelationKind.CAUSES:
            rels.append(
                RelationshipDecl(
                    kind, a, b,
                    draw(_signs), draw(_signs),
                    weight=draw(_unit),
                    mutability=draw(_unit),
                    polarity=draw(st.sampled_from([None, Polarity.EXCITATORY, Polarity.INHIBITORY])),
                )
            )
        else:
            rels.append(RelationshipDecl(kind, a, b, None, None, weight=draw(_unit)))
    from ortus.dsl import NetworkSpec

    return NetworkSpec(elements, rels)


@settings(max_examples=200, deadline=None)
@given(specs())
def test_format_parse_round_trip(spec):
    """Printing and re-parsing any well-formed spec is the identity."""
    again = parse_source(format_spec(spec))
    assert again.elements == spec.elements
    assert again.relationships == spec.relationships


# Words of the language, a few well-formed fragments, and characters that
# start no token or no valid number.
_soup = st.lists(
    st.sampled_from(
        [
            "element", "relationship", "causes", "correlated", "opposes", "dominates",
            "type", "affect", "threshold", "weight", "mutability", "polarity",
            "sensory", "emotion", "motor", "positive", "excitatory", "sX", "eY",
            "{", "}", ":", "+", "-", "0.5", "1e-3", ".", "..", "#", "\n",
            "²", "٣", "$", "½", "element sX { type: sensory }",
            "relationship { sX causes eY weight: 0.1 }",
        ]
    ),
    max_size=20,
).map(lambda words: " ".join(words))


@settings(max_examples=300, deadline=None)
@given(_soup, st.sampled_from(["", " ", "²", ".e5", "1²"]))
def test_parser_fails_only_with_positioned_errors(text, tail):
    """Any text parses, or fails with a ParseError whose message starts with
    a position."""
    try:
        parse_source(text + tail)
    except ParseError as exc:
        assert re.match(r"[1-9][0-9]*:[1-9][0-9]*: ", str(exc))
