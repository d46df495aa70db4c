import json
import random
import re

import pytest

from nbase.elements import POINT, corolla
from nbase.enumeration import enumerate_elements
from nbase.errors import (
    LevelMismatch,
    NBaseError,
    ParseError,
    RangeViolation,
    SizeBound,
)
from nbase.grammar import (
    MAX_NESTING,
    element_from_json,
    element_to_json,
    format_element,
    parse_element,
)


def test_point():
    assert parse_element("*") == POINT
    assert format_element(POINT) == "*"


def test_level_inference():
    assert parse_element("7").level == 1
    assert parse_element("[2,2|1]").level == 2
    assert parse_element("[[2,2|1],[2|]|1]").level == 3


def test_explicit_level_lifts():
    # a corolla written at level 1 cannot silently be a level-2 literal
    with pytest.raises(LevelMismatch):
        parse_element("3", level=2)
    with pytest.raises(LevelMismatch):
        parse_element("[2,2|1]", level=1)


def test_whitespace_insensitive():
    assert parse_element(" [ 3 , 2 | 1 ] ") == parse_element("[3,2|1]")


def test_single_factor_literal():
    assert parse_element("[4|]") == parse_element("[4]")
    assert format_element(parse_element("[4|]")) == "[4|]"


def test_parse_errors():
    for bad in ("", "[", "[2,|1]", "[2,2|1] junk", "[2,2|]extra", "(2)"):
        with pytest.raises(ParseError):
            parse_element(bad)


@pytest.mark.parametrize("level,factors,arity", [(2, 3, 3), (3, 2, 2)])
def test_print_parse_roundtrip(level, factors, arity):
    for e in enumerate_elements(level, factors, arity):
        assert parse_element(format_element(e)) == e


def test_json_mirror():
    e = parse_element("[3,2,4,3|1,4,5]")
    blob = json.dumps(element_to_json(e))
    assert element_from_json(json.loads(blob)) == e
    assert element_to_json(corolla(4)) == {"level": 1, "arity": 4}


def test_raw_parse():
    g = parse_element("[2,2,2|2,1]", raw=True)
    assert g.indices == (2, 1)


def test_nesting_bound():
    deepest = "[" * MAX_NESTING + "1" + "|]" * MAX_NESTING
    x = parse_element(deepest)
    assert x.level == MAX_NESTING + 1 and format_element(x) == deepest
    # more brackets than the bound, but no deeper: the parser reports it
    with pytest.raises(ParseError):
        parse_element(deepest + "[]")
    with pytest.raises(SizeBound):
        parse_element("[" + deepest + "|]")


def _spaced(literal, rng):
    """The literal with random whitespace before, between and after tokens."""
    pieces = re.findall(r"\d+|\S", literal)
    gaps = rng.choices(["", "", " ", "\t", "\n", " \r\n "], k=len(pieces) + 1)
    return "".join(g + p for g, p in zip(gaps, pieces + [""]))


@pytest.mark.parametrize("level,factors,arity", [(2, 5, 3), (3, 3, 2)])
def test_roundtrip_with_whitespace_between_tokens(level, factors, arity):
    rng = random.Random("whitespace/%d" % level)
    for e in enumerate_elements(level, factors, arity):
        assert parse_element(_spaced(format_element(e), rng)) is e


MUTATION_ALPHABET = "[],|*0123456789 x!"
ARGUMENT_SETS = [{}, {"level": 2}, {"level": 3}, {"raw": True},
                 {"allow_zero": True}]


def _mutants(literal, rng):
    """Seeded single-character deletions, insertions and substitutions."""
    out = []
    for _ in range(3):
        i = rng.randrange(len(literal))
        out.append(literal[:i] + literal[i + 1:])
        out.append(literal[:i] + rng.choice(MUTATION_ALPHABET) + literal[i:])
        out.append(literal[:i] + rng.choice(MUTATION_ALPHABET) + literal[i + 1:])
    return out


def test_mutated_literals_parse_or_raise_domain_errors():
    """Every mutant parses to a value that round-trips, or raises an
    NBaseError: never IndexError, TypeError or a bare ValueError."""
    rng = random.Random("mutants")
    pool = ([format_element(e) for e in enumerate_elements(2, 4, 3)]
            + [format_element(e) for e in enumerate_elements(3, 3, 2)])
    parsed = 0
    for literal in rng.sample(pool, 200):
        for mutant in _mutants(literal, rng):
            for kwargs in ARGUMENT_SETS:
                try:
                    value = parse_element(mutant, **kwargs)
                except NBaseError:
                    continue
                parsed += 1
                assert parse_element(format_element(value), **kwargs) == value
    assert parsed > 100


def test_accepted_quirks():
    assert parse_element("[2,2|1,]") is parse_element("[2,2|1]")
    assert parse_element("[02|]") is parse_element("[2|]")
    assert parse_element("[2,2|01]") is parse_element("[2,2|1]")
    assert parse_element("[4]") is parse_element("[4|]")
    assert parse_element("\t[ 2\n,2|\n1 , ]\n") is parse_element("[2,2|1]")


@pytest.mark.parametrize("text,message", [
    ("[2,2|1 3]", "expected ']', found 3"),
    ("[2|1,,]", "expected ']', found ','"),
    ("[2 [", "expected ']', found '['"),
    ("[2,2|1", "unexpected end of input"),
    ("", "cannot parse element at token None"),
    ("[2,]", "cannot parse element at token ']'"),
    ("[2,2|1]]", "trailing input after element literal"),
    ("[2,2|1]x", "unexpected character 'x' at offset 7"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as exc:
        parse_element(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text,kwargs", [
    ("[2,2|5] junk", {}),
    ("[2,2|5]]", {}),
    ("[2,2|1] junk", {"level": 1}),
    ("[2,2|1,1", {}),
    ("[0,2|1 1]", {}),
])
def test_parse_error_wins_over_level_and_validation_errors(text, kwargs):
    with pytest.raises(ParseError):
        parse_element(text, **kwargs)


def test_zero_arity_needs_allow_zero():
    zero_graft = parse_element("[2,0|1]", allow_zero=True)
    assert zero_graft.factors[1].arity == 0
    for text in ("[2,0|1]", "0"):
        with pytest.raises(RangeViolation):
            parse_element(text)
    assert corolla(1).arity == 1
    for arity in (0, 1.0, -1):
        with pytest.raises(RangeViolation):
            corolla(arity)


def _json_chain(depth, top=None):
    obj = {"level": 1, "arity": 1}
    for level in range(2, depth + 1):
        obj = {"level": level, "factors": [obj], "indices": []}
    if top is not None:
        obj["level"] = top
    return obj


@pytest.mark.parametrize("obj", [
    {"level": 2},
    {"level": 1},
    {"arity": 3},
    {"level": 2, "factors": [{"level": 1, "arity": 2}]},
    [1],
    "[2|]",
    None,
    {"level": "2", "factors": [], "indices": []},
    {"level": 2.0, "factors": [{"level": 1, "arity": 2}], "indices": []},
    {"level": True, "arity": 1},
    {"level": 1, "arity": 1.0},
    {"level": 1, "arity": "3"},
    {"level": 2, "factors": {"level": 1, "arity": 2}, "indices": []},
    {"level": 2, "factors": [[2]], "indices": []},
    {"level": 2, "factors": [{"level": 1, "arity": 2}], "indices": None},
    {"level": -1},
])
def test_json_shape_errors_are_parse_errors(obj):
    with pytest.raises(ParseError):
        element_from_json(obj)


def test_json_factor_levels_bound_the_recursion():
    assert element_from_json(_json_chain(MAX_NESTING)).level == MAX_NESTING
    for obj in (_json_chain(MAX_NESTING + 1), _json_chain(2000)):
        with pytest.raises(SizeBound):
            element_from_json(obj)
    # a deep object that claims a low level stops at its first factor
    with pytest.raises(LevelMismatch):
        element_from_json(_json_chain(2000, top=3))
    with pytest.raises(LevelMismatch):
        element_from_json({"level": 2, "indices": [],
                           "factors": [{"level": 2, "factors": [], "indices": []}]})


def test_json_keeps_validation_errors():
    with pytest.raises(RangeViolation):
        element_from_json({"level": 1, "arity": 0})
    assert element_from_json({"level": 1, "arity": 0}, allow_zero=True).arity == 0
    with pytest.raises(RangeViolation):
        element_from_json({"level": 2, "factors": [{"level": 1, "arity": 2}] * 2,
                           "indices": [3]})
