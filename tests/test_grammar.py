import json

import pytest

from nbase.elements import POINT, corolla
from nbase.enumeration import enumerate_elements
from nbase.errors import LevelMismatch, ParseError, SizeBound
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
