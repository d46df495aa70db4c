"""The outcome of `parse_element` on seeded literal mutants, pinned.

For each mutant and each argument set the outcome is the canonical literal
of the value, or the name of the error class raised.  The triples are pinned
by one digest, so a change in which error wins over which (ParseError, then
a level given by the caller, then raw below level 2, then the first error
that building raised) shows here even where every call still ends in some
NBaseError.
"""

import hashlib
import json
import random
from collections import Counter

import pytest

from nbase.enumeration import enumerate_elements
from nbase.errors import LevelMismatch, NBaseError
from nbase.grammar import format_element, parse_element

ARGUMENT_SETS = [{}, {"level": 1}, {"level": 2}, {"level": 3}, {"raw": True},
                 {"allow_zero": True}]
FIXED = ["*", "5", "0", "[0]", "[*]", "[[*]]"]
ALPHABET = "[],|*0123456789 x!"


def _mutants(literal, rng):
    """Seeded single-character deletions, insertions and substitutions."""
    out = []
    for _ in range(3):
        i = rng.randrange(len(literal))
        out.append(literal[:i] + literal[i + 1:])
        out.append(literal[:i] + rng.choice(ALPHABET) + literal[i:])
        out.append(literal[:i] + rng.choice(ALPHABET) + literal[i + 1:])
    return out


def _outcome(text, kwargs):
    try:
        return format_element(parse_element(text, **kwargs))
    except NBaseError as exc:
        return type(exc).__name__


def _triples():
    rng = random.Random("grammar outcomes")
    pool = ([format_element(e) for e in enumerate_elements(2, 4, 3)]
            + [format_element(e) for e in enumerate_elements(3, 3, 2)])
    texts = list(FIXED)
    for literal in rng.sample(pool, 250):
        texts.extend(_mutants(literal, rng))
    return [(text, kwargs, _outcome(text, kwargs))
            for text in texts for kwargs in ARGUMENT_SETS]


def test_mutant_outcomes_are_pinned():
    triples = _triples()
    kinds = Counter(o if o[0].isalpha() else "value" for _, _, o in triples)
    assert kinds == {
        "ParseError": 7098, "LevelMismatch": 2202, "RangeViolation": 2185,
        "value": 882, "MatchViolation": 506, "InvalidSequence": 337,
        "OrderViolation": 326,
    }
    blob = "\n".join(json.dumps(t, sort_keys=True) for t in triples)
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "3c7199525d29d1555d91fdee48719a36dd56470856c8afd596b7e01fe86f9195")


@pytest.mark.parametrize("text", ["[*]", "[[*]]", "[*,*|1]"])
def test_a_point_inside_brackets_is_a_level_mismatch(text):
    for kwargs in ARGUMENT_SETS:
        with pytest.raises(LevelMismatch):
            parse_element(text, **kwargs)
