"""Ordinal encoding as one walk per level.

``ordinals._assemble`` hangs every request's piece (a column's attachment
or a single-factor carrier) on the child lists of the embedded level below
and walks them once (``elements._hang``); ``HeadForm.recompose`` is the
same function.  The encodings are pinned by a digest recorded when each
level was still built by one graft per request, and the work per level is
bounded, both in factor count (``MAX_FACTORS``) and in compose calls.
"""

import hashlib
import os
import random
import subprocess
import sys
import time

import pytest

import nbase
from nbase import elements, ordinals
from nbase.elements import decompose_head, embed, graft_at_slot
from nbase.enumeration import enumerate_elements
from nbase.errors import RangeViolation, SizeBound
from nbase.grammar import format_element
from nbase.randgen import random_element
from nbase.selftest import random_normal_form


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def chain(d):
    """phi(3, .) nested d deep around 0."""
    return "phi(3," * d + "0" + ")" * d


def wide(n, d=20):
    """The sum of n copies of the chain nested d deep."""
    return "+".join([chain(d)] * n)


def notations():
    for n in (2, 3, 4):
        rng = random.Random(2100 + n)
        done = 0
        while done < 1000:
            beta = random_normal_form(rng, n, depth=5)
            if beta.is_zero() or ordinals.cmp(beta, ordinals._phi_bound(n)) >= 0:
                continue
            yield beta, n
            done += 1
    for d in range(1, 40):
        yield ordinals.parse_ordinal(chain(d)), 4
    for n in (10, 20):
        yield ordinals.parse_ordinal(wide(n)), 4


def test_encode_matches_the_digest_of_graft_by_graft_assembly():
    assert elements._CHECK  # conftest.py sets NBASE_CHECK=1
    lines = [format_element(ordinals.encode(beta, n)) for beta, n in notations()]
    assert len(lines) == 3041
    assert digest(lines) == (
        "abddbd98e40ee56f227fa42057744d5604ee554e28a2aa330b56e82f66fb49df")


@pytest.mark.parametrize("text", [wide(40), chain(120)], ids=["wide40", "deep120"])
def test_wide_and_deep_encodings_evaluate_back(text):
    beta = ordinals.parse_ordinal(text)
    z = ordinals.encode(beta, 4)
    assert z.m <= ordinals.MAX_FACTORS
    assert ordinals.cmp(ordinals.eval_phin(z), beta) == 0


def test_compose_work_less_than_doubles_from_20_to_40_terms(monkeypatch):
    calls = []
    compose = elements._compose

    def counted(*args):
        calls.append(1)
        return compose(*args)

    monkeypatch.setattr(elements, "_compose", counted)
    counts = []
    for n in (20, 40):
        beta = ordinals.parse_ordinal(wide(n))
        elements._compose_cache.clear()
        calls.clear()
        ordinals.encode(beta, 4)
        counts.append(len(calls))
    # graft by graft, with every pending request re-mapped after each
    # graft, the count went 6,441 -> 20,771
    assert counts[1] < 2 * counts[0], counts


def test_the_factor_count_is_bounded_before_the_walk(monkeypatch):
    walks = []
    hang = ordinals._hang
    monkeypatch.setattr(ordinals, "_hang", lambda *a: walks.append(a) or hang(*a))
    beta = ordinals.parse_ordinal(wide(200))
    with pytest.raises(SizeBound, match="4001 factors"):
        ordinals.encode(beta, 4)
    assert all(1 + sum(v.m for _slot, v in pieces) <= ordinals.MAX_FACTORS
               for _head, pieces in walks)


def test_the_200_term_sum_exits_1_fast_from_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(nbase.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    for flags in ([], ["-O"]):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "nbase.cli", "ord", "encode",
             "--level", "4", wide(200)],
            capture_output=True, text=True, env=env, timeout=60)
        assert time.perf_counter() - start < 10, flags
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("SizeBound: ") and proc.stderr.count("\n") == 1


def recompose_elements():
    xs = list(enumerate_elements(2, 4, 3)) + list(enumerate_elements(3, 3, 2))
    for level in (3, 4):
        for seed in range(1, 41):
            rng = random.Random(seed)
            xs.append(random_element(level, rng, grafts=rng.randint(1, 5), max_arity=3))
    return xs


def test_recompose_hangs_what_grafting_largest_slot_first_builds():
    for z in recompose_elements():
        hf = decompose_head(z)
        grafted = embed(hf.head)
        for att in sorted(hf.attachments, key=lambda a: -a.slot):
            grafted = graft_at_slot(grafted, att.slot, att.element).element
        assert hf.recompose() is grafted is z, format_element(z)


def test_hang_reports_where_every_piece_landed():
    # piece k's factor t is node 1 + (factors of the pieces before it) + t
    for z in recompose_elements():
        hf = decompose_head(z)
        pairs = [(att.slot, att.element) for att in hf.attachments]
        elem, reached = elements._hang(hf.head, pairs)
        assert elem is z and reached[1] == 1
        base = 1
        for att in hf.attachments:
            assert tuple(reached[base + t] for t in range(1, att.element.m + 1)) \
                == att.positions
            base += att.element.m
        assert sorted(t for t in reached if t > 0) == list(range(1, base + 1))
        assert sorted(s for t, s in reached.items() if t < 0) \
            == list(range(1, z._total.m + 1))


def test_recompose_refuses_a_slot_that_is_not_free():
    z = random_element(3, random.Random(3), grafts=3, max_arity=3)
    hf = decompose_head(z)
    att = hf.attachments[0]
    for attachments in ((att._replace(slot=0),),
                        (att._replace(slot=hf.head.m + 1),),
                        (att, att)):
        with pytest.raises(RangeViolation):
            hf._replace(attachments=attachments).recompose()
