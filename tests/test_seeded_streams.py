"""Seeded streams stay the same.

The random generators and ``encode`` build their outputs by grafting, so a
change to grafting that moved a factor or a map would show here.  The
digests were recorded before grafting stopped re-sorting; the level-3/4
graft maps were recorded while grafting merged v's factors into u's tail
instead of calling the swap-rule sort.  The ordinal
parser's stream, values and error classes over mutated notations, was
recorded while ``parse_ordinal`` still recursed per parenthesis.
"""

import hashlib
import os
import random
import subprocess
import sys

from nbase import ordinals
from nbase.elements import graft_at_slot, slots_F, total_G
from nbase.grammar import format_element
from nbase.randgen import random_element, random_with_total
from nbase.selftest import random_normal_form


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_randgen_elements_for_seeds_1_to_50_at_levels_2_to_4():
    lines = [format_element(random_element(level, random.Random(seed)))
             for level in (2, 3, 4) for seed in range(1, 51)]
    assert digest(lines) == (
        "1183bbbcfd89771df1f8d5d4ed0edc9818292ddca761ad9a78c890e257ee4ec0")


def test_graft_maps_at_levels_3_and_4():
    # triples drawn as in test_graft_and_head_contents_on_random_elements;
    # 210 of the 400 grafts put some of v's factors before u's last one
    lines = []
    for level in (3, 4):
        for seed in range(1, 51):
            rng = random.Random(seed)
            for _ in range(4):
                u = random_element(level, rng, grafts=rng.randint(1, 3),
                                   max_arity=3)
                W = total_G(u)
                slot = rng.randint(1, W.m)
                v = random_with_total(level, random_with_total(
                    level - 1, slots_F(W)[slot - 1], rng), rng)
                g = graft_at_slot(u, slot, v)
                lines.append(" ".join([format_element(g.element)] + [
                    repr(sorted(m.items())) for m in g[1:]]))
    assert len(lines) == 400
    assert digest(lines) == (
        "00c284cf2f2bdfa093a7e84c377373143484e51509e648db866673619cc02ca8")


def test_image_sweep_values():
    # recorded while Ordinal had the dataclass's structural == and hash
    for args, count, expected in (
            ((2, 3, 2), 17,
             "1a890b9151e6a09c671afca5d0e6b17d81b01428d97d370b4df314349e58bf4f"),
            ((3, 3, 2), 1782,
             "f8a029d5659c17da0f35cbc1401144e04e90468b1e3ac60b8156f17044910f1a")):
        values = sorted(map(ordinals.format_ordinal, ordinals.image_sweep(*args)))
        assert len(values) == count
        assert digest(values) == expected


def test_encode_over_the_criterion_8_notations():
    # the notations of test_criterion_8_ordinal_roundtrip, in its order
    lines = []
    for n in (1, 2, 3, 4):
        rng = random.Random(80 + n)
        done = 0
        while done < 500:
            beta = random_normal_form(rng, n, depth=5 if n > 1 else 0)
            if beta.is_zero() or ordinals.cmp(beta, ordinals._phi_bound(n)) >= 0:
                continue
            lines.append(format_element(ordinals.encode(beta, n)))
            done += 1
    assert digest(lines) == (
        "c716bee1c77ec35e02736177fb7ed601256377271d63b80a55bff85b0b28b774")


def mutants(text, rng):
    """text and three seeded mutants of it, with one, two and three edits."""
    out = [text]
    for edits in (1, 2, 3):
        mutant = text
        for _ in range(edits):
            pos = rng.randint(0, len(mutant))
            char = rng.choice("w^()+,phi 0123456789-")
            mutant = rng.choice([mutant[:pos] + char + mutant[pos:],
                                 mutant[:pos] + mutant[pos + 1:],
                                 mutant[:pos] + char + mutant[pos + 1:]])
        out.append(mutant)
    return out


def test_parse_ordinal_over_mutants_of_the_criterion_8_notations():
    # each literal's value, or the class of the error it raised; no literal
    # has more than 23 parentheses, so where the parse checks the nesting
    # bound does not show
    rng = random.Random(8)
    lines = []
    for n in (1, 2, 3, 4):
        gen = random.Random(80 + n)
        done = 0
        while done < 500:
            beta = random_normal_form(gen, n, depth=5 if n > 1 else 0)
            if beta.is_zero() or ordinals.cmp(beta, ordinals._phi_bound(n)) >= 0:
                continue
            for text in mutants(ordinals.format_ordinal(beta), rng):
                try:
                    value = ordinals.format_ordinal(ordinals.parse_ordinal(text))
                except Exception as exc:
                    value = type(exc).__name__
                lines.append("%r %s" % (text, value))
            done += 1
    assert len(lines) == 8000
    assert digest(lines) == (
        "da86cfcc65ba3fd416dc76d6836c1563b0c65f4e8bf38d91a5101543907cc171")


def test_the_digests_hold_without_check_mode():
    # the suite runs in check mode (see conftest.py); a user's process does
    # not, so there the outputs of compose, graft, normalize and embed are
    # trusted unvalidated: every digest above must come out the same
    here = os.path.dirname(os.path.abspath(__file__))
    env = {k: v for k, v in os.environ.items() if k != "NBASE_CHECK"}
    env["PYTHONPATH"] = os.pathsep.join(
        [here, os.path.join(os.path.dirname(here), "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p])
    names = sorted(name for name in globals() if name.startswith("test_")
                   and name != "test_the_digests_hold_without_check_mode")
    code = ("import test_seeded_streams as streams\n"
            "from nbase import elements\n"
            "print(elements._CHECK)\n"
            "for name in %r:\n"
            "    getattr(streams, name)()\n"
            "    print(name)\n" % (names,))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] + names
