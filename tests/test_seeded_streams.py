"""Seeded streams stay the same.

The random generators and ``encode`` build their outputs by grafting, so a
change to grafting that moved a factor or a map would show here.  The
digests were recorded before grafting stopped re-sorting.
"""

import hashlib
import random

from nbase import ordinals
from nbase.grammar import format_element
from nbase.randgen import random_element
from nbase.selftest import random_normal_form


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_randgen_elements_for_seeds_1_to_50_at_levels_2_to_4():
    lines = [format_element(random_element(level, random.Random(seed)))
             for level in (2, 3, 4) for seed in range(1, 51)]
    assert digest(lines) == (
        "1183bbbcfd89771df1f8d5d4ed0edc9818292ddca761ad9a78c890e257ee4ec0")


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
