"""A raw sequence with no factor is refused by name.

A level >= 2 sequence needs a head; without one there is no graft count
to compare the indices with.
"""

import pytest

from nbase.elements import GammaSequence, normalize
from nbase.errors import InvalidSequence


@pytest.mark.parametrize("level", [2, 3])
def test_normalize_refuses_an_empty_raw_sequence(level):
    with pytest.raises(InvalidSequence, match="^a raw sequence needs at least one factor$"):
        normalize(GammaSequence(level, (), ()))
