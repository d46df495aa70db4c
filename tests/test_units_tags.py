"""`r_normalize` has nothing to execute in a degeneracy tag and returns it."""

import pytest

from nbase.units import ERASER, ZERO, r_normalize


@pytest.mark.parametrize("tag", [ZERO, ERASER], ids=["zero", "eraser"])
def test_r_normalize_returns_a_tag_unchanged(tag):
    assert r_normalize(tag) is tag
