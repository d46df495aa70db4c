"""`nbase enum --count-only` prints the size of the unsorted pool.

It reads `enumeration._enumerate` directly, so it skips the sort that
`enumerate_elements` does, yet prints the same count and fails with the
same errors.
"""

import pytest

from nbase import enumeration
from nbase.cli import main
from nbase.enumeration import enumerate_elements


def run(capsys, *argv):
    code = main(["enum", *map(str, argv)])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("max_factors", [0, 2, 3])
def test_the_count_is_the_size_of_the_sorted_pool(capsys, level, max_factors):
    code, out, err = run(capsys, "--level", level, "--max-factors", max_factors,
                         "--max-arity", 2, "--count-only")
    assert (code, err) == (0, "")
    assert out == "%d\n" % len(enumerate_elements(level, max_factors, 2))


@pytest.mark.parametrize("bounds", [("--level", -1), ("--level", 3000),
                                    ("--level", 2, "--max-factors", 10 ** 6, "--max-arity", 1)])
def test_bad_bounds_fail_as_the_listing_does(capsys, bounds):
    listed = run(capsys, *bounds)
    counted = run(capsys, *bounds, "--count-only")
    assert counted == listed and counted[0] == 1 and counted[1] == ""


def test_count_only_does_not_sort(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerate_elements called")

    monkeypatch.setattr(enumeration, "enumerate_elements", refuse)
    assert run(capsys, "--level", 2, "--max-factors", 3, "--max-arity", 3,
               "--count-only") == (0, "%d\n" % len(enumeration._enumerate(2, 3, 3, 1)), "")
