"""``nbase selftest all`` runs every suite in this process and passes.

Pinned at seed 0 and size small: a case count that moves means a suite
draws or checks other cases than before.
"""

from nbase.cli import main
from nbase.selftest import SUITES

SUMMARY = {
    "axioms": 207553,
    "confluence": 800,
    "counts": 19,
    "groups": 30,
    "morphisms": 10687,
    "oracle": 50995,
    "ordinals": 400,
}


def test_every_suite_passes_at_seed_0(capsys):
    assert sorted(SUITES) == sorted(SUMMARY)
    code = main(["selftest", "all", "--seed", "0", "--size", "small"])
    out = capsys.readouterr().out
    assert out.splitlines() == ["suite %-10s pass %5d fail %3d" % (name, passed, 0)
                                for name, passed in sorted(SUMMARY.items())]
    assert code == 0
