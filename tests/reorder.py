"""Run the collected tests in another order, to find tests that lean on
what earlier tests left in the process tables.

Load it by name; it does nothing unless asked:

    PYTHONPATH=src python -m pytest -p tests.reorder --reorder reverse
    PYTHONPATH=src python -m pytest -p tests.reorder --reorder seed:1
"""

import random

import pytest


def pytest_addoption(parser):
    parser.addoption("--reorder", metavar="reverse|seed:N", default=None,
                     help="run the tests reversed, or shuffled with seed N")


def pytest_collection_modifyitems(config, items):
    how = config.getoption("reorder")
    if how is None:
        return
    if how == "reverse":
        items.reverse()
    elif how.startswith("seed:") and how[5:].isdigit():
        random.Random(int(how[5:])).shuffle(items)
    else:
        raise pytest.UsageError("--reorder takes reverse or seed:N, got %r" % how)
