"""A number in an element literal too long for int() ends in SizeBound.

Python converts at most ``sys.get_int_max_str_digits()`` digits (4300 by
default).  A longer digit run is refused with ``SizeBound`` where the scan
reads it, so an earlier ParseError still wins; both the API and the CLI
(exit 1, one line on stderr, no traceback) say so, with and without -O.
"""

import os
import subprocess
import sys

import pytest

import nbase
from nbase.errors import ParseError, SizeBound
from nbase.grammar import parse_element

LONG = "1" * 5000


@pytest.mark.parametrize("text", [
    "[%s|]" % LONG,          # a factor
    "[1|%s]" % LONG,         # an index
    "[1 %s]" % LONG,         # where "]" is expected
    LONG,                    # a level-1 literal
])
def test_a_long_number_is_a_size_bound(text):
    with pytest.raises(SizeBound, match="5000 digits"):
        parse_element(text)


def test_a_parse_error_before_it_still_wins():
    with pytest.raises(ParseError):
        parse_element("[1,,%s]" % LONG)


def test_the_limit_is_read_when_the_number_is():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(SizeBound, match="700 digits"):
            parse_element("[1|%s]" % ("1" * 700))
    finally:
        sys.set_int_max_str_digits(old)


API = ("from nbase.grammar import parse_element\n"
       "try:\n"
       "    parse_element('[' + '1' * 5000 + '|]')\n"
       "except Exception as exc:\n"
       "    print(type(exc).__name__)\n")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_api_and_cli_under_python_and_python_O(flags):
    src = os.path.dirname(os.path.dirname(os.path.abspath(nbase.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    api = subprocess.run([sys.executable, *flags, "-c", API], capture_output=True,
                         text=True, env=env, timeout=60)
    assert api.stdout == "SizeBound\n" and api.stderr == ""
    cli = subprocess.run([sys.executable, *flags, "-m", "nbase.cli", "validate",
                          "[%s|]" % LONG], capture_output=True, text=True,
                         env=env, timeout=60)
    assert cli.returncode == 1 and cli.stdout == ""
    assert cli.stderr.startswith("SizeBound: ") and cli.stderr.count("\n") == 1
    assert "Traceback" not in cli.stderr
