"""The CLI contract.

- Every input ends in exit 0, 1 or 2, with no traceback, in bounded time
  (a property test over generated and mutated arguments).
- Help and usage texts are the ones in ``cli_usage.json``, recorded from
  the hand-written argparse set-up that the subcommand table replaced.
- ``import nbase.cli`` loads only what every command needs.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

import nbase
from nbase import enumeration
from nbase.cli import main
from nbase.enumeration import enumerate_elements
from nbase.grammar import format_element

HERE = os.path.dirname(os.path.abspath(__file__))


def call(argv):
    """(exit code, stdout, stderr) of main(argv), SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# -- help and usage texts --------------------------------------------------

with open(os.path.join(HERE, "cli_usage.json")) as _fh:
    USAGE = json.load(_fh)


@pytest.mark.skipif("%d.%d" % sys.version_info[:2] != USAGE["python"],
                    reason="argparse lays out help differently across Python "
                           "versions; the fixture was recorded on Python %s"
                           % USAGE["python"])
@pytest.mark.parametrize("case", USAGE["cases"], ids=lambda c: " ".join(c["argv"]))
def test_help_and_usage_errors_match_the_fixture(monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    assert call(case["argv"]) == (case["code"], case["stdout"], case["stderr"])


# -- import scope -----------------------------------------------------------

SCOPE = """
import contextlib, io, json, sys
import nbase.cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("nbase", "dataclasses"))

stages = [loaded()]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["compose", "--level", "1", "4", "2", "3"], ["fg", "[3,2|1]"],
                 ["normalize", "[2,2,2|2,1]"]):
        assert nbase.cli.main(argv) == 0
    stages.append(loaded())
    assert nbase.cli.main(["ord", "cmp", "1+w", "w"]) == 0
    stages.append(loaded())
print(json.dumps(stages))
"""


def test_cli_import_scope():
    src = os.path.dirname(os.path.dirname(os.path.abspath(nbase.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", SCOPE], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported, after_commands, after_cmp = json.loads(proc.stdout)
    base = ["nbase", "nbase.cli", "nbase.elements", "nbase.errors", "nbase.grammar"]
    assert imported == after_commands == base
    assert [m for m in after_cmp if m.startswith("nbase")] == sorted(
        base + ["nbase.ordinals", "nbase.trees"])


# -- the exit-code contract ---------------------------------------------------

ELEMENTS = [format_element(e) for level, factors, arity in
            ((1, 1, 4), (2, 3, 3), (3, 2, 2)) for e in
            enumerate_elements(level, factors, arity)]
ORDINALS = ["0", "1", "3", "w", "w+1", "1+w", "w^(2)", "w^(w)+w+2",
            "phi(1,0)", "phi(2,0)+w", "phi(2,1)", "phi(3,w)"]
NUMBER = st.integers(-3, 8).map(str)


@st.composite
def mutated(draw, valid, alphabet):
    """A valid literal, up to three one-character edits of one, or noise."""
    kind = draw(st.integers(0, 2))
    if kind == 2:
        return draw(st.text(alphabet, max_size=12))
    text = draw(st.sampled_from(valid))
    for _ in range(kind * draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(alphabet))
        text = draw(st.sampled_from([text[:pos] + char + text[pos:],
                                     text[:pos] + text[pos + 1:],
                                     text[:pos] + char + text[pos + 1:]]))
    return text


LITERAL = mutated(ELEMENTS, "[]|,* 0123456789x-")
ORDINAL = mutated(ORDINALS, "w^()+,phi 0123456789-")


def _json_of(key, items):
    return items.map(lambda v: json.dumps({key: v}))


PERMS = mutated([json.dumps({"node_perms": [[1, 2], [2, 1]]}),
                 json.dumps({"node_perms": [[1]]})], '{}[]":, 12node_perms') | \
    _json_of("node_perms", st.lists(st.lists(st.integers(0, 3), max_size=3),
                                    max_size=3))
SIGMA = mutated([json.dumps({"sigma": [2, 1]}), json.dumps({"sigma": [1]})],
                '{}[]":, 12sigma') | \
    _json_of("sigma", st.lists(st.integers(0, 3), max_size=3))


@st.composite
def options(draw, *pairs):
    """Each (option, value strategy or None for a flag) with probability 1/2."""
    argv = []
    for option, value in pairs:
        if draw(st.booleans()):
            argv += [option] if value is None else [option, draw(value)]
    return argv


def _element_options(*flags):
    return options(("--level", NUMBER), *((flag, None) for flag in flags))


SOURCE = st.one_of(st.tuples(st.just("--sym"), NUMBER),
                   st.tuples(st.just("--tree"), LITERAL)).map(list)


COMMANDS = {
    "validate": st.tuples(_element_options("--json", "--pretty"), LITERAL),
    "compose": st.tuples(_element_options("--json", "--pretty"),
                         LITERAL, NUMBER, LITERAL),
    "shuffle": st.tuples(_element_options("--json"), LITERAL, NUMBER, LITERAL),
    "normalize": st.tuples(_element_options("--json"), LITERAL),
    "fg": st.tuples(_element_options("--json"), LITERAL),
    "head": st.tuples(_element_options("--json"), LITERAL),
    "render": st.tuples(options(("--level", NUMBER),
                                ("--format", st.sampled_from(["ascii", "dot"]))),
                        LITERAL),
    "ord eval": st.tuples(options(("--level", NUMBER)), LITERAL),
    "ord encode": st.tuples(st.just("--level"), NUMBER, ORDINAL),
    "ord cmp": st.tuples(ORDINAL, ORDINAL),
    "ord add": st.tuples(ORDINAL, ORDINAL),
    "group present": st.tuples(SOURCE, options(("--gap", None))),
    "group order": st.tuples(SOURCE, options(("--max-cosets", NUMBER))),
    "group verify": st.tuples(st.just("--tree"), LITERAL,
                              options(("--max-cosets", NUMBER))),
    "enum": st.tuples(st.just("--level"), NUMBER,
                      options(("--max-factors", NUMBER), ("--max-arity", NUMBER),
                              ("--count-only", None), ("--binary", NUMBER))),
    "mor apply1": st.tuples(LITERAL, PERMS),
    "mor apply2": st.tuples(LITERAL, SIGMA),
    "mor square": st.tuples(LITERAL, PERMS, SIGMA),
    "mor induce": st.tuples(LITERAL, NUMBER, LITERAL,
                            options(("--sigma-f", SIGMA), ("--sigma-g", SIGMA))),
}


def _flatten(parts):
    for part in parts:
        if isinstance(part, str):
            yield part
        else:
            yield from part


# derandomized, so the examples are the same on every run
CONTRACT = settings(derandomize=True, database=None, deadline=None,
                    max_examples=40,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("command", sorted(COMMANDS))
@CONTRACT
@given(data=st.data())
def test_every_input_ends_in_exit_0_1_or_2(command, data):
    argv = command.split() + list(_flatten(data.draw(COMMANDS[command])))
    start = time.perf_counter()
    # the enumeration cap, lowered so that the largest bounds stay quick
    with mock.patch.object(enumeration, "MAX_ELEMENTS", 2000):
        code, _out, err = call(argv)
    assert time.perf_counter() - start < 5, argv
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err, argv
    if code == 1:
        assert err.count("\n") == 1 and ": " in err, (argv, err)


# -- the same contract under python -O ------------------------------------------

OPTIMIZED = """
import contextlib, io, json, sys, traceback
from unittest import mock
from nbase import enumeration
from nbase.cli import main

results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \\
            mock.patch.object(enumeration, "MAX_ELEMENTS", 2000):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code, err = None, io.StringIO(traceback.format_exc())
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""


def _sample(command, count):
    """The first ``count`` argv lists the derandomized strategy draws."""
    drawn = []

    @settings(CONTRACT, max_examples=count, phases=[Phase.generate])
    @given(data=st.data())
    def draw(data):
        drawn.append(command.split()
                     + list(_flatten(data.draw(COMMANDS[command]))))

    draw()
    return drawn[:count]


def test_every_input_ends_in_exit_0_1_or_2_under_python_O():
    # -O strips asserts, so no outcome may rest on one
    argvs = [argv for command in sorted(COMMANDS)
             for argv in _sample(command, 10)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(nbase.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED],
                          input=json.dumps(argvs), capture_output=True,
                          text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == len(argvs) >= 150
    for argv, (code, err) in zip(argvs, results):
        assert code in (0, 1, 2), (argv, err)
        assert "Traceback" not in err, argv
        if code == 1:
            assert err.count("\n") == 1 and ": " in err, (argv, err)
