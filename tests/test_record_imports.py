"""The commands that build records load neither ``dataclasses`` nor
``inspect``.

Each command runs in a fresh interpreter; what it leaves in ``sys.modules``
is what every such command pays for at start-up.
"""

import json
import os
import subprocess
import sys

import pytest

import nbase

SCRIPT = """
import contextlib, io, json, sys
import nbase.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = nbase.cli.main(%r)
print(json.dumps([code, sorted({"dataclasses", "inspect"} & set(sys.modules))]))
"""


@pytest.mark.parametrize("argv", [
    ["ord", "cmp", "1+w", "w"],
    ["ord", "encode", "--level", "3", "phi(2,0)+w"],
    ["ord", "eval", "--level", "2", "[1,1|1]"],
    ["group", "order", "--sym", "5"],
    ["group", "verify", "--tree", "[2,2,2|1,1]"],
    ["mor", "apply1", "[2,2|1]", '{"node_perms": [[2,1],[1,2]]}'],
    ["selftest", "counts"],
], ids=" ".join)
def test_no_dataclasses_or_inspect_after(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(nbase.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", SCRIPT % (argv,)], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]
