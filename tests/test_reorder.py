"""The suite passes in any order.

The intern table, the compose memo and the other process tables live for
the whole run, so a test that needs a value not yet built must build
literals no other test builds.  ``tests/reorder.py`` reorders the
collected tests; this runs the two files whose check-mode tests need fresh
values, reversed, in a fresh process.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_trust_tests_pass_reversed():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "tests.reorder", "--reorder", "reverse",
         "tests/test_elements.py", "tests/test_tree_walk.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]
    assert " passed" in proc.stdout and "failed" not in proc.stdout
