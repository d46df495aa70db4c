"""The text the CLI prints for shuffle maps and level-2 morphisms, pinned
in-process, with the exit code of each command."""

import pytest

from nbase.cli import main

CASES = [
    (["shuffle", "[2,2|2]", "1", "[2,1|2]"], 0, "phi 2->3\npsi 1->1 2->2\n"),
    (["shuffle", "--json", "[2,2|2]", "1", "[2,1|2]"], 0,
     '{"i": 1, "phi": {"2": 3}, "psi": {"1": 1, "2": 2}}\n'),
    (["mor", "apply2", "[2,2|1]", '{"sigma": [2,1]}'], 0,
     '{"target": "[2,2|1]", "sigma": [2, 1]}\n'),
    # no valid element keeps the graft indices under this sigma
    (["mor", "apply2", "[2,1|2]", '{"sigma": [2,1]}'], 0, '{"morphism": null}\n'),
    (["mor", "square", "[2,1|2]", '{"node_perms": [[1,2],[1]]}', '{"sigma": [2,1]}'], 1,
     '{"square": null}\n'),
    (["mor", "induce", "[2,2|1]", "1", "[2,1|2]", "--sigma-f", '{"sigma": [2,1]}'], 0,
     '{"source": "[2,2,1|1,3]", "target": "[2,2,1|1,2]", "sigma": [2, 1, 3]}\n'),
]


@pytest.mark.parametrize("argv, code, out", CASES, ids=[" ".join(c[0][:2]) for c in CASES])
def test_output_is_pinned(capsys, argv, code, out):
    assert main(argv) == code
    assert capsys.readouterr() == (out, "")
