"""Golden CLI outputs: every subcommand, algorithm alias, output format and
run mode (exact, shots, table2 and config-file noise) must print exactly the
recorded bytes.

`tests/data/golden_cli.json` maps each case name to its argv and to the exit
code, stdout and stderr of `main(argv)` run from the repository root, with
the `timestamp` line of JSON envelopes removed. The outputs were recorded
before the algorithm table and the shared gate kernel were introduced, so
this test pins refactors of those layers to the old behaviour byte for byte.
"""

import json
import re
from pathlib import Path

import pytest

from pairdeutsch.cli import SEED_ENV_VAR, SUBCOMMANDS, main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "data" / "golden_cli.json").read_text())
TIMESTAMP_LINE = re.compile(r'^  "timestamp": "[^"]*",\n', re.MULTILINE)


def test_golden_covers_every_subcommand():
    assert len(GOLDEN) == 42
    commands = {case["argv"][0] for case in GOLDEN.values()}
    assert commands == set(SUBCOMMANDS)  # a new subcommand needs golden cases


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_is_byte_identical(name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    expected = GOLDEN[name]
    code = main(expected["argv"])
    captured = capsys.readouterr()
    assert code == expected["exit"]
    assert TIMESTAMP_LINE.sub("", captured.out) == expected["stdout"]
    assert captured.err == expected["stderr"]
