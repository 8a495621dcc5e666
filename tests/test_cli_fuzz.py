"""Fuzz of the CLI boundary. Each example draws an argv from per-flag pools
of valid and invalid values, writes a generated noise config and counts
file, and runs `cli.main` in this process, so one parser serves every
example. Whatever the input, the exit code is 0, 1 or 2, never 3 (an
internal error), and a usage error (2) prints nothing to stdout and exactly
one `error:` line to stderr.

`parse_request` hands an argv that starts with a subcommand straight to
that subcommand's parser. The same pools, a stream of loose tokens and
fixed cases check that it always ends as the top-level parser would: the
same request, usage error text, or exit code and stdout."""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from types import MappingProxyType
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pairdeutsch import cli
from pairdeutsch.cli import EXIT_USAGE, SEED_ENV_VAR, UsageError, main, parse_request
from pairdeutsch.noise import NoiseModel

ORACLES = (["B1", "B2", "C1", "C2", "0:1,1:0", "0:0,1:0"],
           ["0:2,1:0", "B3", "", "b1"])
SEED = (["0", "7", str(2**70)], ["-1", "x", "1e3"])
NOISE = (["off", "table2", "{config}"], ["{dir}/missing.cfg", "{dir}", "noisy"])
CIRCUIT = {
    "--algorithm": (["deutsch", "entangled", "entangled_pair", "product",
                     "product_pair"], ["grover", ""]),
    "--f": ORACLES,
    "--g": ORACLES,
}
# command -> flag -> (valid values, invalid values); "{config}", "{counts}"
# and "{dir}" name the generated files and their folder
COMMANDS = {
    "run": {
        **CIRCUIT,
        "--shots": (["exact", "1", "8192", str(2**62)],
                    [str(2**62 + 1), "0", "-5", "1.5", "many", ""]),
        "--noise": NOISE,
        "--seed": SEED,
        "--output": (["json", "csv"], ["xml"]),
    },
    "verify": {"--output": (["json"], ["csv"])},
    "audit-theorem": {
        "--samples": (["1", "5"], ["0", "100001", "-3", "ten"]),
        "--grid": (["2", "3"], ["1", "257", "x"]),
        "--seed": SEED,
        "--output": (["json"], ["csv"]),
    },
    "fidelity": {
        "--counts": (["{counts}"], ["{dir}/missing.json", "{dir}", "{config}"]),
        "--theory": (["entangled:B1,B1", "product:C1,C2", "deutsch:B1"],
                     ["deutsch:B1,B2", "entangled:B1", "entangled:B1,C1", "nope",
                      "entangled:0:1,1:0,B2"]),
        "--seed": SEED,
        "--output": (["json"], ["csv"]),
    },
    "sweep-noise": {
        **CIRCUIT,
        "--scales": (["0,0.5,1", "1", "0", "-0"],
                     ["", "a,b", "-1", "nan", "inf", "1e9", " , ",
                      ",".join(["1"] * 1025)]),  # one factor over the cap
        "--noise": NOISE,
        "--output": (["json", "csv"], ["xml"]),
    },
    "runn": {},
    "": {},
}
# verify takes no input worth fuzzing and is the slowest command: draw it least
COMMAND_DRAWS = ["run", "fidelity"] * 3 + ["sweep-noise"] * 2 + [
    "audit-theorem", "verify", "runn", ""]
# left out, these two default to a 1000-sample, 51x52 audit: too slow to fuzz
ALWAYS_GIVEN = {"--samples", "--grid"}
STRAY_TOKENS = ["--frobnicate", "extra", "--", "-x", "--f", "--samples", "--scales"]

TABLE2_LINES = NoiseModel.table2().to_config_text().splitlines()
CONFIG_KEYS = ["single_qubit_gate_error_q1", "readout_error_q3",
               "two_qubit_gate_error_q0_q1", "two_qubit_gate_error_q2_q2",
               "coupling_q0", "single_qubit_gate_error_q" + "9" * 5000]
CONFIG_VALUES = ["0.01", "0", "1", "-0.1", "2", "nan", "inf", "1e-400", "abc", ""]
CONFIG_LINES = st.one_of(
    st.sampled_from(TABLE2_LINES),
    st.builds("{} = {}".format, st.sampled_from(CONFIG_KEYS),
              st.sampled_from(CONFIG_VALUES)),
    st.sampled_from(["", "# comment", "no equals sign", "="]),
)
CONFIG_TEXT = st.one_of(
    st.just("\n".join(TABLE2_LINES)),
    st.lists(CONFIG_LINES, max_size=12).map("\n".join),
    st.lists(CONFIG_LINES, max_size=3).map(lambda more: "\n".join(TABLE2_LINES + more)),
)
BITSTRINGS = st.sampled_from(["000", "100", "111", "01", "10", "1000", "abc", ""])
COUNT_VALUES = st.one_of(st.integers(-2, 2**63), st.booleans(), st.floats(),
                         st.none(), st.text(max_size=3))
COUNTS_TEXT = st.one_of(
    st.dictionaries(st.sampled_from(["000", "100", "111"]), st.integers(0, 1000),
                    min_size=1, max_size=3).map(json.dumps),
    st.dictionaries(BITSTRINGS, COUNT_VALUES, max_size=4).map(json.dumps),
    st.sampled_from(["", "[]", "{}", "null", "{", '{"111": NaN}',
                     "[" * 5000 + "]" * 5000, '{"111": ' + "7" * 5000 + "}"]),
)


def maybe(options: list):
    """None half the time, else one of `options`."""
    return st.one_of(st.none(), st.sampled_from(options)) if options else st.none()


@st.composite
def argvs(draw):
    """A command with at most one flag left out, at most one flag given an
    invalid value and at most one stray token."""
    command = draw(st.sampled_from(COMMAND_DRAWS))
    flags = COMMANDS[command]
    optional = [flag for flag in flags if flag not in ALWAYS_GIVEN]
    dropped = draw(maybe(optional))
    broken = draw(maybe(list(flags)))
    argv = [command] if command else []
    for flag, (valid, invalid) in flags.items():
        if flag != dropped:
            argv += [flag, draw(st.sampled_from(invalid if flag == broken else valid))]
    stray = draw(maybe(STRAY_TOKENS))
    return argv if stray is None else [*argv, stray]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs(), CONFIG_TEXT, COUNTS_TEXT,
       st.sampled_from([None] * 4 + ["3", "-2", "seven", "9" * 5000]))
def test_cli_never_fails_internally(argv, config, counts, env_seed):
    with tempfile.TemporaryDirectory() as folder:
        files = {"{config}": Path(folder, "noise.cfg"),
                 "{counts}": Path(folder, "counts.json")}
        files["{config}"].write_text(config)
        files["{counts}"].write_text(counts)
        argv = [files[a].as_posix() if a in files else a.replace("{dir}", folder)
                for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            os.environ.pop(SEED_ENV_VAR, None)
            if env_seed is not None:
                os.environ[SEED_ENV_VAR] = env_seed
            code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code == EXIT_USAGE:
        assert out.getvalue() == "", argv
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)


def parse_outcome(argv: list[str]) -> tuple:
    """What parse_request makes of argv: ("request", the RunRequest),
    ("usage", the error text) or ("exit", the code, what it printed)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            return "request", parse_request(argv)
    except UsageError as exc:
        return "usage", str(exc), out.getvalue()
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()


def top_level_outcome(argv: list[str]) -> tuple:
    """parse_outcome with no subcommand known by name, so that the top-level
    parser parses every argv and hands the rest to the subcommand's parser."""
    parser, _ = cli._build_parser()
    with mock.patch.object(cli, "_build_parser", lambda: (parser, MappingProxyType({}))):
        return parse_outcome(argv)


def assert_parsed_as_by_the_top_level(argv: list[str]) -> None:
    with mock.patch.dict(os.environ):
        os.environ.pop(SEED_ENV_VAR, None)
        assert parse_outcome(argv) == top_level_outcome(argv), argv


GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_cli.json").read_text())
PAIR = ["--algorithm", "entangled", "--f", "B1", "--g", "B1"]
FIDELITY = ["fidelity", "--counts", "counts.json", "--theory", "entangled:B1,B1"]
# the argv of the usage-error tests in test_cli.py; parsing reads no file
USAGE_ERRORS = [
    ["run", "--algorithm", "entangled", "--f", "B1", "--g", "C1"],
    ["run", "--algorithm", "entangled", "--f", "0:2,1:0", "--g", "B1"],
    ["run", *PAIR, "--frobnicate"],
    ["run", "--algorithm", "deutsch", "--f", "B1", "--g", "B2"],
    ["run", "--algorithm", "deutsch", "--f", "B1", "--shots", "10", "--seed", "-1"],
    ["run", "--algorithm", "deutsch", "--f", "B1", "--shots", "many"],
    ["run", *PAIR, "--shots", "100000000000000000000000"],
    ["run", *PAIR, "--shots", str(2**62 + 1)],
    [*FIDELITY, "--seed", "-1"],
    ["fidelity", "--counts", "counts.json", "--theory", "foo:B1"],
    *(["fidelity", "--counts", "counts.json", "--theory", theory]
      for theory in ("entangled=B1", "entangled:B1", "deutsch:B1,B1")),
    ["audit-theorem", "--samples", "10", "--grid", "3", "--seed", "-1"],
    ["audit-theorem", "--grid", "257"],
    ["audit-theorem", "--grid", "1"],
    ["audit-theorem", "--samples", "100001"],
    ["audit-theorem", "--samples", "0"],
    ["sweep-noise", "--algorithm", "deutsch", "--f", "B1", "--scales", "0,x"],
    ["sweep-noise", *PAIR, "--scales", ",".join(["1"] * 1025)],
    ["sweep-noise", *PAIR, "--noise", "off"],
    ["verify", "--output", "csv"],
]
# every invalid value of the pools above, the other flags valid, alone and
# followed by each stray token
POOL_ERRORS = [
    [command, *(arg for other, (valid, invalid) in flags.items() for arg in
                (other, invalid[i] if other == flag else valid[0])), *stray]
    for command, flags in COMMANDS.items() if command
    for flag, (_, invalid) in flags.items() for i in range(len(invalid))
    for stray in [[], *([token] for token in STRAY_TOKENS)]
]
NO_SUBCOMMAND = [[], ["--help"], ["-h"], ["--"], ["--", "run"], ["runn"], [""],
                 ["--seed", "3", "run"], ["run", "--help"], ["run", "--"],
                 ["verify", "--help"], ["audit-theorem", "-h", "--grid", "x"]]


@pytest.mark.parametrize("argv", [case["argv"] for case in GOLDEN.values()]
                         + USAGE_ERRORS + NO_SUBCOMMAND)
def test_parse_request_ends_as_the_top_level_parser_would(argv):
    assert_parsed_as_by_the_top_level(argv)


def test_every_pool_error_parses_as_by_the_top_level_parser():
    for argv in POOL_ERRORS:
        assert_parsed_as_by_the_top_level(argv)


TOKENS = [*COMMANDS, "--help", "-h", "--", "-", "--seed", "--output",
          "--algorithm", "--f", "--g", "--shots", "--noise", "--scales", "--samples",
          "--grid", "--counts", "--theory", "--alg", "--sh", "--f=B1", "--grid=3",
          "json", "csv", "deutsch", "entangled", "B1", "C2", "0:1,1:0", "3", "-1",
          "exact", "table2", "off", "0,1", "x", "entangled:B1,B1"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(argvs(), st.lists(st.sampled_from(TOKENS), max_size=9)))
# a request that kept a NaN factor would never equal its own reparse
@example(["sweep-noise", *PAIR, "--scales", "nan", "--noise", "table2",
          "--output", "json"])
def test_parse_request_agrees_with_the_top_level_parser(argv):
    assert_parsed_as_by_the_top_level(argv)
