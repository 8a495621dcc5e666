"""Smoke tests of the scripts under scripts/, each run as a user runs it."""

import csv
import subprocess
import sys
from pathlib import Path

from pairdeutsch.noise import MAX_SHOTS

REPLICATE = Path(__file__).resolve().parents[1] / "scripts" / "replicate_cases.py"


def replicate(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(REPLICATE), *args],
                          capture_output=True, text=True, timeout=120)


def test_replicate_cases_writes_one_row_per_case_and_circuit(tmp_path):
    out = tmp_path / "cases.csv"
    proc = replicate("--shots", "64", "--csv", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 8  # 4 cases x 2 pair circuits
    assert {row["shots"] for row in rows} == {"64"}
    assert all(0.0 <= float(row["fidelity"]) <= 1.0 for row in rows)


def assert_one_usage_error(proc: subprocess.CompletedProcess, message: str) -> None:
    """Exit 2, nothing on stdout and one error: line that ends with `message`,
    the text of the CLI's own integer-flag and noise-loading helpers."""
    assert (proc.returncode, proc.stdout) == (2, ""), message
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(f"error: {message}"), proc.stderr
    assert "Traceback" not in proc.stderr


def test_replicate_cases_rejects_a_bad_shot_count():
    for shots, message in (("0", f"--shots must be in 1..{MAX_SHOTS}, got 0"),
                           ("-3", f"--shots must be in 1..{MAX_SHOTS}, got -3"),
                           ("many", '--shots must be an integer, got "many"')):
        assert_one_usage_error(replicate("--shots", shots), message)


def test_replicate_cases_rejects_a_bad_seed():
    for seed, message in (("-1", "--seed must be at least 0, got -1"),
                          ("seven", '--seed must be an integer, got "seven"')):
        assert_one_usage_error(replicate("--shots", "16", "--seed", seed), message)


def test_replicate_cases_rejects_a_bad_noise_model(tmp_path):
    missing = tmp_path / "missing.cfg"
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("garbage\n")
    one_qubit = tmp_path / "one_qubit.cfg"  # the pair circuits use 3 qubits
    one_qubit.write_text("single_qubit_gate_error_q0 = 0.01\nreadout_error_q0 = 0.02\n")
    for noise, message in (
        (missing, f'--noise: "{missing}" is neither "table2" nor a config file'),
        (malformed, f'--noise config {malformed}: line 1: expected "key = value", '
                    'got "garbage"'),
        (one_qubit, f"--noise config {one_qubit}: rates cover 1 qubit(s), "
                    "the circuit uses 3"),
    ):
        assert_one_usage_error(replicate("--shots", "16", "--noise", str(noise)), message)
