"""Smoke tests of the scripts under scripts/, each run as a user runs it."""

import csv
import subprocess
import sys
from pathlib import Path

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


def test_replicate_cases_rejects_a_bad_shot_count():
    for shots in ("0", "-3", "many"):
        proc = replicate("--shots", shots)
        assert (proc.returncode, proc.stdout) == (2, ""), shots
        errors = [line for line in proc.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--shots" in errors[0], proc.stderr
        assert "Traceback" not in proc.stderr


def test_replicate_cases_rejects_a_bad_seed():
    for seed in ("-1", "seven"):
        proc = replicate("--shots", "16", "--seed", seed)
        assert (proc.returncode, proc.stdout) == (2, ""), seed
        errors = [line for line in proc.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--seed" in errors[0], proc.stderr
        assert "Traceback" not in proc.stderr


def test_replicate_cases_rejects_a_bad_noise_model(tmp_path):
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("garbage\n")
    one_qubit = tmp_path / "one_qubit.cfg"  # the pair circuits use 3 qubits
    one_qubit.write_text("single_qubit_gate_error_q0 = 0.01\nreadout_error_q0 = 0.02\n")
    for noise in (str(tmp_path / "missing.cfg"), str(malformed), str(one_qubit)):
        proc = replicate("--shots", "16", "--noise", noise)
        assert (proc.returncode, proc.stdout) == (2, ""), noise
        errors = [line for line in proc.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--noise" in errors[0], proc.stderr
        assert "Traceback" not in proc.stderr
