"""Self-tests of the benchmark harness: the checks must catch a broken
program, and the traced run must count calls exactly and fail loudly when
it misses a binding.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402

run.load_cli()

import pairdeutsch.algorithms  # noqa: E402
import pairdeutsch.cli  # noqa: E402
import pairdeutsch.entanglement  # noqa: E402
from pairdeutsch.algorithms import DecodedAnswer  # noqa: E402

DENSITY_SPANS = ("qstate.expanded_unitary", "qstate.apply_gate_density",
                 "qstate.DensityMatrix.init", "qstate.partial_trace", "noise.depolarize")


def failed_frac(result: dict) -> float:
    return result["failed"] / result["attempted"]


@pytest.fixture(autouse=True)
def no_cold_start(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_program_at_head_passes_every_check(workload):
    result = run.run_workload(workload, seed=11, seconds=0.5, trace=False)
    assert result["attempted"] > 0
    assert failed_frac(result) == 0, result["failures"]


@pytest.mark.parametrize("workload", ["noisy-replay", "exact-queries"])
def test_wrong_decoder_is_caught(workload, monkeypatch):
    original = pairdeutsch.algorithms.decode
    monkeypatch.setattr(
        pairdeutsch.algorithms,
        "decode",
        lambda s: DecodedAnswer(balanced=1 - original(s).balanced,
                                different=original(s).different),
    )
    result = run.run_workload(workload, seed=11, seconds=0.5, trace=False)
    assert failed_frac(result) > 0


def test_wrong_audit_is_caught(monkeypatch):
    monkeypatch.setattr(pairdeutsch.entanglement, "_decidable_quantities",
                        lambda overlaps: pairdeutsch.entanglement.QUANTITIES)
    result = run.run_workload("theorem-checks", seed=11, seconds=0.5, trace=False)
    assert failed_frac(result) > 0


def per_layer(workload: str, seed: int = 11) -> dict:
    result = run.run_workload(workload, seed=seed, seconds=0.5, trace=True)
    assert failed_frac(result) == 0, result["failures"]
    return result["metrics"]


def test_traced_counts_repeat_and_density_path_is_separate():
    exact = per_layer("exact-queries")
    again = per_layer("exact-queries")
    counts = {k: v["value"] for k, v in exact.items() if k.endswith(".calls_per_req")}
    assert counts == {k: again[k]["value"] for k in counts}
    assert len(counts) == len(spans.SPANS)
    noisy = per_layer("noisy-replay")
    for span in DENSITY_SPANS:
        assert exact[f"{span}.calls_per_req"]["value"] == 0
        assert noisy[f"{span}.calls_per_req"]["value"] > 0
    assert "trace.overhead_frac" in exact and "trace.unattributed_ms_per_req" in exact


def test_missed_binding_fails_loudly(monkeypatch):
    hidden = pairdeutsch.cli.run_noisy
    monkeypatch.setattr(pairdeutsch.cli, "run_noisy", lambda *a, **k: hidden(*a, **k))
    with pytest.raises(run.BenchError, match="noise.run_noisy"):
        run.run_workload("noisy-replay", seed=11, seconds=0.5, trace=True)
