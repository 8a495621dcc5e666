import dataclasses
import json
import re
from collections import Counter
import subprocess
import sys
from types import MappingProxyType

import numpy as np
import pytest

import pairdeutsch.algorithms
import pairdeutsch.cli
import pairdeutsch.entanglement
import pairdeutsch.noise
import pairdeutsch.oracles
import pairdeutsch.qstate
from pairdeutsch.algorithms import (
    ENTANGLED_PAIR,
    PRODUCT_PAIR,
    DecodedAnswer,
    run_entangled_pair,
)
from pairdeutsch.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    SEED_ENV_VAR,
    UsageError,
    _build_parser,
    emit,
    execute,
    main,
    parse_request,
)
from pairdeutsch.entanglement import random_product_params
from pairdeutsch.noise import NoiseModel, sample_shots
from pairdeutsch.oracles import B1, PromisePair
from pairdeutsch.verify import verify_build


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def without_timestamp(raw: str) -> dict:
    data = json.loads(raw)
    data.pop("timestamp")
    return data


def test_parse_run_request():
    req = parse_request(
        ["run", "--algorithm", "entangled", "--f", "B1", "--g", "B2",
         "--shots", "exact"]
    )
    assert req.command == "run"
    assert req.algorithm == ENTANGLED_PAIR
    assert req.oracle_f.name == "B1"
    assert req.oracle_g.name == "B2"
    assert req.shots == "exact"
    assert req.noise == "off"


def test_parse_truth_table_flag():
    req = parse_request(
        ["run", "--algorithm", "entangled", "--f", "0:0,1:1", "--g", "B1"]
    )
    assert (req.oracle_f.f0, req.oracle_f.f1) == (B1.f0, B1.f1)


def test_parse_rejects_promise_violation():
    with pytest.raises(UsageError, match="promise violated"):
        parse_request(["run", "--algorithm", "entangled", "--f", "B1", "--g", "C1"])


def test_parse_rejects_malformed_truth_table():
    with pytest.raises(UsageError, match='"0:2"'):
        parse_request(["run", "--algorithm", "entangled", "--f", "0:2,1:0",
                       "--g", "B1"])


def test_parse_rejects_unknown_flag():
    with pytest.raises(UsageError):
        parse_request(["run", "--algorithm", "entangled", "--f", "B1", "--g", "B1",
                       "--frobnicate"])


def test_cli_exit_codes_and_error_prefix(capsys, monkeypatch, tmp_path):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"111": 10}))
    fidelity = ["fidelity", "--counts", str(counts), "--theory", "entangled:B1,B1"]
    run_shots = ["run", "--algorithm", "deutsch", "--f", "B1", "--shots", "10"]
    audit = ["audit-theorem", "--samples", "10", "--grid", "3"]
    pair = ["--algorithm", "entangled", "--f", "B1", "--g", "B1"]
    # (argv, PAIRDEUTSCH_SEED or None)
    rows = [
        (["run", "--algorithm", "entangled", "--f", "B1", "--g", "C1"], None),
        ([*run_shots, "--seed", "-1"], None),
        ([*fidelity, "--seed", "-1"], None),
        ([*audit, "--seed", "-1"], None),
        (run_shots, "-2"),
        (fidelity, "-2"),
        (audit, "-2"),
        (["run", *pair, "--shots", "100000000000000000000000"], None),
        (["run", *pair, "--noise", str(tmp_path)], None),
        (["sweep-noise", *pair, "--noise", str(tmp_path)], None),
        (["fidelity", "--counts", str(tmp_path), "--theory", "entangled:B1,B1"], None),
        (["audit-theorem", "--grid", "257"], None),
        (["audit-theorem", "--grid", "1"], None),
        (["audit-theorem", "--samples", "100001"], None),
        (["audit-theorem", "--samples", "0"], None),
        (["sweep-noise", *pair, "--scales", ",".join(["1"] * 1025)], None),
    ]
    for argv, env_seed in rows:
        if env_seed is None:
            monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(SEED_ENV_VAR, env_seed)
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (EXIT_USAGE, ""), (argv, env_seed, err)
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_shared_parser_parses_each_request_as_a_fresh_one(monkeypatch, tmp_path):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"111": 10}))
    requests = [
        ["run", "--algorithm", "entangled", "--f", "B1", "--g", "B2",
         "--shots", "100", "--noise", "table2", "--seed", "3", "--output", "csv"],
        ["audit-theorem", "--samples", "5", "--grid", "3"],
        ["fidelity", "--counts", str(counts), "--theory", "product:C1,C2"],
        ["sweep-noise", "--algorithm", "deutsch", "--f", "B2", "--scales", "0,1"],
        ["run", "--algorithm", "deutsch", "--f", "C1"],  # defaults, not leftovers
    ]
    alone = []
    for argv in requests:
        _build_parser.cache_clear()
        alone.append(parse_request(argv))
    _build_parser.cache_clear()
    assert [parse_request(argv) for argv in requests] == alone
    assert _build_parser.cache_info().misses == 1


def test_run_exact_probabilities(capsys):
    code, out, _ = run_cli(
        capsys,
        ["run", "--algorithm", "entangled", "--f", "B1", "--g", "B1",
         "--shots", "exact"],
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["probabilities"] == pytest.approx({"100": 0.5, "111": 0.5})
    assert data["queries"] == {"f": 1, "g": 1}
    assert data["gate_count"] == 7
    assert data["decoded"] == {"balanced": 1, "different": 0}
    steps = {row["step"]: row["product"] for row in data["separability"]}
    assert steps["initialize"] is False


def test_run_deutsch_decoded_has_no_different(capsys):
    code, out, _ = run_cli(capsys, ["run", "--algorithm", "deutsch", "--f", "C2"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["decoded"] == {"balanced": 0}
    assert all(len(k) == 2 for k in data["probabilities"])


def test_run_rejects_g_for_deutsch(capsys):
    code, _, err = run_cli(
        capsys, ["run", "--algorithm", "deutsch", "--f", "C2", "--g", "B1"]
    )
    assert code == EXIT_USAGE
    assert "--g" in err


def test_run_with_shots_is_deterministic(capsys):
    argv = ["run", "--algorithm", "product", "--f", "B1", "--g", "B2",
            "--shots", "512", "--seed", "9", "--noise", "table2"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == EXIT_OK
    d1, d2 = without_timestamp(out1), without_timestamp(out2)
    assert json.dumps(d1) == json.dumps(d2)  # byte-identical apart from timestamp
    assert sum(d1["counts"].values()) == 512


def test_json_round_trip():
    request = parse_request(
        ["run", "--algorithm", "entangled", "--f", "B1", "--g", "B1"]
    )
    envelope, code = execute(request)
    assert code == EXIT_OK
    assert json.loads(emit(envelope, "json")) == envelope.as_dict()


def test_emit_rejects_what_no_subcommand_can_ask_for():
    verify_envelope, _ = execute(parse_request(["verify"]))
    with pytest.raises(UsageError) as info:
        emit(verify_envelope, "csv")
    assert str(info.value) == "csv output is only available for run and sweep-noise"
    envelope, _ = execute(
        parse_request(["run", "--algorithm", "entangled", "--f", "B1", "--g", "B1"]))
    with pytest.raises(UsageError) as info:
        emit(envelope, "xml")
    assert str(info.value) == "unknown output format 'xml'"


def test_csv_output(capsys):
    code, out, _ = run_cli(
        capsys,
        ["run", "--algorithm", "entangled", "--f", "B1", "--g", "B1",
         "--shots", "100", "--seed", "3", "--output", "csv"],
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "bitstring,probability,count"
    assert len(lines) == 3
    total = 0
    for line in lines[1:]:
        bitstring, probability, count = line.split(",")
        assert re.fullmatch(r"[01]{3}", bitstring)
        assert float(probability) == pytest.approx(0.5, abs=1e-10)
        total += int(count)
    assert total == 100


def test_csv_probabilities_round_trip_exactly(capsys):
    code, out, _ = run_cli(
        capsys,
        ["run", "--algorithm", "entangled", "--f", "B1", "--g", "B1",
         "--noise", "table2", "--output", "csv"],
    )
    assert code == EXIT_OK
    noisy = pairdeutsch.noise.run_noisy(
        ENTANGLED_PAIR, PromisePair(B1, B1), NoiseModel.table2()
    )
    for line in out.strip().splitlines()[1:]:
        bitstring, probability, _ = line.split(",")
        assert float(probability) == noisy[bitstring]  # .17g formatting is lossless


def test_verify_passes_on_correct_build(capsys):
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["passed"] is True
    assert data["summary"]["correctness-entangled"] == "8/8"
    assert data["summary"]["correctness-product"] == "8/8"
    assert data["summary"]["correctness-deutsch"] == "4/4"


def test_verify_fails_with_broken_decode(capsys, monkeypatch):
    def broken_decode(bitstring):
        answer = DecodedAnswer(balanced=1 - int(bitstring[0]),
                               different=int(bitstring[1]) ^ int(bitstring[2]))
        return answer

    monkeypatch.setattr(pairdeutsch.algorithms, "decode", broken_decode)
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == EXIT_CHECK_FAILED
    assert json.loads(out)["passed"] is False


def test_verify_fails_if_product_run_entangles(capsys, monkeypatch):
    # The product row gets the entangled circuit plus a padding query: its
    # query budget stays f: 2, g: 1, but the run now passes through entangled
    # steps.
    table = pairdeutsch.algorithms.ALGORITHMS
    gates = table[ENTANGLED_PAIR].gates + (("f", (0, 1), "extra"),)
    product = dataclasses.replace(table[PRODUCT_PAIR], gates=gates)
    monkeypatch.setattr(pairdeutsch.algorithms, "ALGORITHMS",
                        MappingProxyType({**table, PRODUCT_PAIR: product}))
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == EXIT_CHECK_FAILED
    report = json.loads(out)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert any(name.startswith("separability-product") for name in failed)


def test_verify_fails_exactly_the_checks_that_read_a_failed_run(capsys, monkeypatch):
    circuit_ops = pairdeutsch.algorithms.circuit_ops

    def broken_ops(algorithm, oracles):  # the product walk stops before its first gate
        if algorithm == PRODUCT_PAIR:
            raise RuntimeError("product circuit unavailable")
        return circuit_ops(algorithm, oracles)

    monkeypatch.setattr(pairdeutsch.algorithms, "circuit_ops", broken_ops)
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == EXIT_CHECK_FAILED
    checks = json.loads(out)["checks"]
    failed = [c for c in checks if not c["passed"]]
    groups = sorted(c["name"].split(":")[0] for c in failed)
    assert groups == ["correctness-product"] * 8 + ["separability-product"] * 8
    assert {c["detail"] for c in failed} == {"product circuit unavailable"}
    assert sum(c["passed"] for c in checks) == 20


def test_verify_runs_each_circuit_once_per_oracle_choice(monkeypatch):
    walks, gates, built = [], [], Counter()
    run_many = pairdeutsch.algorithms.run_many
    apply_gate = pairdeutsch.algorithms.apply_gate
    circuit_ops = pairdeutsch.algorithms.circuit_ops
    monkeypatch.setattr(pairdeutsch.algorithms, "run_many",
                        lambda alg, oracles: walks.append((alg, len(oracles)))
                        or run_many(alg, oracles))
    monkeypatch.setattr(pairdeutsch.algorithms, "apply_gate",
                        lambda *a: gates.append(a) or apply_gate(*a))
    monkeypatch.setattr(pairdeutsch.algorithms, "circuit_ops",
                        lambda alg, oracles: built.update([alg])
                        or circuit_ops(alg, oracles))
    assert verify_build().passed
    # one walk per circuit, each member's gate list built once
    assert sorted(walks) == [("deutsch", 4), ("entangled_pair", 8), ("product_pair", 8)]
    assert built == {"deutsch": 4, "entangled_pair": 8, "product_pair": 8}
    assert len(gates) == 5 + 7 + 9  # one per gate of each circuit (148 run by run)


def test_each_analysis_is_one_schmidt_call_for_all_cuts(monkeypatch):
    calls = []  # (rows, cut) of each schmidt_analyze call
    real = pairdeutsch.entanglement.schmidt_analyze
    monkeypatch.setattr(pairdeutsch.entanglement, "schmidt_analyze",
                        lambda state, left: calls.append((len(state.amplitudes), left))
                        or real(state, left))
    assert verify_build().passed
    # the steps of all 16 pair records, 8 x 4 + 8 x 5, once per qubit, in one call
    assert calls == [(3 * (8 * 4 + 8 * 5), [0])]
    for argv, qubits in (
        (["run", "--algorithm", "entangled", "--f", "B1", "--g", "B2"], 3),
        (["run", "--algorithm", "product", "--f", "C1", "--g", "C2"], 3),
        (["run", "--algorithm", "deutsch", "--f", "B1"], 2),
    ):
        calls.clear()
        envelope, code = execute(parse_request(argv))
        assert code == EXIT_OK
        assert calls == [(qubits * len(envelope.payload["separability"]), [0])], argv


def test_largest_shot_counts_are_accepted(capsys, tmp_path):
    code, out, _ = run_cli(capsys, ["run", "--algorithm", "deutsch", "--f", "B1",
                                    "--shots", str(2**62)])
    assert code == EXIT_OK
    assert sum(json.loads(out)["counts"].values()) == 2**62
    path = tmp_path / "counts.json"
    path.write_text(json.dumps({"100": 2**61, "111": 2**61}))
    code, out, _ = run_cli(
        capsys, ["fidelity", "--counts", str(path), "--theory", "entangled:B1,B1"]
    )
    assert code == EXIT_OK
    assert json.loads(out)["shots"] == 2**62


def test_audit_theorem_smoke(capsys):
    code, out, _ = run_cli(capsys, ["audit-theorem", "--samples", "100",
                                    "--grid", "11"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["passed"] is True
    decidable = {f["family"]: f["decidable"] for f in data["families"]}
    assert decidable["any-tensor-minus"] == ["f0_xor_f1"]
    assert decidable["any-tensor-plus"] == []


def test_audit_theorem_reports_each_disagreement(capsys, monkeypatch):
    real = pairdeutsch.cli.cnot_product_condition
    flipped = [1, 4, 6]

    def disagreeing(params):
        predicted, actual = real(params)
        actual = actual.copy()
        actual[flipped] = ~actual[flipped]
        return predicted, actual

    monkeypatch.setattr(pairdeutsch.cli, "cnot_product_condition", disagreeing)
    code, out, _ = run_cli(capsys, ["audit-theorem", "--samples", "7",
                                    "--grid", "3", "--seed", "11"])
    assert code == EXIT_CHECK_FAILED
    data = json.loads(out)
    assert data["passed"] is False
    entries = data["cnot_product_condition"]["disagreements"]
    assert len(entries) == len(flipped)
    samples = random_product_params(7, 11)
    for i, entry in zip(flipped, entries):
        assert entry["predicted"] != entry["actual"]
        for name, v in zip(("alpha", "beta", "gamma", "delta"), samples[i]):
            assert complex(entry[name]) == v  # repr(complex): numpy-version independent


@pytest.mark.parametrize("samples", [1, 100, 1000])
def test_audit_theorem_makes_one_stacked_check_whatever_its_sample_count(
    samples, monkeypatch
):
    calls = []

    def counting(module, name):
        real = getattr(module, name)
        counted = lambda *a: calls.append(name) or real(*a)  # noqa: E731
        monkeypatch.setattr(module, name, counted)

    counting(pairdeutsch.cli, "cnot_product_condition")
    counting(pairdeutsch.entanglement, "apply_gate")
    counting(pairdeutsch.entanglement, "schmidt_analyze")
    check = pairdeutsch.qstate.StateVector.__post_init__
    monkeypatch.setattr(pairdeutsch.qstate.StateVector, "__post_init__",
                        lambda self: calls.append("check") or check(self))
    request = parse_request(["audit-theorem", "--samples", str(samples),
                             "--grid", "3", "--seed", "5"])
    envelope, code = execute(request)
    assert code == EXIT_OK
    assert envelope.payload["cnot_product_condition"]["samples"] == samples
    assert sorted(calls) == [  # the CNOT output is checked; its input rows were
        "apply_gate", "check", "cnot_product_condition", "schmidt_analyze"
    ]


@pytest.mark.parametrize("grid", [3, 51])
def test_audit_theorem_audits_all_families_in_one_call(grid, monkeypatch):
    calls = Counter()

    def counting(module, name):
        real = getattr(module, name)
        counted = lambda *a: calls.update([name]) or real(*a)  # noqa: E731
        monkeypatch.setattr(module, name, counted)

    counting(pairdeutsch.cli, "audit_family_distinguishability")
    counting(pairdeutsch.entanglement, "_checked_rows")
    for module in (pairdeutsch.oracles, pairdeutsch.algorithms,
                   pairdeutsch.entanglement):  # every binding: no call goes uncounted
        counting(module, "oracle_unitary")
    envelope, code = execute(parse_request(["audit-theorem", "--grid", str(grid)]))
    assert code == EXIT_OK
    families = envelope.payload["families"]
    assert [f["samples"] for f in families] == [grid * (grid + 1)] * 4
    assert calls == {  # the samples and the grid are each checked once
        "audit_family_distinguishability": 1, "_checked_rows": 2, "oracle_unitary": 3
    }


def test_fidelity_subcommand(capsys, tmp_path):
    ideal = run_entangled_pair(PromisePair(B1, B1)).final_distribution
    counts = sample_shots(ideal, 8192, seed=5)
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(counts))
    code, out, _ = run_cli(
        capsys, ["fidelity", "--counts", str(path), "--theory", "entangled:B1,B1"]
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert 0.99 < data["fidelity"]["value"] <= 1.0
    assert 0.0 < data["fidelity"]["stderr"] < 0.02
    assert data["shots"] == 8192


def test_fidelity_theory_with_truth_tables(capsys, tmp_path):
    path = tmp_path / "counts.json"
    path.write_text(json.dumps({"111": 10}))
    code, out, _ = run_cli(
        capsys, ["fidelity", "--counts", str(path), "--theory",
                 "product:0:0,1:1,B1"]
    )
    assert code == EXIT_OK
    assert json.loads(out)["fidelity"]["value"] == pytest.approx(1.0, abs=1e-10)


def test_fidelity_rejects_bad_theory(capsys, tmp_path):
    path = tmp_path / "counts.json"
    path.write_text(json.dumps({"111": 10}))
    # the pair-arity errors name --theory, the flag fidelity has, not --g
    for theory in ("entangled=B1", "entangled:B1", "deutsch:B1,B1"):
        code, _, err = run_cli(
            capsys, ["fidelity", "--counts", str(path), "--theory", theory]
        )
        assert code == EXIT_USAGE
        assert "--theory" in err and "--g" not in err


def test_fidelity_rejects_bad_counts_file(capsys, tmp_path):
    path = tmp_path / "counts.json"
    path.write_text(json.dumps({"111": -3}))
    code, _, err = run_cli(
        capsys, ["fidelity", "--counts", str(path), "--theory", "entangled:B1,B1"]
    )
    assert code == EXIT_USAGE
    assert "--counts" in err
    code, _, err = run_cli(
        capsys, ["fidelity", "--counts", str(tmp_path / "nope.json"),
                 "--theory", "entangled:B1,B1"]
    )
    assert code == EXIT_USAGE
    # keys must be as wide as the --theory circuit, counts must not be bools
    # ... and must total 1..2**62, in a UTF-8 file that json can decode
    # (not nested past the recursion limit, no integer over 4300 digits)
    for counts, theory in (({"1": 10, "01": 5}, "entangled:B1,B1"),
                           ({"100": 10}, "deutsch:B1"),
                           ({"111": True}, "entangled:B1,B1"),
                           ({"111": 0}, "entangled:B1,B1"),
                           ({"111": 10**23}, "entangled:B1,B1"),
                           ({"111": 2**62, "100": 1}, "entangled:B1,B1"),
                           ("\xff\xfe not utf-8", "entangled:B1,B1"),
                           ("[" * 5000 + "]" * 5000, "entangled:B1,B1"),
                           ('{"111": ' + "7" * 5000 + "}", "entangled:B1,B1")):
        if isinstance(counts, str):
            path.write_bytes(counts.encode("latin-1"))
        else:
            path.write_text(json.dumps(counts))
        code, out, err = run_cli(
            capsys, ["fidelity", "--counts", str(path), "--theory", theory]
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: --counts") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["run", "--algorithm", "deutsch", "--f", "B1", "--shots", "many"],
     '--shots must be a positive integer or "exact", got "many"'),
    (["sweep-noise", "--algorithm", "deutsch", "--f", "B1", "--scales", "0,x"],
     '--scales: "x" is not a number'),
    (["fidelity", "--counts", "counts.json", "--theory", "foo:B1"],
     '--theory: unknown algorithm "foo"'),
], ids=["shots", "scales", "theory"])
def test_usage_errors_name_the_flag_and_the_value(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


def test_fidelity_rejects_a_counts_file_that_is_not_json(capsys, tmp_path):
    path = tmp_path / "counts.json"
    path.write_text('{"111": 5,')
    code, out, err = run_cli(
        capsys, ["fidelity", "--counts", str(path), "--theory", "entangled:B1,B1"]
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"error: --counts: {path} is not valid JSON (")
    assert err.endswith(")\n") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_help_exits_zero(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_OK and out.startswith("usage: pairdeutsch") and err == ""


def test_sweep_noise_json(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep-noise", "--algorithm", "entangled", "--f", "B1", "--g", "B1",
         "--scales", "0,0.5,1,2"],
    )
    assert code == EXIT_OK
    rows = json.loads(out)["sweep"]
    assert [row["scale"] for row in rows] == [0.0, 0.5, 1.0, 2.0]
    fidelities = [row["fidelity"] for row in rows]
    assert all(b <= a + 1e-12 for a, b in zip(fidelities, fidelities[1:]))
    assert all(row["argmax_correct"] for row in rows)


def test_sweep_noise_csv_header(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep-noise", "--algorithm", "product", "--f", "C1", "--g", "C2",
         "--scales", "0,1", "--output", "csv"],
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "scale,fidelity,argmax_correct"
    assert len(lines) == 3


def test_sweep_noise_csv_scale_keeps_every_digit(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep-noise", "--algorithm", "entangled", "--f", "B1", "--g", "B1",
         "--scales", "0,0.5,1,2,1.0000001,1.0000002,1e-05", "--output", "csv"],
    )
    assert code == EXIT_OK
    scales = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
    assert scales == ["0", "0.5", "1", "2", "1.0000001", "1.0000002", "1e-05"]


@pytest.mark.parametrize("count", [1, 4, 16])
def test_sweep_noise_makes_one_walk_whatever_its_scale_count(count, monkeypatch):
    checks, walks = [], []
    check = pairdeutsch.qstate.DensityMatrix.__post_init__
    monkeypatch.setattr(pairdeutsch.qstate.DensityMatrix, "__post_init__",
                        lambda self: checks.append(self) or check(self))
    circuit_ops = pairdeutsch.algorithms.circuit_ops
    counted = lambda *a: walks.append(a) or circuit_ops(*a)  # noqa: E731
    monkeypatch.setattr(pairdeutsch.algorithms, "circuit_ops", counted)
    monkeypatch.setattr(pairdeutsch.noise, "circuit_ops", counted)
    scales = ",".join(str(0.1 * i) for i in range(count))
    request = parse_request(["sweep-noise", "--algorithm", "product", "--f", "B1",
                             "--g", "B2", "--scales", scales])
    envelope, code = execute(request)
    assert code == EXIT_OK and len(envelope.payload["sweep"]) == count
    assert (len(checks), len(walks)) == (1, 2)  # the ideal run and one walk


def test_sweep_noise_scale_cap_is_inclusive(capsys):
    argv = ["sweep-noise", "--algorithm", "deutsch", "--f", "B1", "--output", "csv"]
    code, out, _ = run_cli(capsys, [*argv, "--scales", ",".join(["0.5"] * 1024)])
    assert code == EXIT_OK and len(out.strip().splitlines()) == 1025
    code, out, err = run_cli(capsys, [*argv, "--scales", ",".join(["0.5"] * 1025)])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: --scales must list 1..1024 factors, got 1025\n"


def test_sweep_noise_rejects_off(capsys):
    code, _, err = run_cli(
        capsys,
        ["sweep-noise", "--algorithm", "entangled", "--f", "B1", "--g", "B1",
         "--noise", "off"],
    )
    assert code == EXIT_USAGE


def test_noise_config_file_flows_through_run(capsys, tmp_path):
    path = tmp_path / "noise.cfg"
    NoiseModel.table2().save(path)
    argv_cfg = ["run", "--algorithm", "entangled", "--f", "B1", "--g", "B1",
                "--noise", str(path)]
    argv_t2 = ["run", "--algorithm", "entangled", "--f", "B1", "--g", "B1",
               "--noise", "table2"]
    _, out_cfg, _ = run_cli(capsys, argv_cfg)
    _, out_t2, _ = run_cli(capsys, argv_t2)
    assert (
        json.loads(out_cfg)["probabilities"] == json.loads(out_t2)["probabilities"]
    )


def test_noise_config_must_cover_the_circuit(capsys, tmp_path):
    no_pair_1_2 = tmp_path / "no-pair.cfg"
    no_pair_1_2.write_text(
        NoiseModel.table2().to_config_text().replace("two_qubit_gate_error_q1_q2", "#")
    )
    two_qubits = tmp_path / "two-qubits.cfg"
    two_qubits.write_text(
        "single_qubit_gate_error_q0 = 0.001\nsingle_qubit_gate_error_q1 = 0.001\n"
        "readout_error_q0 = 0.01\nreadout_error_q1 = 0.01\n"
        "two_qubit_gate_error_q0_q1 = 0.02\n"
    )
    pair = ["--algorithm", "entangled", "--f", "B1", "--g", "B1"]
    for argv, message in (
        (["run", *pair, "--noise", str(no_pair_1_2)], "pair (1, 2)"),
        (["sweep-noise", *pair, "--noise", str(no_pair_1_2)], "pair (1, 2)"),
        (["run", *pair, "--noise", str(two_qubits)], "cover 2 qubit(s)"),
        (["sweep-noise", *pair, "--noise", str(two_qubits)], "cover 2 qubit(s)"),
    ):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: --noise config") and err.count("\n") == 1
        assert message in err
    # the circuits that avoid the missing rates still run
    product = ["--algorithm", "product", "--f", "B1", "--g", "B1"]
    assert run_cli(capsys, ["run", *product, "--noise", str(no_pair_1_2)])[0] == EXIT_OK
    deutsch = ["run", "--algorithm", "deutsch", "--f", "B1", "--noise", str(two_qubits)]
    assert run_cli(capsys, deutsch)[0] == EXIT_OK


def test_noisy_requests_check_coverage_once(capsys, monkeypatch, tmp_path):
    calls = []
    rates = NoiseModel.gate_rates
    monkeypatch.setattr(NoiseModel, "gate_rates",
                        lambda self, *a: calls.append(a) or rates(self, *a))
    no_pair = tmp_path / "no-pair.cfg"
    no_pair.write_text(
        NoiseModel.table2().to_config_text().replace("two_qubit_gate_error_q0_q1", "#")
    )
    pair = ["--algorithm", "entangled", "--f", "B1", "--g", "B2"]
    for command, models in (("run", 1), ("sweep-noise", 4)):  # 4 default scales
        calls.clear()
        assert run_cli(capsys, [command, *pair, "--noise", "table2"])[0] == EXIT_OK
        assert len(calls) == models, command  # the walk's, one per model; none in cli
        calls.clear()
        code, out, err = run_cli(capsys, [command, *pair, "--noise", str(no_pair)])
        assert (code, out, len(calls)) == (EXIT_USAGE, "", 1)
        assert err.splitlines() == [f"error: --noise config {no_pair}: "
                                    "no two-qubit error rate for pair (0, 1)"]


def test_noise_config_may_not_give_a_rate_twice(capsys, tmp_path):
    table2 = NoiseModel.table2().to_config_text()  # 9 lines
    pair = ["--algorithm", "entangled", "--f", "B1", "--g", "B1"]
    for extra in ("two_qubit_gate_error_q1_q0 = 0.5", "readout_error_q2 = 0.5"):
        path = tmp_path / "twice.cfg"
        path.write_text(table2 + extra + "\n")
        for command in ("run", "sweep-noise"):
            code, out, err = run_cli(capsys, [command, *pair, "--noise", str(path)])
            assert (code, out) == (EXIT_USAGE, "")
            assert err.startswith("error: --noise config") and err.count("\n") == 1
            assert f'line 10: "{extra.split()[0]}" repeats a rate' in err


def test_noise_config_may_not_rate_a_pair_no_gate_can_use(capsys, tmp_path):
    table2 = NoiseModel.table2().to_config_text()  # 3 qubits
    pair = ["--algorithm", "entangled", "--f", "B1", "--g", "B1"]
    for extra, named in (("two_qubit_gate_error_q1_q1 = 0.5", "(1, 1)"),
                         ("two_qubit_gate_error_q0_q7 = 0.5", "(0, 7)")):
        path = tmp_path / "unused.cfg"
        path.write_text(table2 + extra + "\n")
        code, out, err = run_cli(capsys, ["run", *pair, "--noise", str(path)])
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (f"error: --noise config {path}: pair {named} must name "
                       "two different qubits below 3\n")


def test_run_rejects_missing_noise_config(capsys):
    code, _, err = run_cli(
        capsys,
        ["run", "--algorithm", "entangled", "--f", "B1", "--g", "B1",
         "--noise", "/no/such/file.cfg"],
    )
    assert code == EXIT_USAGE
    assert "--noise" in err


def test_seed_env_var_default(monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "1234")
    req = parse_request(["run", "--algorithm", "deutsch", "--f", "B1"])
    assert req.seed == 1234
    monkeypatch.setenv(SEED_ENV_VAR, "xyz")
    with pytest.raises(UsageError, match=SEED_ENV_VAR):
        parse_request(["run", "--algorithm", "deutsch", "--f", "B1"])


def test_verify_ignores_the_seed_env_var(capsys, monkeypatch):
    # verify draws nothing at random; it always echoes seed 0
    for env_seed in ("abc", "-2", "5"):
        monkeypatch.setenv(SEED_ENV_VAR, env_seed)
        assert parse_request(["verify"]).seed == 0
        code, out, err = run_cli(capsys, ["verify"])
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["request"] == {"command": "verify", "seed": 0,
                                              "output": "json"}


def test_explicit_seed_overrides_env(monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "1234")
    req = parse_request(
        ["run", "--algorithm", "deutsch", "--f", "B1", "--seed", "7"]
    )
    assert req.seed == 7


def test_internal_error_exit_code(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(pairdeutsch.algorithms, "run_entangled_pair", boom)
    code, _, err = run_cli(
        capsys, ["run", "--algorithm", "entangled", "--f", "B1", "--g", "B1"]
    )
    assert code == EXIT_INTERNAL
    assert err.startswith("error: internal:")


def test_internal_error_while_parsing_exit_code(capsys, monkeypatch):
    # parse_request sits inside the same boundary as execute and emit
    def boom(text):
        raise RuntimeError("synthetic parse failure")

    monkeypatch.setattr(pairdeutsch.cli, "parse_oracle", boom)
    code, out, err = run_cli(capsys, ["run", "--algorithm", "deutsch", "--f", "B1"])
    assert code == EXIT_INTERNAL
    assert (out, err) == ("", "error: internal: synthetic parse failure\n")


def test_unserializable_envelope_is_an_internal_error(capsys, monkeypatch):
    # json.dumps rejects np.float32: rendering fails inside the CLI boundary
    monkeypatch.setattr(
        pairdeutsch.cli, "bhattacharyya", lambda *args: np.float32(0.5)
    )
    code, out, err = run_cli(
        capsys, ["sweep-noise", "--algorithm", "deutsch", "--f", "B1"]
    )
    assert code == EXIT_INTERNAL
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: internal:")


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "pairdeutsch.cli", "run", "--algorithm", "deutsch",
         "--f", "B1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["decoded"] == {"balanced": 1}
