"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
one pass/fail line (visible with `pytest -s` or on failure). Run with:

    pytest tests/test_acceptance.py -v -s
"""

import functools
import json
import time

import numpy as np
import pytest

import pairdeutsch.algorithms
from pairdeutsch.algorithms import (
    DecodedAnswer,
    ENTANGLED_PAIR,
    PRODUCT_PAIR,
    decode,
    run_deutsch,
    run_entangled_pair,
    run_product_pair,
)
from pairdeutsch.cli import EXIT_OK, emit, execute, main, parse_request
from pairdeutsch.entanglement import (
    FAMILIES,
    audit_family_distinguishability,
    bloch_grid_params,
    cnot_product_condition,
    random_product_params,
    schmidt_analyze,
)
from pairdeutsch.noise import (
    NoiseModel,
    bhattacharyya,
    run_noisy,
    sample_shots,
    statistical_fidelity,
)
from pairdeutsch.oracles import (
    B1,
    B2,
    C1,
    C2,
    PromisePair,
    all_promise_pairs,
    is_balanced,
    same_at_zero,
)

SQ2 = 1.0 / np.sqrt(2.0)
CASES = [
    PromisePair(B1, B1),
    PromisePair(B1, B2),
    PromisePair(C1, C1),
    PromisePair(C1, C2),
]


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nacceptance {label}: FAIL")
                raise
            print(f"\nacceptance {label}: PASS")

        return wrapper

    return deco


def best_time(fn, repeats=10):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@criterion("1: entangled case (B1,B1) gives {100,111} at 0.5 each in <1ms")
def test_criterion_1_entangled_case_one():
    record = run_entangled_pair(PromisePair(B1, B1))
    assert record.final_distribution == pytest.approx(
        {"100": 0.5, "111": 0.5}, abs=1e-10
    )
    elapsed = best_time(lambda: run_entangled_pair(PromisePair(B1, B1)))
    assert elapsed < 1e-3, f"best run took {elapsed * 1e3:.3f} ms"


@criterion("2: all 8 pairs decode correctly with 2 and 3 queries in <1s")
def test_criterion_2_exhaustive_correctness():
    start = time.perf_counter()
    for pair in all_promise_pairs():
        truth = DecodedAnswer(is_balanced(pair.f), same_at_zero(pair))
        entangled = run_entangled_pair(pair)
        product = run_product_pair(pair)
        assert entangled.query_counts == {"f": 1, "g": 1}
        assert sum(product.query_counts.values()) == 3
        for record in (entangled, product):
            assert record.decoded == truth, pair.label()
            correct_mass = sum(
                p
                for outcome, p in record.final_distribution.items()
                if decode(outcome) == truth
            )
            assert correct_mass == pytest.approx(1.0, abs=1e-10), pair.label()
    assert time.perf_counter() - start < 1.0


@criterion("3: single-function run is deterministic in one query")
def test_criterion_3_deutsch_determinism():
    for fn in (C1, C2, B1, B2):
        record = run_deutsch(fn)
        want = is_balanced(fn)
        marginal = sum(
            p
            for outcome, p in record.final_distribution.items()
            if int(outcome[0]) == want
        )
        assert marginal == pytest.approx(1.0, abs=1e-12), fn.name
        assert record.query_counts == {"f": 1}


@criterion("4: separability theorem audit (criterion + four families) in <10s")
def test_criterion_4_theorem_audit():
    start = time.perf_counter()
    # (a) algebraic criterion vs numerical Schmidt test: 1000 random samples
    predicted, actual = cnot_product_condition(
        random_product_params(1000, seed=20240917)
    )
    assert np.array_equal(predicted, actual)
    # ... plus the four surviving input families themselves
    family_reps = [
        (1.0, 0.0, 0.6, 0.8j),
        (0.0, 1.0, 0.28, 0.96),
        (0.6, 0.8, SQ2, SQ2),
        (0.8, -0.6, SQ2, -SQ2),
    ]
    predicted, actual = cnot_product_condition(family_reps)
    assert predicted.tolist() == actual.tolist() == [True] * len(family_reps)
    # (b) one-query information audit over a dense grid, 51x52 per family
    grid = bloch_grid_params(51)
    reports = audit_family_distinguishability(grid)
    assert tuple(report.family for report in reports) == FAMILIES
    for report in reports:
        assert report.at_most_one_decidable, report.family
        assert len(report.decidable) <= 1, report.family
    assert time.perf_counter() - start < 10.0


@criterion("4: default audit-theorem (1000 samples, 51x52 grid) in process in <15ms")
def test_criterion_4_default_audit_theorem_is_fast():
    def audit():
        envelope, code = execute(parse_request(["audit-theorem"]))
        assert code == EXIT_OK and envelope.payload["passed"] is True

    elapsed = best_time(audit, repeats=5)
    assert elapsed < 15e-3, f"best audit-theorem took {elapsed * 1e3:.3f} ms"


@criterion("5: entangled run entangles at initialization; product run never does")
def test_criterion_5_entanglement_presence_absence():
    floor = SQ2 - 1e-6
    for pair in all_promise_pairs():
        entangled = run_entangled_pair(pair)
        init = dict(entangled.step_states)["initialize"]
        second = max(
            schmidt_analyze(init, [q]).schmidt_coefficients[1]
            for q in range(init.num_qubits)
        )
        assert second >= floor, pair.label()

        product = run_product_pair(pair)
        for label, state in product.step_states:
            worst = max(
                schmidt_analyze(state, [q]).schmidt_coefficients[1]
                for q in range(state.num_qubits)
            )
            assert worst < 1e-9, (pair.label(), label)


@criterion("6: table2 noise keeps fidelity in (0.80, 1.0), decoding correct, "
           "degradation monotone, in <5s")
def test_criterion_6_noisy_fidelity_band():
    start = time.perf_counter()
    model = NoiseModel.table2()
    for algorithm, runner in (
        (ENTANGLED_PAIR, run_entangled_pair),
        (PRODUCT_PAIR, run_product_pair),
    ):
        for pair in CASES:
            ideal = runner(pair).final_distribution
            noisy = run_noisy(algorithm, pair, model)
            fidelity = bhattacharyya(noisy, ideal)
            assert 0.80 < fidelity < 1.0, (algorithm, pair.label(), fidelity)
            scaled = [
                bhattacharyya(run_noisy(algorithm, pair, model.scaled(s)), ideal)
                for s in (0.0, 0.5, 1.0, 2.0)
            ]
            for earlier, later in zip(scaled, scaled[1:]):
                assert later <= earlier + 1e-12, (algorithm, pair.label(), scaled)
    truth = {
        pair.label(): DecodedAnswer(is_balanced(pair.f), same_at_zero(pair))
        for pair in all_promise_pairs()
    }
    for algorithm in (ENTANGLED_PAIR, PRODUCT_PAIR):
        for pair in all_promise_pairs():
            noisy = run_noisy(algorithm, pair, model)
            top = max(noisy, key=noisy.get)
            assert decode(top) == truth[pair.label()], (algorithm, pair.label())
    assert time.perf_counter() - start < 5.0


@criterion("7: fidelity fixed points, reproducible sampling, bootstrap stderr band")
def test_criterion_7_statistical_machinery():
    p = {"100": 0.5, "111": 0.5}
    assert bhattacharyya(p, p) == pytest.approx(1.0, abs=1e-12)
    assert bhattacharyya({"000": 1.0}, {"111": 1.0}) == pytest.approx(0.0, abs=1e-12)
    assert bhattacharyya({"000": 0.5, "111": 0.5}, {"000": 1.0}) == pytest.approx(
        np.sqrt(0.5), abs=1e-12
    )
    ideal = run_entangled_pair(PromisePair(B1, B1)).final_distribution
    a = sample_shots(ideal, 8192, seed=11)
    b = sample_shots(ideal, 8192, seed=11)
    assert json.dumps(a, sort_keys=True).encode() == json.dumps(
        b, sort_keys=True
    ).encode()
    report = statistical_fidelity(a, ideal, seed=0)
    assert 0.0 < report.stderr < 0.02


@criterion("8: CLI verify gate, broken decode detection, JSON round-trip")
def test_criterion_8_cli_contract(capsys, monkeypatch):
    assert main(["verify"]) == EXIT_OK
    capsys.readouterr()

    request = parse_request(
        ["run", "--algorithm", "entangled", "--f", "B1", "--g", "B1"]
    )
    envelope, code = execute(request)
    assert code == EXIT_OK
    assert json.loads(emit(envelope, "json")) == envelope.as_dict()

    original = pairdeutsch.algorithms.decode
    monkeypatch.setattr(
        pairdeutsch.algorithms,
        "decode",
        lambda s: DecodedAnswer(
            balanced=1 - original(s).balanced, different=original(s).different
        ),
    )
    assert main(["verify"]) != EXIT_OK
    capsys.readouterr()
