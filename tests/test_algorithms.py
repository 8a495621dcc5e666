import dataclasses

import numpy as np
import pytest

import pairdeutsch.algorithms

from pairdeutsch.algorithms import (
    DEUTSCH,
    ENTANGLED_PAIR,
    PRODUCT_PAIR,
    DecodedAnswer,
    circuit_ops,
    decode,
    run_deutsch,
    run_many,
    run_entangled_pair,
    run_product_pair,
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
from pairdeutsch.qstate import basis_state
from reference_impls import expand_gate_reference


def test_decode_table():
    assert decode("100") == DecodedAnswer(balanced=1, different=0)
    assert decode("011") == DecodedAnswer(balanced=0, different=0)
    assert decode("110") == DecodedAnswer(balanced=1, different=1)
    assert decode("001") == DecodedAnswer(balanced=0, different=1)


def test_decode_rejects_bad_input():
    with pytest.raises(ValueError):
        decode("10")
    with pytest.raises(ValueError):
        decode("1000")
    with pytest.raises(ValueError):
        decode("1a0")


@pytest.mark.parametrize(
    "fn, want",
    [(C1, 0), (C2, 0), (B1, 1), (B2, 1)],
    ids=["C1", "C2", "B1", "B2"],
)
def test_deutsch_answer_bit_is_deterministic(fn, want):
    record = run_deutsch(fn)
    marginal = sum(
        p for outcome, p in record.final_distribution.items() if int(outcome[0]) == want
    )
    assert marginal == pytest.approx(1.0, abs=1e-12)
    assert record.decoded == DecodedAnswer(balanced=want, different=None)
    assert record.query_counts == {"f": 1}


def test_entangled_case_equal_balanced():
    record = run_entangled_pair(PromisePair(B1, B1))
    assert record.final_distribution == pytest.approx(
        {"100": 0.5, "111": 0.5}, abs=1e-10
    )
    assert record.query_counts == {"f": 1, "g": 1}
    assert record.decoded == DecodedAnswer(balanced=1, different=0)


def test_entangled_case_different_balanced():
    record = run_entangled_pair(PromisePair(B1, B2))
    assert record.final_distribution == pytest.approx(
        {"101": 0.5, "110": 0.5}, abs=1e-10
    )


def test_entangled_case_equal_constant():
    record = run_entangled_pair(PromisePair(C1, C1))
    assert record.final_distribution == pytest.approx(
        {"000": 0.5, "011": 0.5}, abs=1e-10
    )


def test_product_case_equal_balanced():
    record = run_product_pair(PromisePair(B1, B1))
    assert record.final_distribution == pytest.approx({"111": 1.0}, abs=1e-10)
    assert record.query_counts == {"f": 2, "g": 1}


def test_product_case_different_constant():
    record = run_product_pair(PromisePair(C1, C2))
    (outcome,) = record.final_distribution
    assert record.final_distribution[outcome] == pytest.approx(1.0, abs=1e-10)
    assert outcome[1] != outcome[2]  # work bits must differ


def test_product_case_equal_constant():
    record = run_product_pair(PromisePair(C1, C1))
    (outcome,) = record.final_distribution
    assert outcome[0] == "0"
    assert outcome[1] == outcome[2]


@pytest.mark.parametrize("runner", [run_entangled_pair, run_product_pair])
def test_exhaustive_correctness(runner):
    for pair in all_promise_pairs():
        record = runner(pair)
        truth = DecodedAnswer(is_balanced(pair.f), same_at_zero(pair))
        assert record.decoded == truth, pair.label()
        correct_mass = sum(
            p
            for outcome, p in record.final_distribution.items()
            if decode(outcome) == truth
        )
        assert correct_mass == pytest.approx(1.0, abs=1e-10), pair.label()


def test_query_accounting():
    for pair in all_promise_pairs():
        assert run_entangled_pair(pair).query_counts == {"f": 1, "g": 1}
        assert sum(run_product_pair(pair).query_counts.values()) == 3


def test_run_record_rejects_wrong_query_counts():
    record = run_entangled_pair(PromisePair(B1, B1))
    with pytest.raises(ValueError, match="quer"):
        dataclasses.replace(record, query_counts={"f": 2, "g": 1})
    deutsch = run_deutsch(B1)
    with pytest.raises(ValueError, match="quer"):
        dataclasses.replace(deutsch, query_counts={"f": 2})
    product = run_product_pair(PromisePair(B1, B1))
    with pytest.raises(ValueError, match="quer"):
        dataclasses.replace(product, query_counts={"f": 1, "g": 2})


def test_step_labels():
    entangled = run_entangled_pair(PromisePair(B2, B1))
    assert [label for label, _ in entangled.step_states] == [
        "initialize",
        "query-f",
        "query-g",
        "interfere",
    ]
    product = run_product_pair(PromisePair(B2, B1))
    assert [label for label, _ in product.step_states] == [
        "initialize",
        "query-f-kickback",
        "uncompute",
        "query-f-write",
        "query-g-write",
    ]


@pytest.mark.parametrize("algorithm", [DEUTSCH, ENTANGLED_PAIR, PRODUCT_PAIR])
def test_runs_match_reference_matrix_product(algorithm):
    """Cross-check every run against an independently expanded circuit matrix."""
    cases = (
        [(fn, None) for fn in (C1, C2, B1, B2)]
        if algorithm == DEUTSCH
        else [(pair, None) for pair in all_promise_pairs()]
    )
    for oracles, _ in cases:
        ops, n = circuit_ops(algorithm, oracles)
        full = np.eye(2**n, dtype=complex)
        for op in ops:
            full = expand_gate_reference(op.matrix, op.targets, n) @ full
        amps = full @ basis_state(n, 0).amplitudes
        expected = {
            format(i, f"0{n}b"): float(abs(a) ** 2)
            for i, a in enumerate(amps)
            if abs(a) ** 2 >= 1e-12
        }
        if algorithm == DEUTSCH:
            record = run_deutsch(oracles)
        elif algorithm == ENTANGLED_PAIR:
            record = run_entangled_pair(oracles)
        else:
            record = run_product_pair(oracles)
        assert record.final_distribution == pytest.approx(expected, abs=1e-10)


def test_circuit_ops_validates_inputs():
    with pytest.raises(ValueError, match="single BoolFn"):
        circuit_ops(DEUTSCH, PromisePair(B1, B1))
    with pytest.raises(ValueError, match="PromisePair"):
        circuit_ops(ENTANGLED_PAIR, B1)
    with pytest.raises(ValueError, match="unknown algorithm"):
        circuit_ops("grover", PromisePair(B1, B1))


def test_run_many_shares_the_steps_before_the_first_differing_gate():
    pairs = all_promise_pairs()
    records = run_many(ENTANGLED_PAIR, pairs)
    steps = [dict(r.step_states) for r in records]
    # every pair's preparation is the same row, bit for bit: the shared
    # gates act on every row alike
    first = steps[0]["initialize"].amplitudes
    assert all(np.array_equal(s["initialize"].amplitudes, first) for s in steps)
    for s in steps:
        for state in s.values():
            assert state.amplitudes.shape == (8,)
            assert not state.amplitudes.flags.writeable


def test_run_many_rejects_no_choice_mixed_inputs_and_differing_circuits(monkeypatch):
    with pytest.raises(ValueError, match="at least one"):
        run_many(DEUTSCH, [])
    with pytest.raises(ValueError, match="PromisePair"):
        run_many(ENTANGLED_PAIR, [PromisePair(B1, B1), B1])
    real = pairdeutsch.algorithms.entangled_pair_ops

    def uneven(pair):  # one pair's circuit gains a gate
        ops = real(pair)
        return ops + [ops[-1]] if pair.f is C1 else ops

    monkeypatch.setattr(pairdeutsch.algorithms, "entangled_pair_ops", uneven)
    with pytest.raises(ValueError, match="differ"):
        run_many(ENTANGLED_PAIR, all_promise_pairs())
