import dataclasses
from itertools import cycle, islice
from types import MappingProxyType

import numpy as np
import pytest

from pairdeutsch import algorithms
from pairdeutsch.algorithms import (
    ALGORITHMS,
    DEUTSCH,
    ENTANGLED_PAIR,
    PRODUCT_PAIR,
    DecodedAnswer,
    circuit_ops,
    decode,
    decode_outcome,
    run_deutsch,
    run_many,
    run_entangled_pair,
    run_product_pair,
)
from pairdeutsch.oracles import (
    NAMED_FUNCTIONS,
    B1,
    B2,
    C1,
    C2,
    BoolFn,
    PromisePair,
    all_promise_pairs,
    is_balanced,
    oracle_unitary,
    same_at_zero,
)
from pairdeutsch.qstate import (
    CNOT, H, X, StateVector, apply_gate, basis_state, is_unitary,
)
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


@pytest.mark.parametrize("key", ["2", "10101", "1x", ""])
def test_decode_outcome_checks_a_deutsch_key_against_its_width(key):
    with pytest.raises(ValueError) as info:
        decode_outcome(DEUTSCH, key)
    assert str(info.value) == f'expected a 2-bit outcome string, got "{key}"'


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


def test_every_gate_is_a_shared_read_only_unitary_constant():
    oracles = [oracle_unitary(fn) for fn in (C1, C2, B1, B2)]
    constants = [H, X, CNOT, *oracles]
    for m in constants:
        assert not m.flags.writeable and is_unitary(m)
    circuits = [circuit_ops(DEUTSCH, fn)[0] for fn in (C1, C2, B1, B2)]
    circuits += [circuit_ops(algorithm, pair)[0]
                 for algorithm in (ENTANGLED_PAIR, PRODUCT_PAIR)
                 for pair in all_promise_pairs()]
    assert len(circuits) == 20
    for ops in circuits:
        for op in ops:  # every gate is one of the constants, not a copy
            assert any(op.matrix is m for m in constants), op.name
    assert oracle_unitary(BoolFn(0, 1)) is oracle_unitary(B1)


def test_run_many_prepares_every_member_alike():
    pairs = all_promise_pairs()
    records = run_many(ENTANGLED_PAIR, pairs)
    steps = [dict(r.step_states) for r in records]
    # every pair's preparation is the same row, bit for bit: each row gets
    # the same gates before the first query
    first = steps[0]["initialize"].amplitudes
    assert all(np.array_equal(s["initialize"].amplitudes, first) for s in steps)
    for s in steps:
        for state in s.values():
            assert state.amplitudes.shape == (8,)
            assert not state.amplitudes.flags.writeable


def hex_rows(amplitudes) -> list:
    return [[a.real.hex(), a.imag.hex()] for a in np.ravel(amplitudes).tolist()]


def members(algorithm: str, size: int) -> list:
    choices = (list(NAMED_FUNCTIONS.values()) if algorithm == DEUTSCH
               else all_promise_pairs())
    return list(islice(cycle(choices), size))


def first_step_one_gate_at_a_time(algorithm: str, size: int) -> tuple[int, list]:
    """Gate count and states of the row's first step, walked gate by gate on
    the whole stack as every walk walked it before the step was prepared."""
    ops_list = [circuit_ops(algorithm, o)[0] for o in members(algorithm, size)]
    entry = ALGORITHMS[algorithm]
    zero = np.eye(1, 2**entry.num_qubits)  # |0...0>, one row
    state = StateVector(entry.num_qubits, zero.repeat(size, axis=0))
    count = 0
    for column in zip(*ops_list):
        if column[0].step != ops_list[0][0].step:
            break
        state = apply_gate(state, np.array([op.matrix for op in column]),
                           column[0].targets)
        count += 1
    return count, [hex_rows(row) for row in state.amplitudes]


@pytest.mark.parametrize("algorithm", [DEUTSCH, ENTANGLED_PAIR, PRODUCT_PAIR])
@pytest.mark.parametrize("size", [1, 8])
def test_prepared_first_step_is_its_gates_applied_one_by_one(algorithm, size):
    count, want = first_step_one_gate_at_a_time(algorithm, size)
    assert count == {DEUTSCH: 3, ENTANGLED_PAIR: 4, PRODUCT_PAIR: 3}[algorithm]
    entry = ALGORITHMS[algorithm]
    assert algorithms._prepared(entry.num_qubits, entry.gates)[0] == count
    records = run_many(algorithm, members(algorithm, size))
    label = entry.gates[0][2]
    assert [hex_rows(r.step_states[0][1].amplitudes) for r in records] == want
    assert all(r.step_states[0][0] == label for r in records)


def test_a_patched_row_gets_its_own_prepared_state(monkeypatch):
    # the product row patched as in test_verify_fails_if_product_run_entangles:
    # the entangled circuit plus a padding query
    entangled = ALGORITHMS[ENTANGLED_PAIR]
    product = ALGORITHMS[PRODUCT_PAIR]
    pairs = all_promise_pairs()
    algorithms._prepared.cache_clear()  # another test may have walked the patch
    before = run_many(PRODUCT_PAIR, pairs)[0].step_states[0][1].amplitudes
    patched = dataclasses.replace(
        product, gates=entangled.gates + (("f", (0, 1), "extra"),))
    monkeypatch.setattr(algorithms, "ALGORITHMS",
                        MappingProxyType({**ALGORITHMS, PRODUCT_PAIR: patched}))
    misses = algorithms._prepared.cache_info().misses
    after = run_many(PRODUCT_PAIR, pairs)[0].step_states[0][1].amplitudes
    assert algorithms._prepared.cache_info().misses == misses + 1
    resource = run_many(ENTANGLED_PAIR, pairs)[0].step_states[0][1].amplitudes
    assert hex_rows(after) == hex_rows(resource)  # (|0>+|1>)(|00>-|11>)/2
    assert not np.array_equal(after, before)
    monkeypatch.undo()
    restored = run_many(PRODUCT_PAIR, pairs)[0].step_states[0][1].amplitudes
    assert hex_rows(restored) == hex_rows(before)


def test_run_many_rejects_no_choice_and_mixed_inputs():
    with pytest.raises(ValueError, match="at least one"):
        run_many(DEUTSCH, [])
    with pytest.raises(ValueError, match="PromisePair"):
        run_many(ENTANGLED_PAIR, [PromisePair(B1, B1), B1])


def test_every_row_states_its_gates_within_its_width_and_query_budget():
    arity = {"X": 1, "H": 1, "CNOT": 2, "f": 2, "g": 2}
    for name, entry in ALGORITHMS.items():
        for gate, targets, step in entry.gates:
            assert gate in arity and len(targets) == arity[gate], (name, gate)
            assert len(set(targets)) == len(targets), (name, gate, targets)
            assert all(0 <= q < entry.num_qubits for q in targets), (name, targets)
            assert isinstance(step, str) and step, (name, step)
        names = [gate for gate, _, _ in entry.gates]
        # the budget is the paper's, stated apart from the gates: they must agree
        assert {fn: names.count(fn) for fn in ("f", "g") if fn in names} == dict(
            entry.queries), name
        # the first step prepares the registers, the same for every oracle
        # choice, so `_prepared` can walk it once per process
        first = [gate for gate, _, step in entry.gates if step == entry.gates[0][2]]
        assert not {"f", "g"} & set(first), name
