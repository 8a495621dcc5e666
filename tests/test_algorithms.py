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
from pairdeutsch.noise import NoiseModel, run_noisy_models
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
    CNOT, H, X, is_unitary,
)
from reference_impls import basis_state, expand_gate_reference


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
        gates, n = circuit_ops(algorithm, oracles)
        full = np.eye(2**n, dtype=complex)
        for gate, (_, targets, _) in zip(gates, ALGORITHMS[algorithm].gates):
            full = expand_gate_reference(gate, targets, n) @ full
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
    for gates in circuits:
        for gate in gates:  # every gate is one of the constants, not a copy
            assert any(gate is m for m in constants)
    for gates, pair in zip(circuits[12:], all_promise_pairs()):
        # both f queries of the product circuit apply one U_f object
        assert gates[3] is gates[7] is oracle_unitary(pair.f)
    assert oracle_unitary(BoolFn(0, 1)) is oracle_unitary(B1)


def test_every_op_is_named_by_its_row_entry():
    circuits = [(DEUTSCH, fn) for fn in (C1, C2, B1, B2)]
    circuits += [(algorithm, pair) for algorithm in (ENTANGLED_PAIR, PRODUCT_PAIR)
                 for pair in all_promise_pairs()]
    assert len(circuits) == 20
    for algorithm, oracles in circuits:
        queried = ({"f": oracles.f, "g": oracles.g} if isinstance(oracles, PromisePair)
                   else {"f": oracles})
        named = {"X": X, "H": H, "CNOT": CNOT,
                 **{fn: oracle_unitary(o) for fn, o in queried.items()}}
        gates, _ = circuit_ops(algorithm, oracles)
        entries = ALGORITHMS[algorithm].gates
        assert len(gates) == len(entries), (algorithm, oracles)
        for gate, (name, _, _) in zip(gates, entries):  # in row order
            assert gate is named[name], (algorithm, oracles, name)


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


def members(algorithm: str, size: int) -> list:
    choices = (list(NAMED_FUNCTIONS.values()) if algorithm == DEUTSCH
               else all_promise_pairs())
    return list(islice(cycle(choices), size))


@pytest.mark.parametrize("size", [1, 8])
@pytest.mark.parametrize("column", [0, 4])  # in the first step, and in a middle one
def test_a_non_unitary_gate_fails_the_walk(monkeypatch, size, column):
    # the pure walk checks its state once, after its last column: a gate that
    # scales the norm anywhere before it must still fail the walk. The noisy
    # walk reads the same row and checks each gate, on a stack of `size` models
    product = ALGORITHMS[PRODUCT_PAIR]
    gates = list(product.gates)
    gate, targets, step = gates[column]
    assert gate == "H"
    gates[column] = ("1.1H", targets, step)
    monkeypatch.setattr(algorithms, "_CONSTANTS", MappingProxyType(
        {**algorithms._CONSTANTS, "1.1H": 1.1 * H}))
    monkeypatch.setattr(algorithms, "ALGORITHMS", MappingProxyType(
        {**ALGORITHMS, PRODUCT_PAIR: dataclasses.replace(product, gates=tuple(gates))}))
    with pytest.raises(ValueError, match=r"^state is not normalized: sum \|a\|\^2 = ") as info:
        run_many(PRODUCT_PAIR, members(PRODUCT_PAIR, size))
    assert float(str(info.value).rpartition(" ")[2]) == pytest.approx(1.21)
    with pytest.raises(ValueError, match="^apply_gate_density expects a unitary gate$"):
        run_noisy_models(PRODUCT_PAIR, members(PRODUCT_PAIR, 1)[0],
                         [NoiseModel.table2()] * size)
    # the noisy walk's last gate takes apply_gate_density itself, not the
    # walk's cached placements: a row whose only bad gate is its last fails alike
    gates = list(product.gates)
    name, targets, step = gates[-1]
    assert name == "g"
    gates[-1] = ("1.1CNOT", targets, step)
    monkeypatch.setattr(algorithms, "_CONSTANTS", MappingProxyType(
        {**algorithms._CONSTANTS, "1.1CNOT": 1.1 * CNOT}))
    monkeypatch.setattr(algorithms, "ALGORITHMS", MappingProxyType(
        {**ALGORITHMS, PRODUCT_PAIR: dataclasses.replace(product, gates=tuple(gates))}))
    with pytest.raises(ValueError, match="^apply_gate_density expects a unitary gate$"):
        run_noisy_models(PRODUCT_PAIR, members(PRODUCT_PAIR, 1)[0],
                         [NoiseModel.table2()] * size)


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
        # choice: the circuit's resource state, before any query
        first = [gate for gate, _, step in entry.gates if step == entry.gates[0][2]]
        assert not {"f", "g"} & set(first), name
