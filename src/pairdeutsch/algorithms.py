"""Instrumented single-shot runs of the three oracle-testing circuits.

Outcome keys are big-endian bitstrings: qubit 0 (the constant-vs-balanced
answer qubit) comes first, then the work qubits. Every run records the
state after each named step and the number of times each oracle was applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .oracles import BoolFn, PromisePair, oracle_unitary
from .qstate import (
    ATOL,
    CNOT,
    H,
    StateVector,
    X,
    _apply,
    apply_gate,
    bitstring_distribution,
)

DEUTSCH = "deutsch"
ENTANGLED_PAIR = "entangled_pair"
PRODUCT_PAIR = "product_pair"


@dataclass(frozen=True)
class Algorithm:
    """CLI alias, width, exact query counts and gates of one circuit. A
    circuit that queries g takes a PromisePair and decodes both answer bits;
    one that queries only f takes a single BoolFn and decodes the answer
    qubit alone. Its gates are (name, targets, step) rows in circuit order."""

    alias: str  # the short name the CLI takes besides the table key
    num_qubits: int
    queries: Mapping[str, int]
    gates: tuple[tuple[str, tuple[int, ...], str], ...]

    @property
    def takes_pair(self) -> bool:
        return "g" in self.queries


ALGORITHMS = MappingProxyType({
    # Single-query circuit: |0>|1>, H on both wires, one oracle call, H on
    # the answer qubit. The answer qubit then reads f(0)^f(1) with certainty.
    DEUTSCH: Algorithm("deutsch", 2, MappingProxyType({"f": 1}), (
        ("X", (1,), "initialize"),
        ("H", (0,), "initialize"),
        ("H", (1,), "initialize"),
        ("f", (0, 1), "query-f"),
        ("H", (0,), "interfere"),
    )),
    # Two-query circuit sharing one entangled work-qubit pair. Preparation
    # puts the answer qubit in (|0>+|1>)/sqrt(2) and the work qubits in
    # (|00>-|11>)/sqrt(2). Each oracle then couples the answer qubit to its
    # own work qubit, and the final H turns the accumulated relative phase
    # into a deterministic answer bit, while the work-qubit parity records
    # whether the functions agree.
    ENTANGLED_PAIR: Algorithm("entangled", 3, MappingProxyType({"f": 1, "g": 1}), (
        ("H", (0,), "initialize"),
        ("X", (1,), "initialize"),
        ("H", (1,), "initialize"),
        ("CNOT", (1, 2), "initialize"),
        ("f", (0, 1), "query-f"),
        ("g", (0, 2), "query-g"),
        ("H", (0,), "interfere"),
    )),
    # Three-query circuit that stays separable at every step. The first
    # query kicks the phase of f against a |-> work qubit, loading
    # b = f(0)^f(1) into the answer qubit; H then collapses the answer qubit
    # to the basis state |b> (unitarily, no measurement) and H,X return the
    # work qubit to |0>. The remaining two queries write f(b) and g(b) into
    # the work qubits; under the promise their parity equals f(0)^g(0). The
    # answer qubit sits in a basis state during those writes, so no step
    # ever creates entanglement.
    PRODUCT_PAIR: Algorithm("product", 3, MappingProxyType({"f": 2, "g": 1}), (
        ("H", (0,), "initialize"),
        ("X", (1,), "initialize"),
        ("H", (1,), "initialize"),
        ("f", (0, 1), "query-f-kickback"),
        ("H", (0,), "uncompute"),
        ("H", (1,), "uncompute"),
        ("X", (1,), "uncompute"),
        ("f", (0, 1), "query-f-write"),
        ("g", (0, 2), "query-g-write"),
    )),
})
# gate name -> the constant it applies; "f" and "g" query that function instead
_CONSTANTS = MappingProxyType({"X": X, "H": H, "CNOT": CNOT})


def spec(algorithm: str) -> Algorithm:
    """Table entry of the named algorithm."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return ALGORITHMS[algorithm]


@dataclass(frozen=True)
class GateOp:
    """One gate application, named by its row entry: X, H, CNOT, f or g."""

    name: str
    matrix: np.ndarray
    targets: tuple[int, ...]
    step: str


@dataclass(frozen=True)
class DecodedAnswer:
    """balanced = f(0)^f(1); different = f(0)^g(0), absent for single-function runs."""

    balanced: int
    different: int | None = None


@dataclass(frozen=True)
class RunRecord:
    algorithm: str
    final_distribution: dict[str, float]
    query_counts: dict[str, int]
    step_states: tuple[tuple[str, StateVector], ...]
    decoded: DecodedAnswer

    def __post_init__(self) -> None:
        expected = dict(spec(self.algorithm).queries)
        total = sum(self.final_distribution.values())
        if abs(total - 1.0) > ATOL:
            raise ValueError(f"final distribution sums to {total!r}, not 1")
        if self.query_counts != expected:
            raise ValueError(
                f"{self.algorithm} run must make queries {expected}, "
                f"got {self.query_counts}"
            )


def decode(bitstring: str) -> DecodedAnswer:
    """Read (balanced, different) off a three-bit outcome: the answer qubit
    gives constant-vs-balanced, the work-qubit parity gives same-vs-different."""
    if len(bitstring) != 3 or any(c not in "01" for c in bitstring):
        raise ValueError(f'expected a 3-bit outcome string, got "{bitstring}"')
    a, w1, w2 = (int(c) for c in bitstring)
    return DecodedAnswer(balanced=a, different=w1 ^ w2)


def decode_outcome(algorithm: str, bitstring: str) -> DecodedAnswer:
    """Decode one outcome of the named algorithm; a single-function run
    reads only the answer qubit."""
    entry = spec(algorithm)
    if entry.takes_pair:
        return decode(bitstring)
    if len(bitstring) != entry.num_qubits or bitstring.strip("01"):
        raise ValueError(
            f'expected a {entry.num_qubits}-bit outcome string, got "{bitstring}"')
    return DecodedAnswer(balanced=int(bitstring[0]))


def circuit_ops(
    algorithm: str, oracles: BoolFn | PromisePair
) -> tuple[list[GateOp], int]:
    """Gate list and qubit count of the named algorithm, built from its row."""
    entry = spec(algorithm)
    if entry.takes_pair and not isinstance(oracles, PromisePair):
        raise ValueError(f"{algorithm} takes a PromisePair")
    if not entry.takes_pair and not isinstance(oracles, BoolFn):
        raise ValueError(f"{algorithm} takes a single BoolFn")
    queried = (oracles.f, oracles.g) if entry.takes_pair else (oracles,)
    matrices = {**_CONSTANTS, **dict(zip("fg", map(oracle_unitary, queried)))}
    ops = [GateOp(name, matrices[name], targets, step)
           for name, targets, step in entry.gates]
    return ops, entry.num_qubits


def run_many(
    algorithm: str, oracle_list: Sequence[BoolFn | PromisePair]
) -> list[RunRecord]:
    """Run the named algorithm for every oracle choice in one walk, one record
    each in order. The walk carries a raw (2,)*n + (S,) tensor, member s at
    index s of its last axis, and applies each column of gates as a gate
    stack through the unchecked `_apply`, which advances each member by its
    own gate, so a member's bits never depend on which other members share
    its walk. The last column goes through `apply_gate`: its output check is
    the walk's one check of its result."""
    ops_list = [circuit_ops(algorithm, oracles)[0] for oracles in oracle_list]
    if not ops_list:
        raise ValueError("run_many needs at least one oracle choice")
    num_qubits, size = spec(algorithm).num_qubits, len(ops_list)
    tensor = np.zeros((2,) * num_qubits + (size,), dtype=np.complex128)
    tensor[(0,) * num_qubits] = 1.0  # |0...0> in each member
    steps: list[tuple[str, np.ndarray]] = []  # each step's (S, 2**n) view
    names = [op.name for op in ops_list[0]]  # every member's, from one row
    queries = {fn: names.count(fn) for fn in ("f", "g") if fn in names}
    last = len(names) - 1
    columns = enumerate(zip(*ops_list))
    for label, group in groupby(columns, key=lambda column: column[1][0].step):
        for i, (op, *rest) in group:
            gates = np.array([o.matrix for o in (op, *rest)])
            if i < last:
                tensor = _apply(tensor, gates, op.targets, num_qubits)
            else:  # the walk's one check: apply_gate checks its output
                state = StateVector._trusted(num_qubits, tensor.reshape(-1, size).T)
                tensor = apply_gate(state, gates, op.targets).amplitudes.T
        steps.append((label, tensor.reshape(-1, size).T))
    probs = np.abs(steps[-1][1]) ** 2
    records = []
    for s in range(size):
        member_steps = tuple((label, StateVector._trusted(num_qubits, step[s]))
                             for label, step in steps)
        dist = bitstring_distribution(probs[s], num_qubits)
        answers = {decode_outcome(algorithm, o) for o in dist}
        if len(answers) != 1:
            raise RuntimeError(f"outcomes decode inconsistently: {sorted(dist)}")
        records.append(RunRecord(algorithm, dist, dict(queries), member_steps,
                                 answers.pop()))
    return records


def run_deutsch(fn: BoolFn) -> RunRecord:
    """One query to a single function; decoded.balanced == f(0)^f(1)."""
    return run_many(DEUTSCH, [fn])[0]


def run_entangled_pair(pair: PromisePair) -> RunRecord:
    """One query to each function with entangled work qubits; two equally
    likely outcomes, both decoding to the same (balanced, different) answer."""
    return run_many(ENTANGLED_PAIR, [pair])[0]


def run_product_pair(pair: PromisePair) -> RunRecord:
    """Three queries (two to f, one to g) with no entanglement anywhere;
    a single deterministic outcome decoding per the same table."""
    return run_many(PRODUCT_PAIR, [pair])[0]


def run(algorithm: str, oracles: BoolFn | PromisePair) -> RunRecord:
    """Run the named algorithm through its run_* entry point, looked up at
    call time so that a patched runner takes effect."""
    runners = {
        DEUTSCH: run_deutsch,
        ENTANGLED_PAIR: run_entangled_pair,
        PRODUCT_PAIR: run_product_pair,
    }
    return runners[algorithm](oracles)
