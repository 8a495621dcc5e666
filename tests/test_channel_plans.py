"""The density channels' cached plans: exact results, errors that are never
cached, fresh outputs, and hits on a repeated walk."""

from itertools import permutations

import numpy as np
import pytest

from pairdeutsch import noise, qstate
from pairdeutsch.algorithms import ENTANGLED_PAIR, PRODUCT_PAIR
from pairdeutsch.noise import NoiseModel, depolarize, run_noisy_models
from pairdeutsch.oracles import all_promise_pairs
from pairdeutsch.qstate import (
    CNOT,
    DensityMatrix,
    X,
    expanded_unitary,
    partial_trace,
)
from reference_impls import (
    basis_state,
    expand_gate_reference,
    random_density_matrix,
    random_unitary,
)

PLANS = (qstate._axes, qstate._trace_subscripts, qstate._identity, noise._mixing_plan)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_expanded_unitary_equals_the_reference_for_every_target_tuple(n):
    rng = np.random.default_rng(100 + n)
    for k in range(1, n + 1):
        for targets in permutations(range(n), k):
            gate = random_unitary(2**k, rng)
            want = expand_gate_reference(gate, targets, n)
            assert np.array_equal(expanded_unitary(gate, targets, n), want), targets


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: expanded_unitary(CNOT, [0, 0], 3), r"repeated target qubit in (0, 0)"),
        (lambda: expanded_unitary(X, [5], 3), "target 5 out of range for 3 qubit(s)"),
        (lambda: expanded_unitary(X, [], 3), "a gate needs at least one target qubit"),
        (lambda: expanded_unitary(X, [0], 13), "num_qubits must be in 1..12, got 13"),
        (lambda: expanded_unitary(CNOT, [0], 3),
         "gate of shape (4, 4) cannot act on 1 target qubit(s)"),
        (lambda: partial_trace(_rho3(), []), "keep list must be non-empty"),
        (lambda: partial_trace(_rho3(), [1, 1]), "repeated qubit in keep=[1, 1]"),
        (lambda: partial_trace(_rho3(), [3]),
         "keep qubit 3 out of range for 3 qubit(s)"),
        (lambda: depolarize(_rho3(), [], 0.1),
         "depolarize needs at least one target qubit"),
        (lambda: depolarize(_rho3(), [0, 4], 0.1),
         "target 4 out of range for 3 qubit(s)"),
        (lambda: depolarize(_rho3(), [4], 0.0), "target 4 out of range for 3 qubit(s)"),
        (lambda: depolarize(_rho3(), [0], [0.1, 1.5]),
         "depolarizing probability 1.5 outside [0, 1]"),
    ],
)
def test_a_bad_call_raises_the_same_message_every_time(call, message):
    for _ in range(3):  # a failed plan is never cached
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


def _rho3() -> DensityMatrix:
    return DensityMatrix.from_state(basis_state(3, 5))


def test_expanded_unitary_returns_a_fresh_array_each_call():
    gate = random_unitary(4, np.random.default_rng(3))
    first = expanded_unitary(gate, (2, 0), 3)
    want = first.copy()
    first[:] = 7.0
    assert np.array_equal(expanded_unitary(gate, (2, 0), 3), want)


def test_cached_plans_are_read_only_and_depolarize_repeats_itself():
    rho = DensityMatrix(3, random_density_matrix(3, np.random.default_rng(4)))
    for targets in ([0, 1, 2], [1]):  # all qubits: the weight is the whole I/8
        first = depolarize(rho, targets, 0.3).entries
        assert not first.flags.writeable
        assert np.array_equal(depolarize(rho, targets, 0.3).entries, first)
    for plan in (noise._mixing_plan(3, (0, 1, 2)), noise._mixing_plan(3, (1,)),
                 (qstate._identity(4), qstate._identity(8))):
        assert not any(a.flags.writeable for a in plan if isinstance(a, np.ndarray))


def test_a_second_walk_of_the_same_circuit_adds_no_plan_misses():
    pair = all_promise_pairs()[5]
    models = [NoiseModel.table2(), NoiseModel.table2().scaled(0.5)]
    for algorithm in (ENTANGLED_PAIR, PRODUCT_PAIR):
        first = run_noisy_models(algorithm, pair, models)
        before = [plan.cache_info() for plan in PLANS]
        assert run_noisy_models(algorithm, pair, models) == first
        after = [plan.cache_info() for plan in PLANS]
        assert [a.misses for a in after] == [b.misses for b in before]
        assert all(a.hits > b.hits for a, b in zip(after, before))
