"""The density channels' cached plans: exact results, errors that are never
cached, fresh outputs, and hits on a repeated walk."""

from itertools import permutations

import numpy as np
import pytest

from pairdeutsch import noise, qstate
from pairdeutsch.algorithms import (
    ALGORITHMS,
    DEUTSCH,
    ENTANGLED_PAIR,
    PRODUCT_PAIR,
    circuit_ops,
)
from pairdeutsch.noise import (
    NoiseModel,
    apply_readout_confusion,
    depolarize,
    run_noisy_models,
)
from pairdeutsch.oracles import NAMED_FUNCTIONS, all_promise_pairs
from pairdeutsch.qstate import (
    ATOL,
    CNOT,
    DensityMatrix,
    X,
    apply_gate_density,
    bitstring_distribution,
    expanded_unitary,
    is_unitary,
    partial_trace,
)
from reference_impls import (
    basis_state,
    expand_gate_reference,
    partial_trace_einsum,
    random_density_matrix,
    random_unitary,
)

PLANS = (qstate._axes, qstate._trace_gather, qstate._identity, noise._mixing_plan,
         noise._walk_placement)
# all 20 circuits: four Deutsch oracles, and eight promise pairs per pair circuit
CIRCUITS = [*((DEUTSCH, fn) for fn in NAMED_FUNCTIONS.values()),
            *((algorithm, pair) for algorithm in (ENTANGLED_PAIR, PRODUCT_PAIR)
              for pair in all_promise_pairs())]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_expanded_unitary_equals_the_reference_for_every_target_tuple(n):
    rng = np.random.default_rng(100 + n)
    for k in range(1, n + 1):
        for targets in permutations(range(n), k):
            gate = random_unitary(2**k, rng)
            want = expand_gate_reference(gate, targets, n)
            assert np.array_equal(expanded_unitary(gate, targets, n), want), targets


def _signed_zero_stacks(shape, rng) -> list[np.ndarray]:
    """Entries for the trace pin: random, random of mixed magnitudes with
    +0.0 and -0.0 in about half the real and imaginary parts, and all -0.0."""
    def normal():
        return rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)
    signed = normal() + 1j * normal()
    for part in (signed.real, signed.imag):
        zeros = rng.random(shape) < 0.5
        part[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
    random = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return [random, signed, np.full(shape, complex(-0.0, -0.0))]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_partial_trace_equals_the_einsum_bit_for_bit_for_every_keep_tuple(n):
    rng = np.random.default_rng(200 + n)
    for k in range(1, n + 1):
        for keep in permutations(range(n), k):  # k == n: the permutations
            for stack in ((), (3,)):
                for entries in _signed_zero_stacks(stack + (2**n, 2**n), rng):
                    got = partial_trace(DensityMatrix._trusted(n, entries), keep).entries
                    want = partial_trace_einsum(entries, n, keep)
                    assert got.shape == want.shape
                    assert np.array_equal(got, want), keep
                    for part in (lambda a: a.real, lambda a: a.imag):
                        assert np.array_equal(np.signbit(part(got)),
                                              np.signbit(part(want))), keep


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
    for n, keep in ((3, (1,)), (3, (2, 0)), (3, (2, 0, 1)), (1, (0,))):
        gather = qstate._trace_gather(n, keep)
        assert gather.shape == (2 ** (n - len(keep)), 4 ** len(keep))
        assert not gather.flags.writeable
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


def test_the_walk_places_each_gate_once_checked_and_read_only():
    noise._walk_placement.cache_clear()
    placements = {}  # the walk's cache key -> the gate it places
    for algorithm, oracles in CIRCUITS:
        run_noisy_models(algorithm, oracles, [NoiseModel.table2()])
        gates, n = circuit_ops(algorithm, oracles)
        for gate, (_, on, _) in zip(gates[:-1], ALGORITHMS[algorithm].gates):
            placements[gate.tobytes(), len(gate), on, n] = gate
    assert len(CIRCUITS) == 20
    # 7 on two qubits, 12 on three: each oracle permutation is its own gate
    assert noise._walk_placement.cache_info().currsize == len(placements) == 19
    misses = noise._walk_placement.cache_info().misses
    for (data, d, on, n), gate in placements.items():
        u, uh = noise._walk_placement(data, d, on, n)
        assert not u.flags.writeable and not uh.flags.writeable
        assert is_unitary(u, ATOL / d)
        assert np.array_equal(u, expanded_unitary(gate, on, n))
        assert np.array_equal(uh, u.conj().T)
    assert noise._walk_placement.cache_info().misses == misses


def public_channel_walk(algorithm, oracles, models) -> list[dict[str, float]]:
    """The noisy walk op by op through the public, checked channels."""
    gates, n = circuit_ops(algorithm, oracles)
    targets = [on for _, on, _ in ALGORITHMS[algorithm].gates]
    rates = [model.gate_rates(n, targets) for model in models]
    start = np.zeros((len(models), 2**n, 2**n), dtype=np.complex128)
    start[:, 0, 0] = 1.0
    rho = DensityMatrix(n, start)
    for gate, on, model_rates in zip(gates, targets, zip(*rates)):
        rho = depolarize(apply_gate_density(rho, gate, on), on, model_rates)
    probs = apply_readout_confusion(DensityMatrix(n, rho.entries).probabilities(),
                                    [model.readout_error[:n] for model in models])
    return [bitstring_distribution(p, n) for p in probs]


def _hex(dists: list[dict[str, float]]) -> list[dict[str, str]]:
    return [{k: v.hex() for k, v in dist.items()} for dist in dists]


@pytest.mark.parametrize("scales", [(1.0,), (0.0, 0.5, 2.0, 7.0)],
                         ids=["table2", "stack"])
def test_the_walk_equals_the_public_channels_bit_for_bit(scales):
    models = [NoiseModel.table2().scaled(s) for s in scales]
    for algorithm, oracles in CIRCUITS:
        want = _hex(public_channel_walk(algorithm, oracles, models))
        noise._walk_placement.cache_clear()
        assert _hex(run_noisy_models(algorithm, oracles, models)) == want, algorithm
        assert _hex(run_noisy_models(algorithm, oracles, models)) == want, algorithm
