import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairdeutsch.qstate import (
    ATOL,
    CNOT,
    H,
    X,
    DensityMatrix,
    StateVector,
    _apply,
    apply_gate,
    apply_gate_density,
    expanded_unitary,
    bitstring_distribution,
    is_unitary,
    partial_trace,
    purity,
)
from reference_impls import (
    basis_state,
    expand_gate_reference,
    random_density_matrix,
    random_state,
    random_unitary,
    reduced_density_reference,
)

SQ2 = 1 / np.sqrt(2)


def test_basis_state_definitions():
    assert np.allclose(basis_state(1, 0).amplitudes, [1, 0])
    assert np.allclose(basis_state(2, 3).amplitudes, [0, 0, 0, 1])
    # big-endian: qubit 0 set means index 4 on three qubits
    assert np.allclose(basis_state(3, 4).amplitudes[4], 1.0)
    assert basis_state(3, 4).amplitudes.sum() == 1.0
    # the library's convention: X on qubit 0 of |000> sets index 4, read "100"
    flipped = apply_gate(basis_state(3, 0), X, [0]).amplitudes
    assert np.array_equal(flipped, basis_state(3, 4).amplitudes)
    assert bitstring_distribution(np.abs(flipped) ** 2, 3) == {"100": 1.0}


def test_state_vector_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="amplitudes"):
        StateVector(2, np.array([1.0, 0.0]))


def test_state_vector_is_immutable():
    s = basis_state(1, 0)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def random_stack(num_qubits: int, size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([random_state(num_qubits, rng).amplitudes for _ in range(size)])


def test_state_vector_stack_fails_on_one_bad_member():
    stack = random_stack(2, 5, seed=1)
    assert StateVector(2, stack).amplitudes.shape == (5, 4)
    bad = stack.copy()
    bad[3] *= 2.0
    bad[4] *= 3.0
    err = pytest.raises(ValueError, StateVector, 2, bad)
    # the message names the first bad member's norm, worded as for one state
    one = pytest.raises(ValueError, StateVector, 2, bad[3])
    assert str(err.value) == str(one.value)
    with pytest.raises(ValueError, match="expected 4 amplitudes, got 2"):
        StateVector(2, stack[:, :2])


def test_state_vector_rejects_nan_in_one_state_or_a_stack():
    bad = np.array([np.nan, 0.0])
    for amps in (bad, np.stack([[1.0, 0.0], bad])):
        with pytest.raises(ValueError) as exc:
            StateVector(1, amps)
        assert str(exc.value) == "state is not normalized: sum |a|^2 = nan"


def test_state_vector_takes_one_state_or_a_stack_of_rows():
    # a 2-D array is a stack, one state per row, even when it would flatten
    # to one valid state; more than two axes are rejected, not flattened
    with pytest.raises(ValueError, match="expected 4 amplitudes, got 2"):
        StateVector(2, np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match=r"got shape \(1, 2, 2\)"):
        StateVector(2, np.full((1, 2, 2), 0.5))
    assert StateVector(2, np.full(4, 0.5)).amplitudes.shape == (4,)
    assert StateVector(2, np.full((1, 4), 0.5)).amplitudes.shape == (1, 4)
    assert StateVector(2, np.zeros((0, 4))).amplitudes.shape == (0, 4)


def test_an_empty_stack_takes_one_gate_or_an_empty_gate_stack():
    empty = StateVector(2, np.zeros((0, 4)))
    for gate in (CNOT, np.zeros((0, 4, 4))):
        assert apply_gate(empty, gate, (0, 1)).amplitudes.shape == (0, 4)


def test_state_vector_stack_is_read_only():
    source = random_stack(3, 4, seed=2)
    s = StateVector(3, source)
    assert not s.amplitudes.flags.writeable
    with pytest.raises(ValueError):
        s.amplitudes[0, 0] = 0.0
    source[0, 0] = 0.0  # the stack holds its own copy
    assert s.amplitudes[0, 0] != 0.0


@pytest.mark.parametrize(
    "num_qubits, gate, targets",
    [(3, H, (0,)), (3, H, (1,)), (3, H, (2,)), (2, CNOT, (0, 1)), (2, CNOT, (1, 0))],
)
def test_stacked_apply_gate_equals_each_member_bit_for_bit(num_qubits, gate, targets):
    stack = random_stack(num_qubits, 50, seed=3)
    out = apply_gate(StateVector(num_qubits, stack), gate, targets)
    members = [apply_gate(StateVector(num_qubits, row), gate, targets) for row in stack]
    assert out.amplitudes.shape == stack.shape
    assert np.array_equal(out.amplitudes, [m.amplitudes for m in members])


@st.composite
def gate_stacks(draw):
    """n in 1..4, 1..min(3, n) distinct targets in any order, and a stack of
    S in 1..6 random unitaries on them, from a seed."""
    n = draw(st.integers(1, 4))
    order = draw(st.permutations(range(n)))
    targets = tuple(order[: draw(st.integers(1, min(3, n)))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 6))
    gates = np.stack([random_unitary(2 ** len(targets), rng) for _ in range(size)])
    return n, targets, gates, rng


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.int64)  # signed zeros and NaN payloads compare too


@settings(max_examples=100, deadline=None)
@given(gate_stacks())
def test_gate_stack_equals_one_gate_per_member_bit_for_bit(case):
    n, targets, gates, rng = case
    stack = StateVector(n, [random_state(n, rng).amplitudes for _ in gates])
    out = apply_gate(stack, gates, targets)
    members = [apply_gate(StateVector(n, row), g, targets).amplitudes
               for row, g in zip(stack.amplitudes, gates)]
    assert out.amplitudes.shape == (len(gates), 2**n)
    assert np.array_equal(_bits(out.amplitudes), _bits(np.array(members)))
    for row, g, got in zip(stack.amplitudes, gates, out.amplitudes):
        full = expand_gate_reference(g, targets, n)
        assert np.abs(got - full @ row).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(gate_stacks())
def test_gate_stack_needs_a_stack_of_states(case):
    n, targets, gates, rng = case
    state = random_state(n, rng)
    copies = StateVector(n, np.tile(state.amplitudes, (len(gates), 1)))
    out = apply_gate(copies, gates, targets)
    members = [apply_gate(state, g, targets).amplitudes for g in gates]
    assert out.amplitudes.shape == (len(gates), 2**n)
    assert np.array_equal(_bits(out.amplitudes), _bits(np.array(members)))
    assert not out.amplitudes.flags.writeable
    # a gate stack needs a stack of states, not one state
    with pytest.raises(ValueError, match=f"a stack of {len(gates)} gates cannot act"):
        apply_gate(state, gates, targets)


@settings(max_examples=40, deadline=None)
@given(gate_stacks())
def test_gate_stack_rejects_a_length_mismatch_or_a_bad_shape(case):
    n, targets, gates, rng = case
    rows = [random_state(n, rng).amplitudes for _ in range(len(gates) + 1)]
    stack = StateVector(n, rows)
    with pytest.raises(ValueError, match=f"a stack of {len(gates)} gates"):
        apply_gate(stack, gates, targets)
    d = 2 ** len(targets)
    for bad in (gates[:, :, :1], np.zeros((len(gates), 2 * d, 2 * d)),
                gates[:, None]):
        with pytest.raises(ValueError, match="cannot act on"):
            apply_gate(random_state(n, rng), bad, targets)


def test_hadamard_on_zero():
    out = apply_gate(basis_state(1, 0), H, [0])
    assert np.allclose(out.amplitudes, [SQ2, SQ2])


def test_cnot_flips_target_when_control_set():
    out = apply_gate(basis_state(2, 2), CNOT, [0, 1])  # |10> -> |11>
    assert np.allclose(out.amplitudes, [0, 0, 0, 1])


def test_x_on_last_qubit():
    out = apply_gate(basis_state(3, 0), X, [2])  # |000> -> |001>
    assert np.allclose(out.amplitudes[1], 1.0)


def test_apply_gate_rejects_bad_targets():
    s = basis_state(2, 0)
    with pytest.raises(ValueError, match="repeated"):
        apply_gate(s, CNOT, [0, 0])
    with pytest.raises(ValueError, match="shape"):
        apply_gate(s, CNOT, [0])
    with pytest.raises(ValueError, match="out of range"):
        apply_gate(s, X, [5])
    with pytest.raises(ValueError, match="at least one"):
        apply_gate(s, np.eye(1), [])
    with pytest.raises(ValueError, match="repeated"):
        expanded_unitary(CNOT, [0, 0], 2)
    with pytest.raises(ValueError, match="shape"):
        expanded_unitary(CNOT, [0], 2)
    with pytest.raises(ValueError, match="out of range"):
        expanded_unitary(X, [5], 2)
    with pytest.raises(ValueError, match="at least one"):
        expanded_unitary(np.eye(1), [], 2)
    with pytest.raises(ValueError, match="num_qubits"):
        expanded_unitary(X, [0], 0)


# each call applies X, or traces, at qubit q of three and returns an array
QUBIT_CALLS = {
    "apply_gate": lambda q: apply_gate(basis_state(3, 0), X, [q]).amplitudes,
    "expanded_unitary": lambda q: expanded_unitary(X, (q,), 3),
    "_apply": lambda q: _apply(np.eye(8).reshape(2, 2, 2, 8), X, [q], 3),
    "apply_gate_density": lambda q: apply_gate_density(
        DensityMatrix.from_state(basis_state(3, 0)), X, [q]).entries,
    "partial_trace": lambda q: partial_trace(
        DensityMatrix.from_state(basis_state(3, 2)), [0, q]).entries,
}


@pytest.mark.parametrize("bad", [0.7, True, np.True_, np.float64(1.0), "1"], ids=repr)
@pytest.mark.parametrize("call", QUBIT_CALLS.values(), ids=QUBIT_CALLS.keys())
def test_a_qubit_is_an_index_other_than_a_bool(call, bad):
    want = call(1)  # caches qubit 1's plan, which lru_cache would hand True
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            call(bad)
        assert str(info.value) == f"qubit {bad!r} is not an integer index"
    assert np.array_equal(call(np.int64(1)), want)


def test_controlled_z_phase_kickback():
    # (|0>+|1>)/sqrt2 tensor |1> picks up a relative phase on the control
    plus_one = StateVector(2, np.array([0, SQ2, 0, SQ2]))
    out = apply_gate(plus_one, np.diag([1, 1, 1, -1]), [0, 1])
    assert np.allclose(out.amplitudes, [0, SQ2, 0, -SQ2])


def test_is_unitary():
    assert is_unitary(H)
    assert is_unitary(CNOT)
    assert not is_unitary(np.array([[1, 1], [0, 1]]))
    assert not is_unitary((1 + 1e-7) * X)  # m^H m is 2e-7 off the identity
    assert not is_unitary(np.ones((2, 3)))
    assert not is_unitary(np.array([[np.nan, 0], [0, 1]]))
    with np.errstate(invalid="ignore"):  # inf * 0 in m^H m
        assert not is_unitary(np.array([[1, 0], [0, np.inf]]))
    assert is_unitary(np.zeros((0, 0)))  # vacuously


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.sampled_from([0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-5, 1e-3]),
    st.booleans(),
)
def test_is_unitary_agrees_with_allclose(seed, k, eps, scale_only):
    rng = np.random.default_rng(seed)
    dim = 2**k
    u = random_unitary(dim, rng)
    if scale_only:  # moves only the diagonal of u^H u
        m = u * (1 + eps)
    else:
        m = u + eps * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    gram, eye = m.conj().T @ m, np.eye(dim)
    assert is_unitary(m) == np.allclose(gram, eye, rtol=0.0, atol=1e-10)


def born(state: StateVector) -> dict[str, float]:
    return bitstring_distribution(np.abs(state.amplitudes) ** 2, state.num_qubits)


def test_measurement_distribution_examples():
    plus = StateVector(1, np.array([SQ2, SQ2]))
    assert born(plus) == pytest.approx({"0": 0.5, "1": 0.5})
    assert born(basis_state(2, 3)) == {"11": 1.0}
    ghzish = StateVector(3, np.array([0, 0, 0, 0, SQ2, 0, 0, SQ2]))
    assert born(ghzish) == pytest.approx({"100": 0.5, "111": 0.5})


def test_measurement_distribution_drops_tiny_entries():
    eps = 1e-5  # probability 1e-10, above the 1e-12 cutoff: kept
    s = StateVector(1, np.array([np.sqrt(1 - eps**2), eps]))
    assert "1" in born(s)
    s2 = StateVector(1, np.array([np.sqrt(1 - 1e-26), np.sqrt(1e-26)]))
    assert "1" not in born(s2)


def test_partial_trace_pure_product():
    rho = DensityMatrix.from_state(basis_state(2, 1))  # |01>
    reduced = partial_trace(rho, [0])
    assert np.allclose(reduced.entries, [[1, 0], [0, 0]])


def test_partial_trace_bell_gives_maximally_mixed():
    bell = StateVector(2, np.array([SQ2, 0, 0, -SQ2]))
    rho = DensityMatrix.from_state(bell)
    for keep in ([0], [1]):
        reduced = partial_trace(rho, keep)
        assert np.allclose(reduced.entries, np.eye(2) / 2)


def test_partial_trace_plus_tensor_zero():
    plus = StateVector(1, np.array([SQ2, SQ2]))
    rho = DensityMatrix.from_state(
        StateVector(2, np.kron(plus.amplitudes, basis_state(1, 0).amplitudes)))
    reduced = partial_trace(rho, [0])
    assert np.allclose(reduced.entries, np.full((2, 2), 0.5))


def test_partial_trace_rejects_bad_keep():
    rho = DensityMatrix.from_state(basis_state(2, 0))
    with pytest.raises(ValueError, match="at least one"):
        partial_trace(rho, [])
    with pytest.raises(ValueError, match="repeated"):
        partial_trace(rho, [0, 0])
    with pytest.raises(ValueError, match="out of range"):
        partial_trace(rho, [3])


def test_purity_values():
    assert purity(DensityMatrix.from_state(basis_state(2, 2))) == pytest.approx(1.0)
    assert purity(DensityMatrix(1, np.eye(2) / 2)) == pytest.approx(0.5)
    assert purity(DensityMatrix(2, np.eye(4) / 4)) == pytest.approx(0.25)


def test_from_state_takes_a_stack():
    rng = np.random.default_rng(14)
    for size in (1, 3):
        members = [random_state(2, rng) for _ in range(size)]
        rho = DensityMatrix.from_state(
            StateVector(2, np.stack([m.amplitudes for m in members])))
        assert rho.entries.shape == (size, 4, 4)  # a stack of one stays a stack
        for entries, member in zip(rho.entries, members, strict=True):
            assert np.array_equal(entries, DensityMatrix.from_state(member).entries)


def test_purity_takes_a_stack():
    rng = np.random.default_rng(15)
    for size in (1, 3):
        stack = DensityMatrix(2, np.stack([random_density_matrix(2, rng)
                                           for _ in range(size)]))
        values = purity(stack)
        assert values.shape == (size,)  # a stack of one stays a stack
        assert values.tolist() == [purity(DensityMatrix(2, m)) for m in stack.entries]


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(1, np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(1, np.eye(2))
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(1, np.array([[1.5, 0], [0, -0.5]]))


def _half_with(entries: dict) -> np.ndarray:
    m = np.eye(2, dtype=np.complex128) / 2
    for index, value in entries.items():
        m[index] = value
    return m


NOT_HERMITIAN = "density matrix is not Hermitian"


# messages recorded from the np.allclose-based check this one replaced
@pytest.mark.parametrize(
    "entries, message",
    [
        (_half_with({(0, 0): np.nan}), NOT_HERMITIAN),
        (_half_with({(0, 1): np.nan}), NOT_HERMITIAN),
        (_half_with({(0, 1): np.nan, (1, 0): np.nan}), NOT_HERMITIAN),
        (_half_with({(1, 1): complex(0, np.nan)}), NOT_HERMITIAN),
        (_half_with({(0, 0): np.inf}), "density matrix trace is (inf+0j), not 1"),
        (_half_with({(1, 1): -np.inf}), "density matrix trace is (-inf+0j), not 1"),
        (_half_with({(0, 1): np.inf}), NOT_HERMITIAN),
        (_half_with({(1, 0): -np.inf}), NOT_HERMITIAN),
        (_half_with({(0, 1): np.inf, (1, 0): -np.inf}), NOT_HERMITIAN),
        (_half_with({(0, 0): complex(0, np.inf)}), NOT_HERMITIAN),
        (_half_with({(0, 1): 2e-10}), NOT_HERMITIAN),
        (_half_with({(0, 1): 2e-10j, (1, 0): 2e-10j}), NOT_HERMITIAN),
        # accepted until a NaN minimum eigenvalue, which eigvalsh gives here, failed
        (_half_with({(0, 1): np.inf, (1, 0): np.inf}),
         "density matrix has negative eigenvalue nan"),
    ],
)
def test_density_matrix_check_keeps_its_messages(entries, message):
    for m in (entries, np.stack([np.eye(2) / 2, entries])):
        with pytest.raises(ValueError) as exc:
            DensityMatrix(1, m)
        assert str(exc.value) == message


def test_density_matrix_reports_the_first_bad_trace_of_a_stack():
    stack = np.tile(np.eye(2, dtype=np.complex128) / 2, (5, 1, 1))
    stack[2, 0, 0] += 2e-10
    stack[4, 1, 1] += 3e-10
    with pytest.raises(ValueError) as exc:
        DensityMatrix(1, stack)
    assert str(exc.value) == "density matrix trace is (1.0000000002+0j), not 1"
    stack[2, 0, 0] = 0.5 + 2e-10j
    with pytest.raises(ValueError) as exc:
        DensityMatrix(1, stack)
    assert str(exc.value) == "density matrix trace is (1+2e-10j), not 1"


def test_density_matrix_check_keeps_its_tolerances():
    DensityMatrix(1, _half_with({(0, 1): 0.9e-10}))  # inside ATOL: Hermitian
    near = np.full((2, 2), 1e6, dtype=np.complex128)  # 5 inside 1e-5 * |1e6|
    near[0, 0], near[1, 1], near[0, 1] = 0.5, 0.5, 1e6 + 5
    with pytest.raises(ValueError) as exc:
        DensityMatrix(1, near)
    assert str(exc.value) == "density matrix has negative eigenvalue -999999.5"


# an off-diagonal entry's change, as a multiple of the tolerance it is drawn around
NEAR_ONE = st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 2.0]) | st.floats(0.9, 1.1)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 2),
    st.integers(1, 3),
    st.integers(-12, 0),
    st.sampled_from(["atol", "atol+rtol", "nan", "inf", "-inf", "inf pair"]),
    NEAR_ONE,
)
def test_the_hermitian_check_gives_the_allclose_verdict(seed, n, size, exponent,
                                                        change, scale):
    """The fast accept, max |m - m^H| <= ATOL, leaves every verdict to
    np.allclose(m, m^H, atol=ATOL): the check fails exactly when it does."""
    rng = np.random.default_rng(seed)
    m = np.stack([random_density_matrix(n, rng) for _ in range(size)])
    s, (i, j) = rng.integers(size), sorted(rng.choice(2**n, 2, replace=False))
    b = 10.0**exponent * np.exp(2j * np.pi * rng.random())  # m^H[i, j] = b
    m[s, i, j], m[s, j, i] = b, np.conj(b)
    phase = np.exp(2j * np.pi * rng.random())
    if change == "atol":
        m[s, i, j] += scale * ATOL * phase
    elif change == "atol+rtol":
        m[s, i, j] += scale * (ATOL + 1e-5 * abs(b)) * phase
    elif change == "nan":
        m[s, i, j] = complex(np.nan, 0.0) if scale < 1.0 else complex(0.0, np.nan)
    elif change == "inf pair":  # Hermitian to allclose, as m^H holds the same inf
        m[s, i, j], m[s, j, i] = np.inf, np.inf
    else:
        m[s, i, j] = float(change)
    hermitian = np.allclose(m, m.conj().swapaxes(-1, -2), atol=ATOL)
    try:
        DensityMatrix(n, m)
        message = None
    except ValueError as exc:  # a later check may fail too, with its own message
        message = str(exc)
    assert (message == NOT_HERMITIAN) == (not hermitian), (change, scale, message)


@st.composite
def registers_and_targets(draw):
    """n in 1..4 and 1..min(3, n) distinct targets in any order, so adjacent,
    non-adjacent and reversed target lists all occur."""
    n = draw(st.integers(1, 4))
    order = draw(st.permutations(range(n)))
    return n, tuple(order[: draw(st.integers(1, min(3, n)))])


@settings(max_examples=100, deadline=None)
@given(registers_and_targets(), st.integers(0, 2**32 - 1))
def test_apply_gate_matches_reference_expansion(register, seed):
    n, targets = register
    rng = np.random.default_rng(seed)
    state = random_state(n, rng)
    gate = random_unitary(2 ** len(targets), rng)
    full = expand_gate_reference(gate, targets, n)
    out = apply_gate(state, gate, targets)
    assert np.abs(out.amplitudes - full @ state.amplitudes).max() <= 1e-12
    assert np.array_equal(expanded_unitary(gate, targets, n), full)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_apply_gate_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    state = random_state(3, rng)
    gate = random_unitary(4, rng)
    out = apply_gate(state, gate, (0, 2))
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_disjoint_gates_commute(seed):
    rng = np.random.default_rng(seed)
    state = random_state(3, rng)
    u = random_unitary(2, rng)
    v = random_unitary(4, rng)
    ab = apply_gate(apply_gate(state, u, [1]), v, [0, 2])
    ba = apply_gate(apply_gate(state, v, [0, 2]), u, [1])
    assert np.allclose(ab.amplitudes, ba.amplitudes, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_inverse_gate_recovers_input(seed):
    rng = np.random.default_rng(seed)
    state = random_state(3, rng)
    gate = random_unitary(4, rng)
    out = apply_gate(apply_gate(state, gate, (2, 0)), gate.conj().T, (2, 0))
    assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_partial_trace_of_product_state_is_pure(seed):
    rng = np.random.default_rng(seed)
    amps = np.kron(random_state(1, rng).amplitudes, random_state(2, rng).amplitudes)
    state = StateVector(3, amps)
    rho = DensityMatrix.from_state(state)
    for keep in ([0], [1, 2]):
        assert purity(partial_trace(rho, keep)) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_partial_trace_matches_reference(seed):
    rng = np.random.default_rng(seed)
    state = random_state(3, rng)
    rho = DensityMatrix.from_state(state)
    keep = sorted(rng.permutation(3)[: int(rng.integers(1, 3))])
    reduced = partial_trace(rho, keep)
    assert np.allclose(
        reduced.entries, reduced_density_reference(state, keep), atol=1e-10
    )
    assert np.trace(reduced.entries).real == pytest.approx(1.0, abs=1e-10)


def test_expanded_unitary_matches_reference():
    rng = np.random.default_rng(11)
    gate = random_unitary(4, rng)
    assert np.allclose(
        expanded_unitary(gate, (2, 0), 3),
        expand_gate_reference(gate, (2, 0), 3),
        atol=1e-12,
    )


def test_apply_gate_density_matches_reference_on_single_and_stacked():
    rng = np.random.default_rng(11)
    gate = random_unitary(4, rng)
    full = expand_gate_reference(gate, (2, 0), 3)
    stack = np.stack([random_density_matrix(3, rng) for _ in range(4)])
    stacked = apply_gate_density(DensityMatrix(3, stack), gate, (2, 0)).entries
    assert stacked.shape == (4, 8, 8)
    for member, out in zip(stack, stacked):
        assert np.abs(out - full @ member @ full.conj().T).max() <= 1e-12
        single = apply_gate_density(DensityMatrix(3, member), gate, (2, 0))
        assert np.array_equal(single.entries, out)  # a member is walked alone


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.array([[0.5, 0.5], [0.0, 0.5]]), "Hermitian"),
        (np.eye(2), "trace"),
        (np.array([[1.5, 0], [0, -0.5]]), "negative eigenvalue"),
    ],
)
def test_one_invalid_member_fails_the_whole_stack(bad, message):
    good = np.eye(2) / 2
    for position in range(3):
        stack = [good, good, good]
        stack[position] = bad
        with pytest.raises(ValueError, match=message):
            DensityMatrix(1, np.stack(stack))
    assert DensityMatrix(1, np.stack([good] * 3)).entries.shape == (3, 2, 2)
    with pytest.raises(ValueError, match="expected"):  # one stack axis at most
        DensityMatrix(1, np.stack([good] * 3)[None])


def test_channels_reduce_every_member_of_a_stack():
    rng = np.random.default_rng(12)
    stack = np.stack([random_density_matrix(3, rng) for _ in range(3)])
    reduced = partial_trace(DensityMatrix(3, stack), [2, 0]).entries
    for member, out in zip(stack, reduced):
        want = partial_trace(DensityMatrix(3, member), [2, 0]).entries
        assert np.array_equal(out, want)
    probs = DensityMatrix(3, stack).probabilities()
    assert probs.shape == (3, 8)
    for member, row in zip(stack, probs):
        assert np.array_equal(row, DensityMatrix(3, member).probabilities())
