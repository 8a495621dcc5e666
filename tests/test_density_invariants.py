"""The density-matrix channels skip re-validation of their results, so these
tests enforce what the skipped checks enforced: every output of
`apply_gate_density`, `depolarize` and `partial_trace` is a valid, read-only
density matrix; a noisy walk validates only its start and its end; and with
zero noise the density walk agrees with the pure one."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairdeutsch import algorithms
from pairdeutsch.algorithms import DEUTSCH, ENTANGLED_PAIR, PRODUCT_PAIR
from pairdeutsch.noise import NoiseModel, depolarize, run_noisy
from pairdeutsch.oracles import B1, B2, C1, C2, all_promise_pairs
from pairdeutsch.qstate import (
    CNOT,
    X,
    DensityMatrix,
    apply_gate_density,
    partial_trace,
)
from reference_impls import (
    expand_gate_reference,
    random_density_matrix,
    random_state,
    random_unitary,
)


@st.composite
def density_matrices(draw):
    """A valid density matrix on 1-3 qubits: mixed (Wishart) or pure."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return DensityMatrix(n, random_density_matrix(n, rng))
    return DensityMatrix.from_state(random_state(n, rng))


def qubit_lists(n: int, max_size: int):
    """Distinct qubits of an n-qubit register in random order, 1..max_size."""
    return st.permutations(range(n)).flatmap(
        lambda order: st.integers(1, min(max_size, n)).map(lambda k: order[:k])
    )


def assert_valid_and_read_only(out: DensityMatrix) -> None:
    DensityMatrix(out.num_qubits, out.entries)  # the full check, re-run
    with pytest.raises(ValueError):
        out.entries[0, 0] = 0.5


@settings(max_examples=60, deadline=None)
@given(density_matrices(), st.data())
def test_apply_gate_density_output_is_valid_and_matches_reference(rho, data):
    n = rho.num_qubits
    targets = data.draw(qubit_lists(n, 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    gate = random_unitary(2 ** len(targets), rng)
    out = apply_gate_density(rho, gate, targets)
    assert_valid_and_read_only(out)
    u = expand_gate_reference(gate, tuple(targets), n)
    assert np.abs(out.entries - u @ rho.entries @ u.conj().T).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(density_matrices(), st.data())
def test_depolarize_output_is_valid(rho, data):
    targets = data.draw(qubit_lists(rho.num_qubits, 2))
    p = data.draw(st.floats(0.0, 1.0))
    assert_valid_and_read_only(depolarize(rho, targets, p))


@settings(max_examples=60, deadline=None)
@given(density_matrices(), st.data())
def test_partial_trace_output_is_valid(rho, data):
    keep = data.draw(qubit_lists(rho.num_qubits, rho.num_qubits))
    out = partial_trace(rho, keep)
    assert out.num_qubits == len(keep)
    assert_valid_and_read_only(out)


def near_unitary(eps: float) -> np.ndarray:
    """CNOT (I + eps/2 J): its g^H g is I + (eps + eps^2) J, off by eps on
    every entry; on |++> it moves the trace by 4 eps, the most it can."""
    return CNOT @ (np.eye(4) + eps / 2 * np.ones((4, 4)))


def test_apply_gate_density_rejects_non_unitary_gates():
    rho = DensityMatrix.from_state(random_state(2, np.random.default_rng(5)))
    # 2X breaks the trace; (1 + 1e-7)X is within np.allclose's default rtol;
    # near_unitary(9e-11) is within 1e-10 per entry but moves a 2-qubit
    # trace by 3.6e-10, so a d x d gate must be unitary to 1e-10 / d
    for gate, targets in [
        (2 * X, [1]),
        ((1 + 1e-7) * X, [1]),
        (np.array([[1, 1], [0, 1]]), [1]),
        (near_unitary(9e-11), [0, 1]),
    ]:
        with pytest.raises(ValueError, match="unitary"):
            apply_gate_density(rho, gate, targets)


def test_apply_gate_density_accepts_gates_that_keep_the_trace_bound():
    plus_plus = DensityMatrix(2, np.full((4, 4), 0.25))
    out = apply_gate_density(plus_plus, near_unitary(2e-11), [0, 1])
    assert_valid_and_read_only(out)  # trace 1 + 8e-11


@pytest.mark.parametrize("algorithm", [ENTANGLED_PAIR, PRODUCT_PAIR])
def test_noisy_walk_validates_its_start_and_end_only(algorithm, monkeypatch):
    checked = []
    check = DensityMatrix.__post_init__

    def counted(self):
        checked.append(self.num_qubits)
        check(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
    for pair in all_promise_pairs():
        checked.clear()
        run_noisy(algorithm, pair, NoiseModel.table2())
        assert len(checked) == 2, pair.label()


NOISELESS_CASES = [
    *((alg, pair) for alg in (ENTANGLED_PAIR, PRODUCT_PAIR)
      for pair in all_promise_pairs()),
    *((DEUTSCH, fn) for fn in (C1, C2, B1, B2)),
]


@pytest.mark.parametrize(
    "algorithm, oracles",
    NOISELESS_CASES,
    ids=[f"{alg}-{oracles.label()}" for alg, oracles in NOISELESS_CASES],
)
def test_noiseless_density_walk_matches_pure_walk(algorithm, oracles):
    density = run_noisy(algorithm, oracles, NoiseModel.table2().scaled(0.0))
    pure = algorithms.run(algorithm, oracles).final_distribution
    assert density.keys() == pure.keys()
    for outcome, p in pure.items():
        assert abs(density[outcome] - p) <= 1e-12, outcome
