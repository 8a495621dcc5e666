"""Dense simulation primitives for few-qubit pure states and density matrices.

Bit convention, used everywhere downstream: big-endian. Qubit 0 is the most
significant bit of a basis index, so a bitstring reads left to right as
qubits 0, 1, 2, ... and for three qubits "100" (qubit 0 set) is index 4.

All values are immutable after construction and all operations are pure
functions returning new values, so states can be shared freely across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from string import ascii_lowercase
from typing import Sequence

import numpy as np

ATOL = 1e-10        # tolerance for exact-arithmetic identities
EIG_ATOL = 1e-9     # tolerance for eigenvalue / SVD based checks
PROB_CUTOFF = 1e-12  # probabilities below this are dropped from distributions
MAX_QUBITS = 12     # dense representation only; dim 4096 is the ceiling


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_num_qubits(num_qubits: int) -> None:
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in 1..{MAX_QUBITS}, got {num_qubits}")


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes over 2**num_qubits basis states, or an (S, 2**n) stack."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _check_num_qubits(self.num_qubits)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim > 2:  # one state is 1-D; a stack holds one state per row
            raise ValueError(f"expected one state or a stack, got shape {amps.shape}")
        if (size := (amps.shape or (1,))[-1]) != 2**self.num_qubits:  # 0-d: 1
            raise ValueError(f"expected {2**self.num_qubits} amplitudes, got {size}")
        norms = np.add.reduce(np.abs(amps) ** 2, axis=-1)  # one, or one per row
        if not np.maximum.reduce(np.abs(norms - 1.0), initial=0.0) <= ATOL:
            # the first bad row, a NaN norm too, fails the whole stack
            norm2 = float(norms[~(np.abs(norms - 1.0) <= ATOL)][0])
            raise ValueError(f"state is not normalized: sum |a|^2 = {norm2!r}")
        object.__setattr__(self, "amplitudes", _readonly(amps.copy()))

    @classmethod
    def _trusted(cls, num_qubits: int, amplitudes: np.ndarray) -> StateVector:
        """Wrap amplitudes known to be valid, such as a row of a checked
        stack, read-only and without a check."""
        state = object.__new__(cls)  # frozen: set through its __dict__
        vars(state).update(num_qubits=num_qubits, amplitudes=_readonly(amplitudes))
        return state


def _const(entries) -> np.ndarray:
    return _readonly(np.array(entries, dtype=np.complex128))


X = _const([[0, 1], [1, 0]])
H = _const(np.array([[1, 1], [1, -1]]) / np.sqrt(2.0))
CNOT = _const(np.eye(4)[[0, 1, 3, 2]])  # X on qubit 1 while qubit 0 is set


@lru_cache(maxsize=16)
def _identity(dim: int) -> np.ndarray:
    return _readonly(np.eye(dim, dtype=np.complex128))


def is_unitary(matrix: np.ndarray, tol: float = ATOL) -> bool:
    """Every entry of m^H m is within `tol` of the identity's; NaN fails."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool((abs(m.conj().T @ m - _identity(len(m))) <= tol).all())


@lru_cache(maxsize=256)
def _axes(targets: tuple, num_qubits: int, ndim: int, stacked: bool) -> tuple:
    """Plan of `_apply` after its target checks: the axis order that puts the
    targets first (after the stack axis, the last one, for a gate stack), the
    moved tensor's matrix shape (-1 for a gate stack's length, which may be
    0) and the order that puts every axis back."""
    targets = tuple(int(t) for t in targets)
    if not targets:
        raise ValueError("a gate needs at least one target qubit")
    if len(set(targets)) != len(targets):
        raise ValueError(f"repeated target qubit in {targets}")
    for t in targets:
        if not 0 <= t < num_qubits:
            raise ValueError(f"target {t} out of range for {num_qubits} qubit(s)")
    order = targets + tuple(a for a in range(ndim) if a not in targets)
    d = 2 ** len(targets)
    shape = (-1, d, 2**num_qubits // d) if stacked else (d, -1)
    if stacked:
        order = order[-1:] + order[:-1]
    return order, shape, tuple(sorted(range(ndim), key=order.__getitem__))


def _apply(
    tensor: np.ndarray, gate: np.ndarray, targets: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Contract `gate` into the listed qubit axes of `tensor`, whose first
    num_qubits axes are qubits 0..n-1 (size 2 each) and whose remaining axes
    ride along. The first target binds the gate's most significant axis,
    matching the big-endian basis ordering of the gate matrix itself. A gate
    stack, shape (S, d, d), needs one axis of length S after the qubits: its
    member s acts on index s of that axis."""
    stacked = gate.ndim == 3
    order, shape, inverse = _axes(tuple(targets), num_qubits, tensor.ndim, stacked)
    k, d = len(targets), 2 ** len(targets)
    if gate.ndim not in (2, 3) or gate.shape[-2:] != (d, d):
        raise ValueError(
            f"gate of shape {gate.shape} cannot act on {k} target qubit(s)")
    if stacked and tensor.shape[num_qubits:] != gate.shape[:1]:
        raise ValueError(
            f"a stack of {len(gate)} gates cannot act on shape {tensor.shape}")
    # np.tensordot's contraction without its axis bookkeeping: target axes
    # first (after the stack axis of a gate stack), one matrix product, then
    # every axis back in place
    moved = tensor.transpose(order)
    out = np.matmul(gate, moved.reshape(shape))
    return out.reshape(moved.shape).transpose(inverse)


def apply_gate(
    state: StateVector, gate: np.ndarray, targets: Sequence[int]
) -> StateVector:
    """Apply `gate` to the listed qubits, identity elsewhere, in every member.

    `gate` may also be a gate stack, shape (S, d, d), whose member s acts on
    member s of an (S, 2**n) stack."""
    n = state.num_qubits
    amps = state.amplitudes.T  # qubit axes first, a stack riding along
    gate = np.asarray(gate, dtype=np.complex128)
    out = _apply(amps.reshape((2,) * n + amps.shape[1:]), gate, targets, n)
    return StateVector(n, out.reshape(amps.shape).T)


def bitstring_distribution(probs: np.ndarray, num_qubits: int) -> dict[str, float]:
    """Probability vector as big-endian bitstring -> probability, in basis
    order; entries below the 1e-12 cutoff are omitted."""
    fmt = f"0{num_qubits}b"
    return {format(i, fmt): float(p) for i, p in enumerate(probs) if p >= PROB_CUTOFF}


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on n qubits, or a
    stack of S of them, shape (S, 2**n, 2**n): checked, the whole stack at
    once, by `DensityMatrix(...)` and `from_state`, and preserved by the
    channels, which build their results unchecked through `_trusted`."""

    num_qubits: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        _check_num_qubits(self.num_qubits)
        dim = 2**self.num_qubits
        m = np.asarray(self.entries, dtype=np.complex128)
        if m.ndim not in (2, 3) or m.shape[-2:] != (dim, dim) or m.size == 0:
            raise ValueError(f"expected a {dim}x{dim} matrix, got shape {m.shape}")
        if not np.allclose(m, m.conj().swapaxes(-1, -2), atol=ATOL):
            raise ValueError("density matrix is not Hermitian")
        for tr in m.trace(axis1=-2, axis2=-1).reshape(-1).tolist():
            if abs(tr - 1.0) > ATOL:
                raise ValueError(f"density matrix trace is {tr!r}, not 1")
        min_eig = float(np.linalg.eigvalsh(m).min())
        if not min_eig >= -EIG_ATOL:  # NaN, from an infinite entry, fails too
            raise ValueError(f"density matrix has negative eigenvalue {min_eig!r}")
        object.__setattr__(self, "entries", _readonly(m.copy()))

    @classmethod
    def _trusted(cls, num_qubits: int, entries: np.ndarray) -> DensityMatrix:
        """Wrap freshly computed, valid-by-construction entries read-only."""
        rho = object.__new__(cls)  # frozen: set through its __dict__
        vars(rho).update(num_qubits=num_qubits, entries=_readonly(entries))
        return rho

    @classmethod
    def from_state(cls, state: StateVector) -> DensityMatrix:
        """|a><a| of one state, or of each member of a stack, checked as one stack."""
        a = state.amplitudes
        return cls(state.num_qubits, a[..., :, None] * a.conj()[..., None, :])

    def probabilities(self) -> np.ndarray:
        """Diagonal as a real probability vector, one row per stack member;
        eigenvalue-tolerance negatives are clipped and each row renormalized."""
        p = np.clip(np.diagonal(self.entries, axis1=-2, axis2=-1).real, 0.0, None)
        return p / p.sum(axis=-1, keepdims=True)


def expanded_unitary(
    gate: np.ndarray, targets: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Embed `gate` acting on `targets` into the full 2**n unitary: `_apply`
    of the gate to the identity's columns."""
    _check_num_qubits(num_qubits)
    dim = 2**num_qubits
    identity = _identity(dim).reshape((2,) * num_qubits + (dim,))
    g = np.asarray(gate, dtype=np.complex128)
    return _apply(identity, g, targets, num_qubits).reshape(dim, dim)


def apply_gate_density(
    rho: DensityMatrix, gate: np.ndarray, targets: Sequence[int]
) -> DensityMatrix:
    """U rho U^H, one product of the full unitary for the whole stack."""
    u = expanded_unitary(gate, targets, rho.num_qubits)
    # the one input that can break validity: a d x d gate off unitarity by e
    # per entry moves the trace by up to d * e, so e <= ATOL / d bounds it
    if not is_unitary(gate, ATOL / len(gate)):
        raise ValueError("apply_gate_density expects a unitary gate")
    return DensityMatrix._trusted(rho.num_qubits, u @ rho.entries @ u.conj().T)


@lru_cache(maxsize=256)
def _trace_subscripts(n: int, keep: tuple[int, ...]) -> str:
    """einsum subscripts of `partial_trace` after its checks; repeats trace."""
    if not keep:
        raise ValueError("keep list must be non-empty")
    if len(set(keep)) != len(keep):
        raise ValueError(f"repeated qubit in keep={list(keep)}")
    for q in keep:
        if not 0 <= q < n:
            raise ValueError(f"keep qubit {q} out of range for {n} qubit(s)")
    row, col = ascii_lowercase[:n], ascii_lowercase[n : 2 * n]
    src = row + "".join(col[q] if q in keep else row[q] for q in range(n))
    dst = "".join(row[q] for q in keep) + "".join(col[q] for q in keep)
    return f"...{src}->...{dst}"


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out every qubit not listed in `keep`, from every member.

    The output qubit order follows the `keep` list, so keep=[1, 0] also
    swaps the two remaining qubits.
    """
    n, keep = rho.num_qubits, tuple(map(int, keep))
    subscripts, k = _trace_subscripts(n, keep), len(keep)  # checks keep against n
    stack = rho.entries.shape[:-2]
    reduced = np.einsum(subscripts, rho.entries.reshape(stack + (2,) * (2 * n)))
    return DensityMatrix._trusted(k, reduced.reshape(stack + (2**k, 2**k)))


def purity(rho: DensityMatrix) -> float | np.ndarray:
    """Tr(rho^2), one value or one per member: 1 if pure, 1/dim if maximally mixed."""
    return np.real(np.trace(rho.entries @ rho.entries, axis1=-2, axis2=-1))
