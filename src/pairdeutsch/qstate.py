"""Dense simulation primitives for few-qubit pure states and density matrices.

Bit convention, used everywhere downstream: big-endian. Qubit 0 is the most
significant bit of a basis index, so a bitstring reads left to right as
qubits 0, 1, 2, ... and for three qubits "100" (qubit 0 set) is index 4.

All values are immutable after construction and all operations are pure
functions returning new values, so states can be shared freely across
threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
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
    _integer(num_qubits, "num_qubits", 1, MAX_QUBITS)


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


def _index(value: int, what: str = "qubit") -> int:
    """The one index rule, for qubits and, through `_integer`, every integer: an
    index other than a bool (np.int64 passes, 0.7 and True fail), or a ValueError
    naming `what`. It runs before a cache lookup: lru_cache takes 9.0 for 9."""
    try:
        if type(value) is bool:  # an index to operator.index, but not here
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer index") from None


def _integer(value: int, what: str, low: int, high: int | None = None) -> int:
    """The one integer rule: the index rule, then low..high, no ceiling for None."""
    value = _index(value, what)
    if value < low or high is not None and value > high:
        bound = f"at least {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{what} must be {bound}, got {value}")
    return value


def _qubits(qubits: Sequence[int]) -> tuple[int, ...]:
    """Each qubit of the list read by the index rule."""
    return tuple(map(_index, qubits))


def _subset(qubits: tuple[int, ...], n: int, what: str) -> tuple[int, ...]:
    """The one qubit-list rule, on indices read by `_qubits`: at least one
    qubit, each once and each below n, or a ValueError naming `what`."""
    if not qubits:
        raise ValueError(f"{what}=[] must name at least one qubit")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"repeated qubit in {what}={list(qubits)}")
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(
                f"qubit {q} in {what}={list(qubits)} is out of range for {n} qubit(s)")
    return qubits


@lru_cache(maxsize=256)
def _axes(targets: tuple, num_qubits: int, ndim: int, stacked: bool) -> tuple:
    """Plan of `_apply` after its target checks: the axis order that puts the
    targets first (after the stack axis, the last one, for a gate stack), the
    moved tensor's matrix shape (-1 for a gate stack's length, which may be
    0) and the order that puts every axis back."""
    _subset(targets, num_qubits, "targets")
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
    order, shape, inverse = _axes(_qubits(targets), num_qubits, tensor.ndim, stacked)
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
    channels, which build their results unchecked through `_trusted`.

    Hermitian means np.allclose(m, m^H, atol=ATOL). A stack whose largest
    |m - m^H| is within ATOL passes it for certain and is accepted without
    the call; any other stack, one with a NaN or infinite entry included,
    gets np.allclose's own verdict."""

    num_qubits: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        _check_num_qubits(self.num_qubits)
        dim = 2**self.num_qubits
        m = np.asarray(self.entries, dtype=np.complex128)
        if m.ndim not in (2, 3) or m.shape[-2:] != (dim, dim) or m.size == 0:
            raise ValueError(f"expected a {dim}x{dim} matrix, got shape {m.shape}")
        mh = m.conj().swapaxes(-1, -2)
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf: NaN fails
            within = np.maximum.reduce(abs(m - mh), axis=None) <= ATOL
        # |m - m^H| <= ATOL implies allclose's <= ATOL + 1e-5 |m^H|
        if not within and not np.allclose(m, mh, atol=ATOL):
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
        # np.clip(diag, 0.0, None) dispatches to this np.maximum
        p = np.maximum(np.diagonal(self.entries, axis1=-2, axis2=-1).real, 0.0)
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


def _placement(gate: np.ndarray, targets: Sequence[int], num_qubits: int) -> tuple:
    """`apply_gate_density`'s place-and-check core: the gate's full unitary U
    and U^H, both read-only, once the gate is checked to be unitary."""
    u = expanded_unitary(gate, targets, num_qubits)
    # the one input that can break validity: a d x d gate off unitarity by e
    # per entry moves the trace by up to d * e, so e <= ATOL / d bounds it
    if not is_unitary(gate, ATOL / len(gate)):
        raise ValueError("apply_gate_density expects a unitary gate")
    return _readonly(u), _readonly(u.conj().T)


def apply_gate_density(
    rho: DensityMatrix, gate: np.ndarray, targets: Sequence[int]
) -> DensityMatrix:
    """U rho U^H, one product of the full unitary for the whole stack."""
    u, uh = _placement(gate, targets, rho.num_qubits)
    return DensityMatrix._trusted(rho.num_qubits, u @ rho.entries @ uh)


@lru_cache(maxsize=256)
def _trace_gather(n: int, keep: tuple[int, ...]) -> np.ndarray:
    """`partial_trace`'s plan after its checks: a read-only (2**(n-k), 4**k)
    gather of the flat entries, row t holding the reduced matrix's entries
    at the traced qubits' basis state t, so its column sums trace them out."""
    _subset(keep, n, "keep")
    traced = [q for q in range(n) if q not in keep]

    def index(qubits):  # each basis state of `qubits`, big-endian, as a full index
        bits = np.arange(2 ** len(qubits))[:, None] >> np.arange(len(qubits))[::-1] & 1
        return bits @ (1 << (n - 1 - np.array(qubits, dtype=int)))

    kept, t = index(keep), index(traced)[:, None, None]
    gather = (kept[:, None] + t) * 2**n + kept[None, :] + t
    return _readonly(gather.reshape(len(t), -1))


def _partial_trace(entries: np.ndarray, n: int, keep: tuple[int, ...]) -> np.ndarray:
    """`partial_trace`'s array core, on entries of shape stack + (2**n, 2**n)
    and a tuple of qubit indices: one cached gather of the flat entries and
    one sum over the traced states, bit for bit the einsum it replaced. With
    every qubit kept there is one term, taken unsummed: a sum over one term
    would turn -0.0 into +0.0."""
    gather, k = _trace_gather(n, keep), len(keep)  # checks keep against n
    stack = entries.shape[:-2]
    flat = entries.reshape(stack + (4**n,))
    reduced = flat.take(gather[0], -1) if k == n else flat.take(gather, -1).sum(axis=-2)
    return reduced.reshape(stack + (2**k, 2**k))


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out every qubit not listed in `keep`, from every member.

    The output qubit order follows the `keep` list, so keep=[1, 0] also
    swaps the two remaining qubits.
    """
    keep = _qubits(keep)
    reduced = _partial_trace(rho.entries, rho.num_qubits, keep)
    return DensityMatrix._trusted(len(keep), reduced)


def purity(rho: DensityMatrix) -> float | np.ndarray:
    """Tr(rho^2), one value or one per member: 1 if pure, 1/dim if maximally mixed."""
    return np.real(np.trace(rho.entries @ rho.entries, axis1=-2, axis2=-1))
