"""Independent reference implementations used as test oracles.

These deliberately avoid the library's transpose/einsum/broadcasting code
paths: gates are expanded by explicit bit surgery, reduced and depolarized
density matrices by index loops, random samples are drawn one factor at a
time and grid points are built one angle at a time, so agreement with the
library is a genuine cross-check.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from pairdeutsch.entanglement import PRODUCT_TOL, schmidt_analyze
from pairdeutsch.oracles import B1, B2, C1, C2, BoolFn
from pairdeutsch.qstate import CNOT, X, StateVector, apply_gate


def bit_of(index: int, qubit: int, num_qubits: int) -> int:
    """Big-endian bit extraction: qubit 0 is the most significant."""
    return (index >> (num_qubits - 1 - qubit)) & 1


def basis_state(num_qubits: int, index: int) -> StateVector:
    """Computational basis state |index>, big-endian: qubit 0 is the most
    significant bit of `index`."""
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def expand_gate_reference(
    gate: np.ndarray, targets: tuple[int, ...], num_qubits: int
) -> np.ndarray:
    """Full 2**n unitary for `gate` on `targets`, built entry by entry."""
    dim = 2**num_qubits
    k = len(targets)
    full = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        bits = [bit_of(col, q, num_qubits) for q in range(num_qubits)]
        gate_col = 0
        for t in targets:
            gate_col = (gate_col << 1) | bits[t]
        for gate_row in range(2**k):
            new_bits = list(bits)
            for pos, t in enumerate(targets):
                new_bits[t] = (gate_row >> (k - 1 - pos)) & 1
            row = int("".join(map(str, new_bits)), 2)
            full[row, col] += gate[gate_row, gate_col]
    return full


def reduced_density_reference(
    state: StateVector, keep: list[int]
) -> np.ndarray:
    """Reduced density matrix over `keep` (in list order) via index loops."""
    n = state.num_qubits
    amps = state.amplitudes
    others = [q for q in range(n) if q not in keep]
    k = len(keep)
    rho = np.zeros((2**k, 2**k), dtype=np.complex128)
    for i, ai in enumerate(amps):
        for j, aj in enumerate(amps):
            if any(bit_of(i, q, n) != bit_of(j, q, n) for q in others):
                continue
            r = c = 0
            for q in keep:
                r = (r << 1) | bit_of(i, q, n)
                c = (c << 1) | bit_of(j, q, n)
            rho[r, c] += ai * np.conj(aj)
    return rho


def schmidt_coefficients_reference(state: StateVector, left: list[int]) -> np.ndarray:
    """Schmidt coefficients as square roots of reduced-density eigenvalues."""
    rho = reduced_density_reference(state, sorted(left))
    eigs = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    return np.sqrt(np.sort(eigs)[::-1])


def two_qubit_schmidt_reference(state: StateVector) -> np.ndarray:
    """Schmidt coefficients (s1, s2) of one two-qubit state without an SVD or
    an eigensolver. From d = |det M| and F = |M|_F^2 of its 2x2 amplitude
    matrix, taken by index loops: (s1 +- s2)^2 = F +- 2d gives s1, and
    s2 = d / s1 keeps a small second coefficient accurate near 0."""
    m = [[state.amplitudes[2 * i + j] for j in range(2)] for i in range(2)]
    d = abs(m[0][0] * m[1][1] - m[0][1] * m[1][0])
    f = sum(abs(m[i][j]) ** 2 for i in range(2) for j in range(2))
    s1 = (np.sqrt(f + 2 * d) + np.sqrt(max(f - 2 * d, 0.0))) / 2
    return np.array([s1, d / s1])


def depolarize_reference(
    entries: np.ndarray, targets: list[int], p: float
) -> np.ndarray:
    """(1-p) rho + p (Tr_targets rho placed on the other qubits) (x) I/2^k on
    `targets`, entry by entry: a mixed entry is nonzero only where row and
    column agree on every target bit, and sums rho over those bits."""
    dim = entries.shape[0]
    n = dim.bit_length() - 1
    k = len(targets)
    mask = sum(1 << (n - 1 - q) for q in targets)

    def with_target_bits(index: int, t: int) -> int:
        index &= ~mask
        for pos, q in enumerate(targets):
            index |= ((t >> (k - 1 - pos)) & 1) << (n - 1 - q)
        return index

    mixed = np.zeros_like(entries)
    for i in range(dim):
        for j in range(dim):
            if i & mask != j & mask:
                continue
            total = sum(
                entries[with_target_bits(i, t), with_target_bits(j, t)]
                for t in range(2**k)
            )
            mixed[i, j] = total / 2**k
    return (1.0 - p) * entries + p * mixed


def readout_confusion_reference(probs: np.ndarray, rates) -> np.ndarray:
    """Observed-outcome probabilities, one true and one observed bitstring at
    a time: each qubit reads its bit flipped with its rate e, else intact."""
    n = len(rates)
    observed = np.zeros(2**n)
    for true in range(2**n):
        for seen in range(2**n):
            weight = 1.0
            for q, e in enumerate(rates):
                flipped = bit_of(true, q, n) != bit_of(seen, q, n)
                weight *= e if flipped else 1.0 - e
            observed[seen] += weight * probs[true]
    return observed


# I, X, Y, Z: a Pauli string is a tuple of these indices, qubit 0 first
PAULIS = tuple(np.array(m, dtype=complex) for m in (
    [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]))


@lru_cache(maxsize=None)
def clifford_conjugation(gate_bytes: bytes, k: int) -> dict:
    """k-qubit Pauli string P -> (P', s) with U P U^H = s P', s = +-1, for the
    gate U whose complex entries are `gate_bytes`: one signed permutation of
    the Pauli strings, found by trying every P' against each U P U^H."""
    u = np.frombuffer(gate_bytes, dtype=complex).reshape(2**k, 2**k)
    strings = list(product(range(4), repeat=k))
    matrices = {}
    for string in strings:
        m = np.eye(1)
        for a in string:
            m = np.kron(m, PAULIS[a])
        matrices[string] = m
    table = {}
    for string in strings:
        conjugated = u @ matrices[string] @ u.conj().T
        for image in strings:
            s = np.trace(matrices[image] @ conjugated) / 2**k
            if abs(abs(s) - 1.0) < 1e-9:
                assert abs(s.imag) < 1e-9, (string, image, s)
                table[string] = (image, 1.0 if s.real > 0 else -1.0)
                break
        else:
            raise ValueError(f"not a Clifford gate: {u}")
    return table


def noisy_walk_reference(gates, targets, num_qubits: int, model) -> np.ndarray:
    """Outcome probabilities of the noisy walk of `gates`, each on its tuple
    of `targets`, by Pauli transfer: carry <P> = Tr(rho P) for every Pauli
    string P from |0...0>, where <P> is 1 on the strings of I and Z and 0
    elsewhere. A Clifford gate permutes the strings with signs. Depolarizing
    its targets at rate p multiplies by (1 - p) every string that is not the
    identity on all of them. Readout multiplies <Z_S> by (1 - 2 e_q) for each
    q in S, and p(b) = 2^-n sum over S of (-1)^(b . S) <Z_S>."""
    n = num_qubits
    expect = {string: float(all(a in (0, 3) for a in string))
              for string in product(range(4), repeat=n)}
    for gate, on in zip(gates, targets):
        gate = np.ascontiguousarray(gate, dtype=complex)
        table = clifford_conjugation(gate.tobytes(), len(on))
        moved = {}
        for string, value in expect.items():
            image, sign = table[tuple(string[t] for t in on)]
            out = list(string)
            for t, a in zip(on, image):
                out[t] = a
            moved[tuple(out)] = sign * value
        if len(on) == 1:
            p = model.single_qubit_gate_error[on[0]]
        else:
            p = model.two_qubit_gate_error[min(on), max(on)]
        expect = {string: value * (1.0 - p) if any(string[t] for t in on)
                  else value for string, value in moved.items()}
    probs = np.zeros(2**n)
    for b in range(2**n):
        for subset in product((0, 1), repeat=n):  # Z on the qubits marked 1
            term = expect[tuple(3 * z for z in subset)]
            for q, z in enumerate(subset):
                if z:
                    term *= (1.0 - 2.0 * model.readout_error[q]) * (-1) ** bit_of(b, q, n)
            probs[b] += term / 2**n
    return probs


def random_product_params_reference(count: int, seed: int) -> list[tuple]:
    """(alpha, beta, gamma, delta) per sample, one factor at a time: a real
    and an imaginary size-2 Gaussian draw, normalized by np.linalg.norm."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        factors = []
        for _ in range(2):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            factors.append(v / np.linalg.norm(v))
        out.append((factors[0][0], factors[0][1], factors[1][0], factors[1][1]))
    return out


def cnot_product_condition_reference(row) -> tuple[bool, bool]:
    """(algebraic prediction, numerical verdict) for one (alpha, beta, gamma,
    delta) row: scalar arithmetic for the prediction, then one single-state
    CNOT and the SVD of its 2x2 amplitude matrix for the verdict."""
    alpha, beta, gamma, delta = (complex(v) for v in row)
    det = alpha * beta * (gamma**2 - delta**2)
    predicted = bool(abs(det) < PRODUCT_TOL)
    state = StateVector(2, np.multiply.outer([alpha, beta], [gamma, delta]).reshape(-1))
    out = apply_gate(state, CNOT, (0, 1)).amplitudes.reshape(2, 2)
    actual = bool(np.linalg.svd(out, compute_uv=False)[1] < PRODUCT_TOL)
    return predicted, actual


def step_second_coefficients_reference(record) -> list[tuple[str, float]]:
    """(label, largest second Schmidt coefficient over the single-qubit cuts)
    for every recorded step of a run: one single-state Schmidt test per step
    and cut."""
    out = []
    for label, state in record.step_states:
        cuts = [schmidt_analyze(state, [q]) for q in range(state.num_qubits)]
        out.append((label, max(cut.schmidt_coefficients[1] for cut in cuts)))
    return out


def bloch_grid_params_reference(theta_points: int, phi_points: int) -> list[tuple]:
    """(a, b, a, b) per grid point, one theta and one phi at a time:
    a = cos(theta/2), b = sin(theta/2) e^(i phi), theta-major."""
    params = []
    for theta in np.linspace(0.0, np.pi, theta_points):
        a = complex(np.cos(theta / 2))
        s = np.sin(theta / 2)
        for phi in np.linspace(0.0, 2 * np.pi, phi_points, endpoint=False):
            b = s * np.exp(1j * phi)
            params.append((a, b, a, b))
    return params


def random_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    v = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(num_qubits, v / np.linalg.norm(v))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a complex Gaussian."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_density_matrix(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Random mixed state: normalized Wishart matrix."""
    dim = 2**num_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m)


AUDIT_FUNCTIONS = (C1, C2, B1, B2)  # the order of the audit's Gram axes


def family_input_reference(family: str, params) -> np.ndarray:
    """Two-qubit input of the one-query audit: the family fixes one factor
    and the (alpha, beta, gamma, delta) row gives the other, joined by an
    explicit Kronecker product."""
    alpha, beta, gamma, delta = params
    s = 1.0 / np.sqrt(2.0)
    if family == "ket0-tensor-any":
        ctrl, tgt = [1.0, 0.0], [gamma, delta]
    elif family == "ket1-tensor-any":
        ctrl, tgt = [0.0, 1.0], [gamma, delta]
    elif family == "any-tensor-plus":
        ctrl, tgt = [alpha, beta], [s, s]
    elif family == "any-tensor-minus":
        ctrl, tgt = [alpha, beta], [s, -s]
    else:
        raise ValueError(f"unknown family {family!r}")
    return np.kron(np.array(ctrl, dtype=complex), np.array(tgt, dtype=complex))


def oracle_matrix_reference(fn: BoolFn) -> np.ndarray:
    """|x>|y> -> |x>|y ^ f(x)>, one matrix entry per basis state."""
    u = np.zeros((4, 4), dtype=np.complex128)
    for col in range(4):
        x, y = bit_of(col, 0, 2), bit_of(col, 1, 2)
        u[2 * x + (y ^ fn(x)), col] = 1.0
    return u


def oracle_gate_sequence(fn: BoolFn) -> list[tuple[str, np.ndarray, tuple[int, ...]]]:
    """Two-wire gate realization of the oracle: a CNOT when the function is
    balanced, then an X on the target wire when fn(0) = 1. Composing the
    sequence must reproduce oracle_unitary(fn), the single source of truth."""
    seq: list[tuple[str, np.ndarray, tuple[int, ...]]] = []
    if fn.f0 ^ fn.f1:
        seq.append(("CNOT", CNOT, (0, 1)))
    if fn.f0:
        seq.append(("X", X, (1,)))
    return seq


def oracle_output_gram_reference(family: str, sample_params) -> np.ndarray:
    """|<out_i|out_j>| per sample, one matrix-vector product per oracle and
    one vdot per pair, in the AUDIT_FUNCTIONS order."""
    matrices = [oracle_matrix_reference(fn) for fn in AUDIT_FUNCTIONS]
    grams = []
    for params in sample_params:
        state = family_input_reference(family, params)
        outs = [u @ state for u in matrices]
        grams.append([[abs(np.vdot(a, b)) for b in outs] for a in outs])
    return np.array(grams).reshape(-1, 4, 4)


def closed_form_overlaps(row) -> tuple[float, float, float]:
    """|<in|U_h|in>| for h = C2, B1, B2 by the closed form, no matrices: for
    in = (alpha|0> + beta|1>)(gamma|0> + delta|1>) and r = 2 Re(conj(gamma)
    delta), they are |r|, ||alpha|^2 + |beta|^2 r| and ||alpha|^2 r + |beta|^2|."""
    alpha, beta, gamma, delta = (complex(v) for v in row)
    r = 2 * (gamma.conjugate() * delta).real
    a2, b2 = abs(alpha) ** 2, abs(beta) ** 2
    return abs(r), abs(a2 + b2 * r), abs(a2 * r + b2)


def closed_form_decidable(overlaps, tol: float) -> tuple[str, ...]:
    """Quantities whose two flipping differences both overlap below tol:
    C2 and B2 flip f(0), C2 and B1 flip f(1), B1 and B2 flip f(0)^f(1)."""
    c2, b1, b2 = (overlap < tol for overlap in overlaps)
    decided = {"f0": c2 and b2, "f1": c2 and b1, "f0_xor_f1": b1 and b2}
    return tuple(quantity for quantity, d in decided.items() if d)


def decidable_quantities_reference(gram: np.ndarray, tol: float) -> tuple[str, ...]:
    """Quantities of f(0), f(1), f(0)^f(1) for which the functions giving 0
    and those giving 1 have pairwise output overlaps below tol."""
    values = {
        "f0": lambda fn: fn.f0,
        "f1": lambda fn: fn.f1,
        "f0_xor_f1": lambda fn: fn.f0 ^ fn.f1,
    }
    decidable = []
    for quantity, value in values.items():
        groups: dict[int, list[int]] = {0: [], 1: []}
        for i, fn in enumerate(AUDIT_FUNCTIONS):
            groups[value(fn)].append(i)
        if all(gram[i, j] < tol for i in groups[0] for j in groups[1]):
            decidable.append(quantity)
    return tuple(decidable)
