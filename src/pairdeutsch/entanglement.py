"""Separability certificates for pure states and the product-state oracle audit.

Two audits back the claim that the two-query pair test needs entanglement.
First, a CNOT on a product state (a|0>+b|1>)(c|0>+d|1>) stays product
exactly when a*b*(c^2-d^2) = 0, checked against a numerical Schmidt test.
Second, one oracle query decides at most one of f(0), f(1), f(0)^f(1). The
oracles are XOR permutations, so the outputs of two functions that differ
by h (C2, B1 or B2) overlap by |<in|U_h|in>|. For the input
(alpha|0> + beta|1>)(gamma|0> + delta|1>) and r = 2 Re(conj(gamma) delta),
the target factor's <t|X|t>, these are

    C2, X on the target:            |r|
    B1, X on the target under |1>:  ||alpha|^2 + |beta|^2 r|
    B2, X on the target under |0>:  ||alpha|^2 r + |beta|^2|

f(0) needs the C2 and B2 overlaps to vanish: r = 0 and beta = 0, which
leaves B1's at 1. f(1) needs r = 0 and alpha = 0, which leaves B2's at 1.
f(0)^f(1) needs B1's and B2's to vanish; they sum to 1 + r, so r = -1 and
C2's is 1. The audit computes the overlaps numerically for the four input
families that survive the CNOT criterion; the tests hold them to this form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import compress, islice
from typing import Iterable

import numpy as np

from .algorithms import RunRecord
from .oracles import B1, B2, C2, oracle_unitary
from .qstate import ATOL, CNOT, StateVector, _readonly, apply_gate

PRODUCT_TOL = 1e-9  # second Schmidt coefficient below this counts as product

KET0_FAMILY = "ket0-tensor-any"
KET1_FAMILY = "ket1-tensor-any"
PLUS_FAMILY = "any-tensor-plus"
MINUS_FAMILY = "any-tensor-minus"

FAMILIES = (KET0_FAMILY, KET1_FAMILY, PLUS_FAMILY, MINUS_FAMILY)
# in FAMILIES order: the wire each family fixes (0 input, 1 target), and the
# single-qubit factor it fixes there as a row
_FIXED_WIRES = (0, 0, 1, 1)
_SQRT_HALF = 1.0 / np.sqrt(2.0)
_FIXED_FACTORS = _readonly(np.array(
    [[1.0, 0.0], [0.0, 1.0], [_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]]))

QUANTITIES = ("f0", "f1", "f0_xor_f1")

# The oracles are XOR permutations, so U_f^H U_g = U_{f^g}, with f^g one of
# _DIFFERENCES for f != g. _FLIPS[h, q]: functions that differ by
# _DIFFERENCES[h] disagree on QUANTITIES[q], as h gives q the value 1.
_DIFFERENCES = (C2, B1, B2)
_FLIPS = _readonly(
    np.array([(h.f0, h.f1, h.f0 ^ h.f1) for h in _DIFFERENCES], dtype=bool))


@dataclass(frozen=True, eq=False)  # an array field has no single-bool ==
class SeparabilityVerdict:
    bipartition: tuple[tuple[int, ...], tuple[int, ...]]
    schmidt_coefficients: np.ndarray  # read-only (k,), or (S, k) for a stack
    is_product: np.ndarray  # read-only bool of shape (), or (S,) for a stack


def schmidt_analyze(state: StateVector, left: Iterable[int]) -> SeparabilityVerdict:
    """Schmidt coefficients across the bipartition: singular values of the
    amplitude tensor reshaped to (left qubits) x (remaining qubits),
    sorted descending. Product iff the second coefficient vanishes. A 2x2
    matrix (two qubits) takes a closed form, any other one SVD; a stack is
    analysed at once and the verdict's fields gain its leading axis."""
    left_qubits = sorted({int(q) for q in left})
    n = state.num_qubits
    if not left_qubits or len(left_qubits) == n:
        raise ValueError("bipartition must be a non-empty proper subset")
    for q in left_qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n} qubit(s)")
    right = [q for q in range(n) if q not in left_qubits]
    lead = state.amplitudes.ndim - 1  # 1 for a stack, 0 for one state
    psi = state.amplitudes.reshape(state.amplitudes.shape[:lead] + (2,) * n)
    mat = psi.transpose([*range(lead)] + [lead + q for q in left_qubits + right])
    mat = mat.reshape(psi.shape[:lead] + (2 ** len(left_qubits), 2 ** len(right)))
    # k >= 2: each side has a qubit; two qubits take the closed form
    coeffs = (_singular_values_2x2(mat) if mat.shape[-2:] == (2, 2)
              else np.linalg.svd(mat, compute_uv=False))
    # asarray: a numpy bool scalar, one state's verdict, cannot be read-only
    product = np.asarray(coeffs[..., 1] < PRODUCT_TOL)
    coeffs.flags.writeable = product.flags.writeable = False
    return SeparabilityVerdict((tuple(left_qubits), tuple(right)), coeffs, product)


def _singular_values_2x2(mat: np.ndarray) -> np.ndarray:
    """(s1, s2) of each 2x2 matrix on the last two axes from d = |det M| and
    F = |M|_F^2 (s1^2 + s2^2 = F, s1*s2 = d); s2 = d/s1 is as small as d."""
    det = mat[..., 0, 0] * mat[..., 1, 1] - mat[..., 0, 1] * mat[..., 1, 0]
    d = np.sqrt(det.real**2 + det.imag**2)
    frob = np.sum(mat.real**2 + mat.imag**2, axis=(-2, -1))
    root = np.sqrt(np.maximum((frob - 2 * d) * (frob + 2 * d), 0.0))
    s1 = np.sqrt((frob + root) / 2)  # > 0: a state's amplitudes have norm 1
    return np.stack([s1, d / s1], axis=-1)


_PAIR_LABELS = ("alpha/beta", "gamma/delta")
_NOT_NORMALIZED = "{} amplitudes not normalized: sum of squares {!r}"
# two pairs this close to norm 1 make a product state within ATOL of it, with
# room for rounding, so cnot_product_condition wraps the product state of
# every row that this check accepts without a second check
_PAIR_ATOL = ATOL / 4


def _checked_rows(params: np.ndarray) -> np.ndarray:
    """params as (S, 4) rows (alpha, beta, gamma, delta), each pair's sum of
    squares within ATOL/4 of 1: the one input rule of both audits."""
    params = np.asarray(params, dtype=np.complex128)
    if params.ndim != 2 or params.shape[1] != 4:
        raise ValueError(f"params must have shape (S, 4), got {params.shape}")
    squares = np.abs(params) ** 2
    norms = squares[:, 0::2] + squares[:, 1::2]  # columns: alpha/beta, gamma/delta
    bad = np.argwhere(~(np.abs(norms - 1.0) <= _PAIR_ATOL))  # NaN fails too
    if bad.size:
        sample, pair = bad[0]
        label, norm2 = _PAIR_LABELS[pair], float(norms[sample, pair])
        raise ValueError(_NOT_NORMALIZED.format(label, norm2))
    return params


def cnot_product_condition(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(algebraic prediction, numerical verdict), two read-only (S,) bool
    arrays, for whether a CNOT leaves the product state
    (alpha|0> + beta|1>)(gamma|0> + delta|1>) of each (S, 4) row separable.

    The prediction is |alpha*beta*(gamma^2 - delta^2)| ~ 0 (complex squares,
    not magnitudes); the verdict applies the gate to the stack of all rows'
    states and runs one batched Schmidt test. The two must agree."""
    params = _checked_rows(params)
    alpha, beta, gamma, delta = params.T
    predicted = np.abs(alpha * beta * (gamma**2 - delta**2)) < PRODUCT_TOL
    predicted.flags.writeable = False
    products = (params[:, :2, None] * params[:, None, 2:]).reshape(-1, 4)
    cnot = apply_gate(StateVector._trusted(2, products), CNOT, (0, 1))
    return predicted, schmidt_analyze(cnot, [0]).is_product


def oracle_output_overlaps(params: np.ndarray) -> np.ndarray:
    """(4, S, 3) |<in|U_h|in>| for h = C2, B1, B2: the overlap of the one-query
    outputs of any two of C1, C2, B1, B2 that differ by h. In block k, family
    FAMILIES[k] fixes one tensor factor of the input state in, and each of the
    (S, 4) rows (alpha, beta, gamma, delta) of params gives the other. All
    four families' inputs form one (4, S, 4) array, queried in one pass."""
    params = _checked_rows(params)
    # each U_h is a permutation matrix: amplitude perm[i] of in moves to row i
    perms = [np.argmax(oracle_unitary(h), axis=1) for h in _DIFFERENCES]
    # [family, row, wire, amplitude]: each row's factors, then the fixed one
    factors = np.repeat(params.reshape(1, -1, 2, 2), len(FAMILIES), axis=0)
    factors[range(len(FAMILIES)), :, _FIXED_WIRES] = _FIXED_FACTORS[:, None]
    inputs = (factors[:, :, 0, :, None] * factors[:, :, 1, None, :]).reshape(
        len(FAMILIES), -1, 4)
    outs = inputs[..., perms]  # (4, S, 3, 4): U_h|in> for every family, row and h
    return np.abs(np.einsum("fsi,fshi->fsh", inputs.conj(), outs))


def _decidable_quantities(overlaps: np.ndarray) -> np.ndarray:
    """(..., 3) bool: a quantity is decidable in one shot when every
    difference that flips it leaves orthogonal outputs."""
    return ~(~(overlaps < PRODUCT_TOL) @ _FLIPS)  # no flipping difference overlaps


@dataclass(frozen=True, eq=False)  # an array field has no single-bool ==
class FamilyAuditReport:
    family: str
    samples: np.ndarray  # (S, 3) read-only bool, columns in QUANTITIES order
    decidable: tuple[str, ...]  # union over all samples

    @property
    def at_most_one_decidable(self) -> bool:
        """True when the union, and hence every sample, decides at most one
        quantity."""
        return len(self.decidable) <= 1


def audit_family_distinguishability(
    params: np.ndarray,
) -> tuple[FamilyAuditReport, ...]:
    """For every (alpha, beta, gamma, delta) row in each family, query all
    four functions and report which of f(0), f(1), f(0)^f(1) is perfectly
    decidable: one report per family, in FAMILIES order."""
    decided = _decidable_quantities(oracle_output_overlaps(params))
    decided.flags.writeable = False  # each report's samples is a view of it
    return tuple(
        FamilyAuditReport(family, samples, tuple(compress(QUANTITIES, seen)))
        for family, samples, seen in zip(FAMILIES, decided, decided.any(axis=1))
    )


def bloch_grid_params(theta_points: int = 51) -> np.ndarray:
    """Deterministic single-qubit grid, theta_points polar x theta_points + 1
    azimuthal angles, as (theta * phi, 4) rows (a, b, a, b): the same factor
    for both wires, theta-major; families pick out whichever factor they need.

    The grid hits theta = pi/2 (equal magnitudes) only for an odd theta count,
    and phi in {0, pi/2, pi, 3pi/2} only when theta_points + 1 is a multiple
    of 4, as at the default 51; phi = 0 is always on it.
    """
    half = np.linspace(0.0, np.pi, theta_points)[:, None] / 2
    phi = np.linspace(0.0, 2 * np.pi, theta_points + 1, endpoint=False)
    b = np.sin(half) * np.exp(1j * phi)
    a = np.broadcast_to(np.cos(half), b.shape)
    return np.stack([a, b, a, b], axis=-1).reshape(-1, 4)


def random_product_params(count: int, seed: int) -> np.ndarray:
    """(count, 4) rows (alpha, beta, gamma, delta) of Haar-distributed
    single-qubit factors from a seeded generator."""
    # one draw in the order of a per-sample loop: sample, factor, real or
    # imaginary part, amplitude
    draw = np.random.default_rng(seed).normal(size=(count, 2, 2, 2))
    re, im = draw[:, :, 0], draw[:, :, 1]
    # the sum np.linalg.norm takes for one complex vector, re.re + im.im,
    # so each factor is rounded as when it was normalized on its own
    norms = np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))
    factors = (re + 1j * im) / norms[..., None]
    return factors.reshape(count, 4)


@cache  # one read-only gather per width, built on its first use
def _cut_order(n: int) -> np.ndarray:
    """(n, 2**n) gather: row q lists the basis indices of an n-qubit state in
    the order that moves qubit q first, the others after it in order."""
    index = np.arange(2**n).reshape((2,) * n)
    return _readonly(np.stack([np.moveaxis(index, q, 0).ravel() for q in range(n)]))


def step_second_coefficients(
    records: Iterable[RunRecord],
) -> list[list[tuple[str, float]]]:
    """Largest second Schmidt coefficient over the single-qubit cuts, for
    every recorded step of each run of one width: [(label, second), ...] per
    record. One gather stacks every step n times, block q with qubit q moved
    first, so the n cuts of all steps are one batched Schmidt test of qubit 0
    against the rest: the same 2 x 2**(n-1) matrices as a test per cut."""
    records = list(records)
    if not records:
        return []
    labels, states = zip(*(step for r in records for step in r.step_states))
    n = states[0].num_qubits  # np.stack rejects a record of another width
    amps = np.stack([state.amplitudes for state in states])
    # (n, S, 2**n), one block per cut; every step was checked when it was made
    cuts = amps[np.arange(len(amps))[:, None], _cut_order(n)[:, None]]
    stack = StateVector._trusted(n, cuts.reshape(-1, 2**n))
    seconds = schmidt_analyze(stack, [0]).schmidt_coefficients[:, 1]
    seconds = iter(zip(labels, seconds.reshape(n, -1).max(axis=0).tolist()))
    return [list(islice(seconds, len(r.step_states))) for r in records]


def trace_run_separability(record: RunRecord) -> list[tuple[str, bool]]:
    """Whether every single-qubit cut is product, for every recorded step of a run."""
    seconds = step_second_coefficients([record])[0]
    return [(label, s < PRODUCT_TOL) for label, s in seconds]
