"""Separability certificates for pure states and the product-state oracle audit.

Two computational audits back the claim that the two-query pair test needs
entanglement. First, a CNOT acting on a two-qubit product state (a|0>+b|1>)
(c|0>+d|1>) stays product exactly when a*b*(c^2-d^2) = 0; the algebraic
criterion is checked against a numerical Schmidt test. Second, for each of
the four input families that survive that criterion, one oracle query is
shown to make at most one of f(0), f(1), f(0)^f(1) perfectly decidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .algorithms import RunRecord
from .oracles import B1, B2, C1, C2, oracle_unitary
from .qstate import ATOL, CNOT, StateVector, apply_gate

PRODUCT_TOL = 1e-9  # second Schmidt coefficient below this counts as product

KET0_FAMILY = "ket0-tensor-any"
KET1_FAMILY = "ket1-tensor-any"
PLUS_FAMILY = "any-tensor-plus"
MINUS_FAMILY = "any-tensor-minus"

_SQRT_HALF = 1.0 / np.sqrt(2.0)
# family -> (the single-qubit factor it fixes, the wire it fixes: 0 input, 1 target)
_FAMILY_FACTORS = {
    KET0_FAMILY: (np.array([1.0, 0.0]), 0),
    KET1_FAMILY: (np.array([0.0, 1.0]), 0),
    PLUS_FAMILY: (np.array([_SQRT_HALF, _SQRT_HALF]), 1),
    MINUS_FAMILY: (np.array([_SQRT_HALF, -_SQRT_HALF]), 1),
}
FAMILIES = tuple(_FAMILY_FACTORS)

QUANTITIES = ("f0", "f1", "f0_xor_f1")

_AUDIT_FUNCTIONS = (C1, C2, B1, B2)
# _DISAGREE[q, i, j]: functions i and j give different values of QUANTITIES[q]
_QUANTITY_VALUES = np.array(
    [(fn.f0, fn.f1, fn.f0 ^ fn.f1) for fn in _AUDIT_FUNCTIONS]
).T
_DISAGREE = _QUANTITY_VALUES[:, :, None] != _QUANTITY_VALUES[:, None, :]


@dataclass(frozen=True)
class SeparabilityVerdict:
    bipartition: tuple[tuple[int, ...], tuple[int, ...]]
    schmidt_coefficients: tuple[float, ...]
    is_product: bool


def schmidt_analyze(state: StateVector, left: Iterable[int]) -> SeparabilityVerdict:
    """Schmidt coefficients across the bipartition: singular values of the
    amplitude tensor reshaped to (left qubits) x (remaining qubits),
    sorted descending. Product iff the second coefficient vanishes."""
    left_qubits = sorted({int(q) for q in left})
    n = state.num_qubits
    if not left_qubits or len(left_qubits) == n:
        raise ValueError("bipartition must be a non-empty proper subset")
    for q in left_qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n} qubit(s)")
    right = [q for q in range(n) if q not in left_qubits]
    psi = state.amplitudes.reshape((2,) * n)
    mat = np.transpose(psi, axes=left_qubits + right).reshape(
        2 ** len(left_qubits), -1
    )
    coeffs = np.linalg.svd(mat, compute_uv=False)
    second = float(coeffs[1]) if coeffs.size > 1 else 0.0
    return SeparabilityVerdict(
        bipartition=(tuple(left_qubits), tuple(right)),
        schmidt_coefficients=tuple(float(c) for c in coeffs),
        is_product=second < PRODUCT_TOL,
    )


def fully_product(state: StateVector) -> bool:
    """True when every single-qubit-vs-rest bipartition is product."""
    if state.num_qubits < 2:
        raise ValueError("fully_product needs at least two qubits")
    return all(
        schmidt_analyze(state, [q]).is_product for q in range(state.num_qubits)
    )


@dataclass(frozen=True)
class ProductStateParams:
    """Amplitudes (alpha, beta) of the oracle's input wire and (gamma, delta)
    of its target wire, each pair normalized."""

    alpha: complex
    beta: complex
    gamma: complex
    delta: complex

    def __post_init__(self) -> None:
        pairs = (
            ("alpha/beta", self.alpha, self.beta),
            ("gamma/delta", self.gamma, self.delta),
        )
        for label, a, b in pairs:
            norm2 = abs(a) ** 2 + abs(b) ** 2
            if abs(norm2 - 1.0) > ATOL:
                raise ValueError(
                    f"{label} amplitudes not normalized: sum of squares {norm2!r}"
                )

    def product_state(self) -> StateVector:
        """(alpha|0> + beta|1>) (gamma|0> + delta|1>), input wire first."""
        return StateVector(
            2, np.multiply.outer([self.alpha, self.beta], [self.gamma, self.delta])
        )


def cnot_product_condition(params: ProductStateParams) -> tuple[bool, bool]:
    """(algebraic prediction, numerical verdict) for whether a CNOT leaves
    the product state separable.

    The prediction is |alpha*beta*(gamma^2 - delta^2)| ~ 0 (complex squares,
    not magnitudes); the verdict applies the gate and runs the Schmidt test.
    The two must agree.
    """
    det = params.alpha * params.beta * (params.gamma**2 - params.delta**2)
    predicted = bool(abs(det) < PRODUCT_TOL)
    out = apply_gate(params.product_state(), CNOT, (0, 1))
    actual = schmidt_analyze(out, [0]).is_product
    return predicted, actual


def oracle_output_gram(
    family: str, sample_params: Sequence[ProductStateParams]
) -> np.ndarray:
    """(S, 4, 4) array of |<out_i|out_j>| over the samples, where out_i is the
    family's input state after one query of the i-th function of C1, C2, B1,
    B2. The family fixes one tensor factor; params give the other."""
    if family not in _FAMILY_FACTORS:
        raise ValueError(
            f'unknown family "{family}" (known: {", ".join(FAMILIES)})'
        )
    fixed, wire = _FAMILY_FACTORS[family]
    free = np.array(
        [(p.gamma, p.delta) if wire == 0 else (p.alpha, p.beta) for p in sample_params],
        dtype=np.complex128,
    ).reshape(-1, 2)
    ctrl, tgt = (fixed[None], free) if wire == 0 else (free, fixed[None])
    inputs = (ctrl[:, :, None] * tgt[:, None, :]).reshape(-1, 4)
    unitaries = np.stack([oracle_unitary(fn) for fn in _AUDIT_FUNCTIONS])
    outs = np.einsum("fij,sj->sfi", unitaries, inputs)
    return np.abs(np.einsum("sfi,sgi->sfg", outs.conj(), outs))


def _decidable_quantities(gram: np.ndarray) -> np.ndarray:
    """(S, 3) bool: a quantity is decidable in one shot when every pair of
    functions that disagrees on it has orthogonal outputs."""
    return np.all((gram[:, None] < PRODUCT_TOL) | ~_DISAGREE, axis=(2, 3))


@dataclass(frozen=True)
class FamilySampleVerdict:
    params: ProductStateParams
    decidable: tuple[str, ...]


@dataclass(frozen=True)
class FamilyAuditReport:
    family: str
    samples: tuple[FamilySampleVerdict, ...]
    decidable: tuple[str, ...]  # union over all samples

    @property
    def at_most_one_decidable(self) -> bool:
        """True when no sample (and hence the union) decides two quantities."""
        return len(self.decidable) <= 1 and all(
            len(s.decidable) <= 1 for s in self.samples
        )


def audit_family_distinguishability(
    family: str, sample_params: Sequence[ProductStateParams]
) -> FamilyAuditReport:
    """For every sampled input in the family, query all four functions and
    report which of f(0), f(1), f(0)^f(1) is perfectly decidable."""
    decided = _decidable_quantities(oracle_output_gram(family, sample_params))
    verdicts = [
        FamilySampleVerdict(params, tuple(q for q, d in zip(QUANTITIES, row) if d))
        for params, row in zip(sample_params, decided)
    ]
    seen = {q for v in verdicts for q in v.decidable}
    union = tuple(q for q in QUANTITIES if q in seen)
    return FamilyAuditReport(family=family, samples=tuple(verdicts), decidable=union)


def bloch_grid_params(
    theta_points: int = 51, phi_points: int = 52
) -> list[ProductStateParams]:
    """Deterministic single-qubit grid, polar x azimuthal, used for both free
    factors; families pick out whichever factor they need.

    Point counts are chosen so the grid hits the special angles exactly:
    theta = pi/2 (equal magnitudes) and phi in {0, pi/2, pi, 3pi/2}.
    """
    params = []
    for theta in np.linspace(0.0, np.pi, theta_points):
        a = complex(np.cos(theta / 2))
        s = np.sin(theta / 2)
        for phi in np.linspace(0.0, 2 * np.pi, phi_points, endpoint=False):
            b = s * np.exp(1j * phi)
            params.append(ProductStateParams(a, b, a, b))
    return params


def random_product_params(count: int, seed: int) -> list[ProductStateParams]:
    """Haar-distributed single-qubit factors from a seeded generator."""
    # one draw in the order of a per-sample loop: sample, factor, real or
    # imaginary part, amplitude
    draw = np.random.default_rng(seed).normal(size=(count, 2, 2, 2))
    re, im = draw[:, :, 0], draw[:, :, 1]
    # the sum np.linalg.norm takes for one complex vector, re.re + im.im,
    # so each factor is rounded as when it was normalized on its own
    norms = np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))
    factors = (re + 1j * im) / norms[..., None]
    return [ProductStateParams(*row) for row in factors.reshape(count, 4).tolist()]


def trace_run_separability(record: RunRecord) -> list[tuple[str, bool]]:
    """fully_product verdict for every recorded step of a run."""
    return [(label, fully_product(state)) for label, state in record.step_states]
