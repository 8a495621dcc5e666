"""Exact few-qubit simulation and verification of entanglement-assisted
pair testing of one-bit Boolean functions.

Given two functions promised to be both constant or both balanced, a
two-query circuit with an entangled work-qubit pair decides, in one shot,
whether they are balanced and whether they are equal; a three-query circuit
does the same without ever creating entanglement. The package runs both
(plus the single-function one-query test), audits the separability theorem
behind the query gap, and replays the runs under a calibrated noise model
with finite-shot statistics.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .algorithms import (
    ALGORITHMS,
    DEUTSCH,
    ENTANGLED_PAIR,
    PRODUCT_PAIR,
    DecodedAnswer,
    RunRecord,
    circuit_ops,
    decode,
    run_deutsch,
    run_entangled_pair,
    run_product_pair,
)
from .entanglement import (
    FAMILIES,
    FamilyAuditReport,
    SeparabilityVerdict,
    audit_family_distinguishability,
    bloch_grid_params,
    cnot_product_condition,
    random_product_params,
    schmidt_analyze,
    step_second_coefficients,
    trace_run_separability,
)
from .noise import (
    FidelityReport,
    NoiseModel,
    bhattacharyya,
    depolarize,
    run_noisy,
    run_noisy_models,
    sample_shots,
    statistical_fidelity,
)
from .oracles import (
    B1,
    B2,
    C1,
    C2,
    BoolFn,
    PromisePair,
    all_promise_pairs,
    is_balanced,
    oracle_unitary,
    parse_oracle,
    same_at_zero,
)
from .qstate import (
    CNOT,
    H,
    X,
    DensityMatrix,
    StateVector,
    apply_gate,
    is_unitary,
    partial_trace,
    purity,
)
from .verify import VerificationReport, verify_build

__all__ = [
    "__version__",
    "ALGORITHMS",
    "DEUTSCH",
    "ENTANGLED_PAIR",
    "PRODUCT_PAIR",
    "B1",
    "B2",
    "C1",
    "C2",
    "CNOT",
    "H",
    "X",
    "BoolFn",
    "DecodedAnswer",
    "DensityMatrix",
    "FAMILIES",
    "FamilyAuditReport",
    "FidelityReport",
    "NoiseModel",
    "PromisePair",
    "RunRecord",
    "SeparabilityVerdict",
    "StateVector",
    "VerificationReport",
    "all_promise_pairs",
    "apply_gate",
    "audit_family_distinguishability",
    "bhattacharyya",
    "bloch_grid_params",
    "circuit_ops",
    "cnot_product_condition",
    "decode",
    "depolarize",
    "is_balanced",
    "is_unitary",
    "oracle_unitary",
    "parse_oracle",
    "partial_trace",
    "purity",
    "random_product_params",
    "run_deutsch",
    "run_entangled_pair",
    "run_noisy",
    "run_noisy_models",
    "run_product_pair",
    "same_at_zero",
    "sample_shots",
    "schmidt_analyze",
    "statistical_fidelity",
    "step_second_coefficients",
    "trace_run_separability",
    "verify_build",
]
