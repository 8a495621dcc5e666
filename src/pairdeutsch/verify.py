"""Exhaustive build verification, wired for CI and the `verify` CLI command.

Runs every promise pair through both pair-testing circuits, checks the
decoded answers against the truth tables (query accounting needs no check
here: a RunRecord exists only if its counts match the algorithm table), and
checks the separability claims: the two-query circuit passes through an
entangled state, the three-query circuit never does.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from . import algorithms
from .algorithms import RunRecord
from .entanglement import PRODUCT_TOL, step_second_coefficients
from .oracles import NAMED_FUNCTIONS, all_promise_pairs, is_balanced, same_at_zero

CORRECT_MASS_TOL = 1e-10
DEUTSCH_TOL = 1e-12
INIT_SCHMIDT_FLOOR = 1.0 / np.sqrt(2.0) - 1e-6


class VerificationError(Exception):
    pass


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> dict[str, str]:
        """Passed/total per check group (the prefix before the first colon)."""
        groups: dict[str, list[bool]] = {}
        for c in self.checks:
            groups.setdefault(c.name.split(":", 1)[0], []).append(c.passed)
        return {k: f"{sum(v)}/{len(v)}" for k, v in sorted(groups.items())}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise VerificationError(message)


def _run(algorithm: str, oracles) -> RunRecord | Exception:
    try:
        return algorithms.run(algorithm, oracles)
    except Exception as exc:  # fails every check that reads this run
        return exc


def _check(name: str, record: RunRecord | Exception, fn, *args) -> CheckResult:
    if isinstance(record, Exception):
        return CheckResult(name, False, str(record))
    try:
        detail = fn(record, *args)
    except Exception as exc:  # failures become report entries, not crashes
        return CheckResult(name, False, str(exc))
    return CheckResult(name, True, detail or "ok")


def _pair_correctness(record: RunRecord, pair) -> str:
    truth = (is_balanced(pair.f), same_at_zero(pair))
    decoded = astuple(record.decoded)
    _require(decoded == truth, f"decoded {decoded}, truth {truth}")
    correct_mass = sum(
        p
        for outcome, p in record.final_distribution.items()
        if astuple(algorithms.decode(outcome)) == truth
    )
    _require(
        abs(correct_mass - 1.0) <= CORRECT_MASS_TOL,
        f"correct outcomes carry probability {correct_mass!r}, not 1",
    )
    return f"decoded {decoded} with probability 1"


def _deutsch_correctness(record: RunRecord, fn) -> str:
    want = is_balanced(fn)
    _require(
        record.decoded.balanced == want,
        f"decoded balanced={record.decoded.balanced}, truth {want}",
    )
    marginal = sum(
        p
        for outcome, p in record.final_distribution.items()
        if int(outcome[0]) == want
    )
    _require(
        abs(marginal - 1.0) <= DEUTSCH_TOL,
        f"answer-qubit marginal {marginal!r}, not 1",
    )
    return f"answer bit {want} with probability 1"


def _entangled_separability(record: RunRecord) -> str:
    seconds = step_second_coefficients(record)
    _require(
        any(second >= PRODUCT_TOL for _, second in seconds),
        "no entangled step found in the two-query run",
    )
    second = dict(seconds)["initialize"]
    _require(
        second >= INIT_SCHMIDT_FLOOR,
        f"initialization second Schmidt coefficient {second!r} below"
        f" {INIT_SCHMIDT_FLOOR!r}",
    )
    return f"entangled at initialization (second coefficient {second:.6f})"


def _product_separability(record: RunRecord) -> str:
    seconds = step_second_coefficients(record)
    for label, second in seconds:
        _require(
            second < PRODUCT_TOL,
            f'step "{label}" has second Schmidt coefficient {second!r}',
        )
    worst = max(second for _, second in seconds)
    return f"all steps product (worst second coefficient {worst:.2e})"


def verify_build() -> VerificationReport:
    """Each circuit runs once per oracle choice; every check that reads the
    run gets its record, or fails with the run's error."""
    checks: list[CheckResult] = []
    for pair in all_promise_pairs():
        label = pair.label()
        entangled = _run(algorithms.ENTANGLED_PAIR, pair)
        product = _run(algorithms.PRODUCT_PAIR, pair)
        for group, record, check, args in (
            ("correctness-entangled", entangled, _pair_correctness, (pair,)),
            ("correctness-product", product, _pair_correctness, (pair,)),
            ("separability-entangled", entangled, _entangled_separability, ()),
            ("separability-product", product, _product_separability, ()),
        ):
            checks.append(_check(f"{group}:{label}", record, check, *args))
    for name, fn in NAMED_FUNCTIONS.items():
        record = _run(algorithms.DEUTSCH, fn)
        checks.append(
            _check(f"correctness-deutsch:{name}", record, _deutsch_correctness, fn)
        )
    return VerificationReport(tuple(checks))
