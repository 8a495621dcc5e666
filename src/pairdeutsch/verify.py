"""Exhaustive build verification, wired for CI and the `verify` CLI command.

Runs every promise pair through both pair-testing circuits, one walk per
circuit for all eight pairs, and the four Deutsch oracles in a third; checks the
decoded answers against the truth tables (query accounting needs no check
here: a RunRecord exists only if its counts match the algorithm table), and
checks the separability claims: the two-query circuit passes through an
entangled state, the three-query circuit never does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algorithms
from .algorithms import DecodedAnswer, RunRecord
from .entanglement import PRODUCT_TOL, step_second_coefficients
from .oracles import NAMED_FUNCTIONS, all_promise_pairs, is_balanced, same_at_zero

CORRECT_MASS_TOL = 1e-12
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


def _run_many(algorithm: str, oracle_list) -> list[RunRecord | Exception]:
    try:
        return algorithms.run_many(algorithm, oracle_list)
    except Exception as exc:  # fails every check that reads one of its members
        return [exc] * len(oracle_list)


def _step_seconds(records: list) -> list:
    """step_second_coefficients of every record, from one stack; an error
    keeps its place, and a failed analysis is the error of every record."""
    done = [r for r in records if not isinstance(r, Exception)]
    try:
        seconds = iter(step_second_coefficients(done))
    except Exception as exc:
        return [r if isinstance(r, Exception) else exc for r in records]
    return [r if isinstance(r, Exception) else next(seconds) for r in records]


def _check(name: str, value, fn, *args) -> CheckResult:
    """fn(value, *args) as a check; an error in place of the value fails it."""
    if isinstance(value, Exception):
        return CheckResult(name, False, str(value))
    try:
        detail = fn(value, *args)
    except Exception as exc:  # failures become report entries, not crashes
        return CheckResult(name, False, str(exc))
    return CheckResult(name, True, detail or "ok")


def _correctness(record: RunRecord, truth: DecodedAnswer) -> str:
    """The record decodes to truth, and the outcomes that decode to truth by
    its algorithm's one rule, decode_outcome, carry all its probability."""
    got, bits = record.decoded, (truth.balanced, truth.different)
    _require(got == truth, f"decoded {(got.balanced, got.different)}, truth {bits}")
    correct_mass = sum(
        p
        for outcome, p in record.final_distribution.items()
        if algorithms.decode_outcome(record.algorithm, outcome) == truth
    )
    _require(
        abs(correct_mass - 1.0) <= CORRECT_MASS_TOL,
        f"correct outcomes carry probability {correct_mass!r}, not 1",
    )
    if truth.different is None:  # a single-function run decodes one answer bit
        return f"answer bit {truth.balanced} with probability 1"
    return f"decoded {bits} with probability 1"


def _entangled_separability(seconds: list[tuple[str, float]]) -> str:
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


def _product_separability(seconds: list[tuple[str, float]]) -> str:
    for label, second in seconds:
        _require(
            second < PRODUCT_TOL,
            f'step "{label}" has second Schmidt coefficient {second!r}',
        )
    worst = max(second for _, second in seconds)
    return f"all steps product (worst second coefficient {worst:.2e})"


def verify_build() -> VerificationReport:
    """One walk per circuit for all its oracle choices, and one Schmidt stack
    for the steps of all pair records; every check gets its member's record
    or step coefficients, or fails with the error that stopped them."""
    pairs = all_promise_pairs()
    entangled = _run_many(algorithms.ENTANGLED_PAIR, pairs)
    product = _run_many(algorithms.PRODUCT_PAIR, pairs)
    seconds = _step_seconds(entangled + product)
    checks: list[CheckResult] = []
    for pair, ent, prod, ent_seconds, prod_seconds in zip(
        pairs, entangled, product, seconds[: len(pairs)], seconds[len(pairs) :]
    ):
        label = pair.label()
        truth = DecodedAnswer(is_balanced(pair.f), same_at_zero(pair))
        for group, value, check, args in (
            ("correctness-entangled", ent, _correctness, (truth,)),
            ("correctness-product", prod, _correctness, (truth,)),
            ("separability-entangled", ent_seconds, _entangled_separability, ()),
            ("separability-product", prod_seconds, _product_separability, ()),
        ):
            checks.append(_check(f"{group}:{label}", value, check, *args))
    deutsch = _run_many(algorithms.DEUTSCH, list(NAMED_FUNCTIONS.values()))
    for (name, fn), record in zip(NAMED_FUNCTIONS.items(), deutsch):
        truth = DecodedAnswer(is_balanced(fn))
        checks.append(_check(f"correctness-deutsch:{name}", record, _correctness, truth))
    return VerificationReport(tuple(checks))
