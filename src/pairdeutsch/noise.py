"""Gate-level depolarizing noise, readout confusion, finite-shot sampling,
and the Bhattacharyya statistical fidelity between outcome distributions.

The bundled "table2" model carries the calibration of a three-qubit
superconducting device: a single-qubit gate error and a readout error per
qubit, and a two-qubit gate error per unordered pair of qubits: either
order names the pair, and a rate given in both orders is rejected. Noisy
runs are exact density-matrix evolutions; shot noise enters only through
the seeded multinomial sampler.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .algorithms import circuit_ops, spec
from .oracles import BoolFn, PromisePair
from .qstate import (
    DensityMatrix,
    _apply,
    _integer,
    _partial_trace,
    _placement,
    _qubits,
    _readonly,
    _subset,
    _trace_gather,
    apply_gate_density,
    bitstring_distribution,
    partial_trace,
)

TABLE2_SINGLE_QUBIT = (1.72e-3, 1.46e-3, 1.80e-3)
TABLE2_READOUT = (4.20e-2, 7.00e-2, 1.40e-2)
TABLE2_TWO_QUBIT = MappingProxyType({(0, 1): 3.17e-2, (1, 2): 2.87e-2, (0, 2): 2.67e-2})
BOOTSTRAP_RESAMPLES = 1000  # Poisson draws behind statistical_fidelity's stderr
# Largest shot count and counts total: numpy's multinomial draw and its
# Poisson bootstrap both accept every count up to this bound.
MAX_SHOTS = 2**62


class NotCovered(ValueError):
    """A noise model has no rate for a qubit or gate pair the circuit uses."""


_PAIR_KEY = re.compile(r"^two_qubit_gate_error_q(\d+)_q(\d+)$")
_SINGLE_KEY = re.compile(r"^single_qubit_gate_error_q(\d+)$")
_READOUT_KEY = re.compile(r"^readout_error_q(\d+)$")


def _rate(r) -> float:
    """One error rate as a Python float in [0, 1]; a bool or a string is none."""
    if isinstance(r, (bool, np.bool_, str, bytes)):
        raise ValueError(f"error rate {r!r} is not a number")
    rate = float(r)
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"error rate {rate!r} outside [0, 1]")
    return rate


@dataclass(frozen=True)
class NoiseModel:
    """Per-qubit gate/readout error rates, stored as tuples, and per-pair
    two-qubit gate rates, stored as a read-only mapping of ascending pairs
    whose qubits follow `qstate._qubits`' rule."""

    single_qubit_gate_error: tuple[float, ...]
    two_qubit_gate_error: Mapping[tuple[int, int], float]
    readout_error: tuple[float, ...]

    def __post_init__(self) -> None:
        # copies, so a caller's list cannot change the model after its checks
        singles, readouts = tuple(self.single_qubit_gate_error), tuple(self.readout_error)
        qubits = range(len(singles))
        pair_rates: dict[tuple[int, int], float] = {}
        for key, rate in dict(self.two_qubit_gate_error).items():
            a, b = _qubits(key)  # np.int64 passes as an int; True and 0.0 fail
            if a == b or a not in qubits or b not in qubits:
                raise ValueError(
                    f"pair ({a}, {b}) must name two different qubits below {len(qubits)}")
            pair = (min(a, b), max(a, b))  # either direction names it
            if pair in pair_rates:  # named first as (b, a)
                raise ValueError(f"pair ({b}, {a}) has a rate in both directions")
            pair_rates[pair] = rate
        # Python floats, so a saved model loads back equal, and pairs stored
        # in ascending order, so equal models hash equal
        object.__setattr__(self, "single_qubit_gate_error", tuple(map(_rate, singles)))
        object.__setattr__(self, "two_qubit_gate_error", MappingProxyType(
            {pair: _rate(r) for pair, r in sorted(pair_rates.items())}))
        object.__setattr__(self, "readout_error", tuple(map(_rate, readouts)))
        if len(singles) != len(readouts):
            raise ValueError("gate and readout rate lists must cover the same qubits")

    def __hash__(self) -> int:  # agrees with ==: pairs are stored in one order
        return hash((
            self.single_qubit_gate_error,
            tuple(self.two_qubit_gate_error.items()),
            self.readout_error,
        ))

    @classmethod
    def table2(cls) -> NoiseModel:
        return cls(TABLE2_SINGLE_QUBIT, TABLE2_TWO_QUBIT, TABLE2_READOUT)

    def scaled(self, factor: float) -> NoiseModel:
        """All rates multiplied by `factor`, a finite nonnegative real number
        other than a bool, taken as a float; fails, naming the first rate
        in the constructor's order, if any rate leaves [0, 1]. The result
        equals the model the constructor builds from the same products."""
        real = isinstance(factor, numbers.Real) and not isinstance(factor, bool)
        # NaN fails the comparison, and so does an int too large for a float
        if not (real and 0 <= factor <= sys.float_info.max):
            raise ValueError(
                f"scale factor must be a finite nonnegative number, got {factor!r}")
        # products of rates the constructor checked: only the upper bound can fail
        factor = float(factor)
        singles = tuple(r * factor for r in self.single_qubit_gate_error)
        pairs = {k: r * factor for k, r in self.two_qubit_gate_error.items()}
        readouts = tuple(r * factor for r in self.readout_error)
        for rate in (*singles, *pairs.values(), *readouts):
            if rate > 1.0:
                _rate(rate)  # raises: outside [0, 1]
        model = object.__new__(NoiseModel)  # frozen: set through its __dict__
        vars(model).update(single_qubit_gate_error=singles, readout_error=readouts,
                           two_qubit_gate_error=MappingProxyType(pairs))
        return model

    def pair_gate_rate(self, a: int, b: int) -> float:
        try:
            return self.two_qubit_gate_error[min(a, b), max(a, b)]
        except KeyError:
            raise KeyError(f"no two-qubit error rate for pair ({a}, {b})") from None

    def gate_rates(self, num_qubits: int, targets: Sequence[tuple]) -> list[float]:
        """The depolarizing rate after each gate, given by its target tuple:
        its qubit's gate error, or its pair's in either direction. NotCovered
        unless qubits 0..num_qubits-1 and every pair in `targets` have rates."""
        covered = len(self.single_qubit_gate_error)
        if covered < num_qubits:
            raise NotCovered(
                f"rates cover {covered} qubit(s), the circuit uses {num_qubits}"
            )
        try:
            return [self.single_qubit_gate_error[on[0]] if len(on) == 1
                    else self.pair_gate_rate(*on) for on in targets]
        except KeyError as exc:
            raise NotCovered(exc.args[0]) from None

    def to_config_text(self) -> str:
        """key = value lines; values use repr so round-trips are bit-exact."""
        lines = []
        for q, v in enumerate(self.single_qubit_gate_error):
            lines.append(f"single_qubit_gate_error_q{q} = {v!r}")
        for q, v in enumerate(self.readout_error):
            lines.append(f"readout_error_q{q} = {v!r}")
        for (a, b), v in self.two_qubit_gate_error.items():
            lines.append(f"two_qubit_gate_error_q{a}_q{b} = {v!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_config_text(cls, text: str) -> NoiseModel:
        singles: dict[int, float] = {}
        readouts: dict[int, float] = {}
        pairs: dict[tuple[int, int], float] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f'line {lineno}: expected "key = value", got "{raw}"')
            key, _, value = line.partition("=")
            key = key.strip()
            try:
                rate = float(value.strip())
            except ValueError:
                raise ValueError(
                    f'line {lineno}: value for "{key}" is not a number'
                ) from None
            if m := _SINGLE_KEY.match(key):
                rates, slot = singles, int(m.group(1))
            elif m := _READOUT_KEY.match(key):
                rates, slot = readouts, int(m.group(1))
            elif m := _PAIR_KEY.match(key):
                rates, slot = pairs, (int(m.group(1)), int(m.group(2)))
            else:
                raise ValueError(f'line {lineno}: unknown key "{key}"')
            # a pair has one rate, whichever direction names it
            if slot in rates or (rates is pairs and slot[::-1] in rates):
                raise ValueError(f'line {lineno}: "{key}" repeats a rate given earlier')
            rates[slot] = rate
        for label, rates in (("single_qubit_gate_error", singles),
                             ("readout_error", readouts)):
            if sorted(rates) != list(range(len(rates))) or not rates:
                raise ValueError(
                    f"{label} keys must cover qubits 0..n-1 contiguously, "
                    f"got qubits {sorted(rates)}"
                )
        return cls(
            tuple(singles[q] for q in range(len(singles))),
            pairs,
            tuple(readouts[q] for q in range(len(readouts))),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_config_text())

    @classmethod
    def load(cls, path: str | Path) -> NoiseModel:
        return cls.from_config_text(Path(path).read_text())


@lru_cache(maxsize=256)
def _mixing_plan(n: int, targets: tuple[int, ...]) -> tuple:
    """`depolarize`'s kept qubits and, after `_subset`'s check, reduced (x)
    I/2^k as a read-only gather of the reduced state's flat entries times a
    read-only weight, read off `_trace_gather`: each reduced entry goes back,
    times 2^-k, to every flat position the trace takes it from; every other
    position has weight 0. With no qubit kept, the weight is I/2^n alone."""
    _subset(targets, n, "qubits")
    kept, d = tuple(q for q in range(n) if q not in targets), 2**n
    if not kept:
        return kept, None, _readonly(np.eye(d) / d)
    trace = _trace_gather(n, kept)
    gather, weight = np.zeros((d, d), dtype=int), np.zeros((d, d))
    gather.flat[trace] = np.arange(trace.shape[1])  # alike at every traced state
    weight.flat[trace] = 2.0 ** -len(targets)
    return kept, _readonly(gather), _readonly(weight)


def _mix(entries, reduced, plan, keep, coef) -> np.ndarray:
    """`depolarize`'s array core, on rates already checked: keep * entries +
    coef * (reduced (x) I/2^k), with keep = 1 - coef, `plan` from
    `_mixing_plan` and `reduced` the entries' state on its kept qubits, None
    when it keeps none."""
    kept, gather, mixed = plan
    if kept:  # with every qubit a target the trace is 1: no reduction taken
        mixed = reduced.reshape(reduced.shape[:-2] + (-1,)).take(gather, -1) * mixed
    return keep * entries + coef * mixed


def depolarize(rho: DensityMatrix, qubits, p) -> DensityMatrix:
    """(1-p) * rho + p * (maximally mixed on `qubits`, reduced state elsewhere),
    with one rate p for every member of the stack or a sequence of one per
    member: rates of shape () or the stack's shape, rho.entries.shape[:-2]."""
    rates = np.asarray(p, float)
    for r in rates.ravel().tolist():
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"depolarizing probability {r!r} outside [0, 1]")
    if rates.ndim and rates.shape != rho.entries.shape[:-2]:
        raise ValueError(
            f"depolarizing rates of shape {rates.shape} do not fit density matrices"
            f" of shape {rho.entries.shape}: give one rate, or one per member")
    n = rho.num_qubits
    plan = _mixing_plan(n, _qubits(qubits))
    reduced = partial_trace(rho, plan[0]).entries if plan[0] else None
    coef = rates[..., None, None]
    return DensityMatrix._trusted(n, _mix(rho.entries, reduced, plan, 1.0 - coef, coef))


def apply_readout_confusion(probs: np.ndarray, rates) -> np.ndarray:
    """Push a probability vector, shape (2**n,), through per-qubit symmetric
    bit-flip confusion matrices [[1-e, e], [e, 1-e]] at its n rates, shape
    (n,); or a stack of M vectors, shape (M, 2**n), each at its own row of
    rates, shape (M, n)."""
    e = np.asarray(rates, dtype=float)
    for r in e.ravel().tolist():  # NaN is outside too
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"readout error rate {r!r} outside [0, 1]")
    n = e.shape[-1]
    if probs.shape[-1] != 2**n:
        raise ValueError(
            f"{n} readout rate(s) need {2**n} probabilities, got {probs.shape[-1]}"
        )
    if e.ndim < probs.ndim:
        raise ValueError(f"a stack of {len(probs)} vectors needs one row of rates each")
    confusion = np.stack([1.0 - e, e, e, 1.0 - e], axis=-1).reshape(e.shape + (2, 2))
    p = probs.T.reshape((2,) * n + probs.shape[:-1])  # qubit axes first
    for q in range(n):  # one 2x2 matrix, or one per vector, on qubit q
        p = _apply(p, confusion[..., q, :, :], (q,), n)
    return p.reshape(probs.shape[::-1]).T


@lru_cache(maxsize=64)
def _walk_placement(gate_bytes: bytes, d: int, targets: tuple, num_qubits: int):
    """`_placement` of the d x d complex128 gate with these bytes: the noisy
    walk's checked (U, U^H), one per (gate, targets, width). The key
    determines the value, and a gate that fails its check is never cached."""
    gate = np.frombuffer(gate_bytes, np.complex128).reshape(d, d)
    return _placement(gate, targets, num_qubits)


def run_noisy_models(
    algorithm: str, oracles: BoolFn | PromisePair, models: Sequence[NoiseModel]
) -> list[dict[str, float]]:
    """Exact density-matrix runs of the chosen circuit, one per noise model, as
    one walk of a stack: a depolarizing channel after every gate, at each
    model's rate for it, and each model's readout confusion on its final
    distribution. Returns bitstring -> probability per model, each equal to
    that model's walk alone. NotCovered unless every model covers the circuit.

    The walk carries a raw (M, 2**n, 2**n) array. Each gate but the last
    takes its checked (U, U^H) from `_walk_placement` and mixes through
    `depolarize`'s and `partial_trace`'s array cores, at the rates that
    `gate_rates` checked, with 1 - rate taken once per walk. The last gate
    goes through `apply_gate_density` and `depolarize` themselves, and one
    `DensityMatrix` check of the final stack closes the walk."""
    gates, n = circuit_ops(algorithm, oracles)
    targets = [on for _, on, _ in spec(algorithm).gates]
    rates = [model.gate_rates(n, targets) for model in models]
    if not models:
        return []
    coefs = np.array(rates).T[..., None, None]  # one (M, 1, 1) column per gate
    m = np.zeros((len(models), 2**n, 2**n), dtype=np.complex128)
    m[:, 0, 0] = 1.0  # |0...0><0...0| per model, unchecked as run_many's start is
    for gate, on, keep, coef in zip(gates[:-1], targets, 1.0 - coefs, coefs):
        u, uh = _walk_placement(gate.tobytes(), len(gate), on, n)
        m = u @ m @ uh
        plan = _mixing_plan(n, on)
        reduced = _partial_trace(m, n, plan[0]) if plan[0] else None
        m = _mix(m, reduced, plan, keep, coef)
    rho = apply_gate_density(DensityMatrix._trusted(n, m), gates[-1], targets[-1])
    rho = depolarize(rho, targets[-1], [model_rates[-1] for model_rates in rates])
    rho = DensityMatrix(n, rho.entries)  # the walk's one check of its results
    probs = apply_readout_confusion(
        rho.probabilities(), [model.readout_error[:n] for model in models]
    )
    return [bitstring_distribution(p, n) for p in probs]


def run_noisy(
    algorithm: str, oracles: BoolFn | PromisePair, model: NoiseModel
) -> dict[str, float]:
    """`run_noisy_models` for one model: bitstring -> probability."""
    return run_noisy_models(algorithm, oracles, [model])[0]


def _checked_probabilities(values) -> np.ndarray:
    """values as a float array; ValueError unless they are nonnegative and
    sum to 1 within 1e-9."""
    p = np.array(values, dtype=float)
    if p.size == 0 or not np.all(p >= 0):  # NaN is not nonnegative either
        raise ValueError("distribution must have nonnegative entries")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"distribution sums to {total!r}, not 1")
    return p


def sample_shots(dist: Mapping[str, float], shots: int, seed: int) -> dict[str, int]:
    """Seeded multinomial draw as outcome -> count; same seed, same counts."""
    # numpy would draw 5 shots for 5.5 and 1 for True, and overflows at 2**63
    shots, seed = _integer(shots, "shots", 1, MAX_SHOTS), _integer(seed, "seed", 0)
    keys = sorted(dist)
    p = _checked_probabilities([dist[k] for k in keys])
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, p / p.sum())
    return {k: int(c) for k, c in zip(keys, draws) if c}


def _outcome_width(label: str, keys: Iterable, width: int | None = None):
    """The one outcome-key rule: ValueError, naming `label`, unless each of
    `keys` is a string of 0s and 1s as long as `width`, or as the first key.
    Returns the width, None for no keys."""
    for key in keys:
        if width is None and isinstance(key, str):
            width = len(key)
        if not (isinstance(key, str) and 0 < len(key) == width) or key.strip("01"):
            outcome = f"a {width}-bit outcome" if width else "an outcome bitstring"
            raise ValueError(f"{label} key {key!r} is not {outcome}")
    return width


def bhattacharyya(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """Sum over outcomes of sqrt(p_k * q_k): 1 iff the distributions are
    equal, 0 iff their supports are disjoint. Symmetric in its arguments;
    the sum runs in sorted outcome order, so it does not depend on the hash
    seed. Raises ValueError unless both are probability distributions over
    outcomes of one width."""
    _checked_probabilities(list(p.values()))
    _checked_probabilities(list(q.values()))
    _outcome_width("q", q, _outcome_width("p", p))
    return _overlap(p, q)


def _overlap(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """`bhattacharyya`'s sum, on distributions already checked."""
    total = 0.0
    for k in sorted(set(p) & set(q)):
        pk, qk = p[k], q[k]
        if pk > 0.0 and qk > 0.0:
            total += math.sqrt(pk * qk)
    return min(total, 1.0)


@dataclass(frozen=True)
class FidelityReport:
    """Statistical fidelity between an observed and a reference distribution,
    with a Poisson-bootstrap standard error. The fidelity is computed from
    the two distributions when the report is built, never passed in."""

    stderr: float
    p_exp: Mapping[str, float]
    p_th: Mapping[str, float]
    fidelity: float = field(init=False)

    def __post_init__(self) -> None:
        if self.stderr < 0.0:
            raise ValueError(f"stderr must be nonnegative, got {self.stderr!r}")
        for name in ("p_exp", "p_th"):  # read-only copies: the fidelity stays theirs
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        object.__setattr__(self, "fidelity", bhattacharyya(self.p_exp, self.p_th))

    @classmethod
    def _trusted(cls, stderr: float, p_exp: dict, p_th: Mapping) -> FidelityReport:
        """The report on a fresh `p_exp` and a `p_th` that `statistical_fidelity`
        has checked, built without checking them again."""
        report = object.__new__(cls)  # frozen: set through its __dict__
        vars(report).update(stderr=stderr, p_exp=MappingProxyType(p_exp),
                            p_th=MappingProxyType(dict(p_th)),
                            fidelity=_overlap(p_exp, p_th))
        return report


def statistical_fidelity(
    counts: Mapping[str, int],
    p_th: Mapping[str, float],
    *,
    seed: int = 0,
) -> FidelityReport:
    """Fidelity of the empirical distribution of `counts` against `p_th`.
    ValueError unless `seed` passes the integer rule from 0, `p_th` is a
    distribution over outcomes of one width and `counts` maps outcomes as
    wide to nonnegative integers totalling 1..MAX_SHOTS.

    The standard error is a Poisson bootstrap: each count is resampled as
    Poisson(count), renormalized, and the fidelity recomputed; the standard
    deviation over BOOTSTRAP_RESAMPLES seeded draws is reported.
    """
    _checked_probabilities(list(p_th.values()))  # before any draw
    _outcome_width("count", counts, _outcome_width("p_th", p_th))
    for key, count in counts.items():
        # a bool is an int to isinstance, but no count
        if type(count) is bool or not isinstance(count, (int, np.integer)) or count < 0:
            raise ValueError(f"count {count!r} of {key!r} is not a nonnegative integer")
    shots = sum(map(int, counts.values()))
    if not 0 < shots <= MAX_SHOTS:
        raise ValueError(f"counts total {shots}, not in 1..{MAX_SHOTS}")
    p_exp = {k: int(c) / shots for k, c in counts.items()}
    keys = sorted(set(counts) | set(p_th))
    base = np.array([counts.get(k, 0) for k in keys], dtype=float)
    theory = np.array([p_th.get(k, 0.0) for k in keys], dtype=float)
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    draws = rng.poisson(lam=base, size=(BOOTSTRAP_RESAMPLES, len(keys))).astype(float)
    totals = draws.sum(axis=1, keepdims=True)
    resampled = np.sqrt(draws / np.where(totals == 0, 1.0, totals) * theory).sum(axis=1)
    resampled[totals[:, 0] == 0] = 0.0
    return FidelityReport._trusted(float(np.std(resampled)), p_exp, p_th)
