"""Command-line front end: run circuits, verify the build, audit the
separability theorem, compute statistical fidelity, sweep noise scaling.

Exit codes: 0 success, 1 failed checks, 2 usage errors, 3 internal errors.
Every failure path prints a single "error: ..." line to stderr.

Bitstrings everywhere are big-endian: the answer qubit first, then the two
work qubits, so "100" means the answer qubit read 1 and both work qubits 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from io import StringIO
from types import MappingProxyType
from typing import Callable

from . import __version__, algorithms
from .algorithms import DecodedAnswer
from .entanglement import (
    audit_family_distinguishability,
    bloch_grid_params,
    cnot_product_condition,
    random_product_params,
    trace_run_separability,
)
from .noise import (
    MAX_SHOTS,
    NoiseModel,
    NotCovered,
    bhattacharyya,
    run_noisy,
    run_noisy_models,
    sample_shots,
    statistical_fidelity,
)
from .oracles import BoolFn, PromisePair, parse_oracle
from .qstate import _integer
from .verify import verify_build

SEED_ENV_VAR = "PAIRDEUTSCH_SEED"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

MAX_GRID = 256
MAX_SAMPLES = 100_000
MAX_SCALES = 1024  # a sweep walks one stacked density matrix per factor

# each algorithm under its table key and under its row's short alias
_ALGORITHM_NAMES = MappingProxyType({
    key: name
    for name, row in algorithms.ALGORITHMS.items() for key in (name, row.alias)
})

_ORACLE_TOKEN = r"(?:[BC][12]|[01]:[01],[01]:[01])"
_THEORY_SPEC = re.compile(
    rf"^(?P<alg>[a-z_]+):(?P<f>{_ORACLE_TOKEN})(?:,(?P<g>{_ORACLE_TOKEN}))?$"
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to our exit codes
        raise UsageError(message)


@dataclass(frozen=True)
class RunRequest:
    """One parsed request. Fields run in the order the envelope echoes them;
    None marks a field the command does not take."""

    command: str
    seed: int = 0
    output: str = "json"
    algorithm: str | None = None
    oracles: BoolFn | PromisePair | None = None
    shots: int | str | None = None  # a count, or "exact" for probabilities
    noise: str | None = None
    counts: str | None = None  # path of the counts file
    scales: tuple[float, ...] | None = None
    samples: int | None = None
    grid: int | None = None

    @property
    def oracle_f(self) -> BoolFn | None:
        return getattr(self.oracles, "f", self.oracles)  # pair.f, or the lone BoolFn

    @property
    def oracle_g(self) -> BoolFn | None:
        return getattr(self.oracles, "g", None)

    def as_dict(self) -> dict:
        d: dict = {}
        for name, value in ((f.name, getattr(self, f.name)) for f in fields(self)):
            if name == "oracles":  # echoed as f, then g if the circuit takes a pair
                for key, fn in (("f", self.oracle_f), ("g", self.oracle_g)):
                    if fn is not None:
                        d[key] = {"name": fn.name, "table": fn.table_text()}
            elif value is not None:
                d[name] = list(value) if name == "scales" else value
        return d


def _integer_flag(flag: str, text: str, low: int, high: int | None = None,
                  expected: str = "an integer") -> int:
    """The flag's text as an int, then by the integer rule; a UsageError if not."""
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f'{flag} must be {expected}, got "{text}"') from None
    try:
        return _integer(value, flag, low, high)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _seed(flag_value: str | None) -> int:
    """--seed if given, else PAIRDEUTSCH_SEED, else 0: nonnegative, as numpy takes it."""
    if flag_value is None:
        return _integer_flag(SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR, "0"), 0)
    return _integer_flag("--seed", flag_value, 0)


def _parse_shots(text: str) -> int | str:
    if text == "exact":
        return text
    return _integer_flag("--shots", text, 1, MAX_SHOTS, 'a positive integer or "exact"')


def _parse_oracle_flag(flag: str, text: str) -> BoolFn:
    try:
        return parse_oracle(text)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _parse_scales(text: str) -> tuple[float, ...]:
    tokens = text.split(",")  # never empty: "" is one token, not a number
    if len(tokens) > MAX_SCALES:
        raise UsageError(
            f"--scales must list 1..{MAX_SCALES} factors, got {len(tokens)}"
        )
    scales = []
    for token in tokens:
        try:
            scales.append(float(token.strip()))
        except ValueError:
            raise UsageError(f'--scales: "{token}" is not a number') from None
        if not math.isfinite(scales[-1]):  # nan, inf, or a float overflow as 1e309
            raise UsageError(f'--scales: "{token}" is not a finite number')
    return tuple(scales)


def _circuit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algorithm", required=True, choices=sorted(_ALGORITHM_NAMES))
    parser.add_argument("--f", required=True, help='oracle: B1/B2/C1/C2 or "0:b,1:b"')
    parser.add_argument("--g", help="second oracle (pair algorithms only)")


def _parse_circuit(
    alias: str, f: str, g: str | None, flags: tuple[str, str] = ("--f", "--g")
) -> tuple[str, BoolFn | PromisePair]:
    """Canonical algorithm name and its oracles: a BoolFn for a circuit that
    queries only f, a promise-checked PromisePair for one that also queries g."""
    if alias not in _ALGORITHM_NAMES:
        raise UsageError(f'{flags[0]}: unknown algorithm "{alias}"')
    algorithm = _ALGORITHM_NAMES[alias]
    fn_f = _parse_oracle_flag(flags[0], f)
    fn_g = _parse_oracle_flag(flags[1], g) if g is not None else None
    if not algorithms.spec(algorithm).takes_pair:
        if fn_g is not None:
            raise UsageError(f"{flags[1]} is not accepted for the {algorithm} algorithm")
        return algorithm, fn_f
    if fn_g is None:
        raise UsageError(f"{flags[1]} is required for the {algorithm} algorithm")
    try:
        return algorithm, PromisePair(fn_f, fn_g)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _circuit_fields(ns: argparse.Namespace) -> dict:
    """--algorithm, --f and --g as request fields, with the --noise source."""
    algorithm, oracles = _parse_circuit(ns.algorithm, ns.f, ns.g)
    return {"algorithm": algorithm, "oracles": oracles, "noise": ns.noise}


def _run_flags(parser: argparse.ArgumentParser) -> None:
    _circuit_flags(parser)
    parser.add_argument("--shots", default="exact", help='shot count or "exact"')
    parser.add_argument("--noise", default="off", help="off | table2 | config path")


def _run_fields(ns: argparse.Namespace) -> dict:
    return {**_circuit_fields(ns), "shots": _parse_shots(ns.shots)}


def _audit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", default="1000")
    parser.add_argument("--grid", default="51", help="theta points, grid+1 phi points; "
                        "only an odd count puts theta = pi/2 on the grid, where "
                        "any-tensor-minus decides f0^f1")


def _audit_fields(ns: argparse.Namespace) -> dict:
    return {"samples": _integer_flag("--samples", ns.samples, 1, MAX_SAMPLES),
            "grid": _integer_flag("--grid", ns.grid, 2, MAX_GRID)}


def _fidelity_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--counts", required=True, help="JSON file of bitstring counts")
    parser.add_argument(
        "--theory", required=True, help="reference run, e.g. entangled:B1,B1"
    )


def _fidelity_fields(ns: argparse.Namespace) -> dict:
    m = _THEORY_SPEC.match(ns.theory)
    if m is None:
        raise UsageError(
            f'--theory: "{ns.theory}" does not match algorithm:f[,g] '
            '(e.g. entangled:B1,B1)'
        )
    algorithm, oracles = _parse_circuit(
        m.group("alg"), m.group("f"), m.group("g"), ("--theory", "--theory g")
    )
    # the reference run is exact, whatever the counts file totals
    return {"algorithm": algorithm, "oracles": oracles, "shots": "exact",
            "counts": ns.counts}


def _sweep_flags(parser: argparse.ArgumentParser) -> None:
    _circuit_flags(parser)
    parser.add_argument(
        "--scales", default="0,0.5,1,2",
        help=f"comma-separated noise scale factors, at most {MAX_SCALES}",
    )
    parser.add_argument("--noise", default="table2", help="table2 | config path")


def _sweep_fields(ns: argparse.Namespace) -> dict:
    circuit = _circuit_fields(ns)
    if ns.noise == "off":
        raise UsageError(f"{ns.command} needs a noise model (table2 or a config path)")
    return {**circuit, "scales": _parse_scales(ns.scales)}


def _load_noise(source: str) -> NoiseModel:
    """The named model; the noisy walk checks that it covers the circuit."""
    if source != "table2" and not os.path.isfile(source):
        raise UsageError(f'--noise: "{source}" is neither "table2" nor a config file')
    try:
        return NoiseModel.table2() if source == "table2" else NoiseModel.load(source)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, bad rates
        raise UsageError(f"--noise config {source}: {exc}") from None


def _answer(answer: DecodedAnswer) -> dict:
    """The decoded bits as the envelope prints them; `different` only for a pair."""
    if answer.different is None:
        return {"balanced": answer.balanced}
    return {"balanced": answer.balanced, "different": answer.different}


def _decode_argmax(algorithm: str, dist: dict[str, float]) -> DecodedAnswer:
    """The answer of the most likely outcome, ties to the larger bitstring."""
    argmax = max(dist.items(), key=lambda kv: (kv[1], kv[0]))[0]
    return algorithms.decode_outcome(algorithm, argmax)


def _payload_run(request: RunRequest) -> tuple[dict, int]:
    record = algorithms.run(request.algorithm, request.oracles)
    if request.noise == "off":  # every exact outcome decodes to record.decoded
        probabilities, decoded = record.final_distribution, record.decoded
    else:
        model = _load_noise(request.noise)  # execute reports what it leaves unrated
        probabilities = run_noisy(request.algorithm, request.oracles, model)
        decoded = _decode_argmax(request.algorithm, probabilities)
    payload: dict = {
        "queries": dict(sorted(record.query_counts.items())),
        "gate_count": len(algorithms.spec(request.algorithm).gates),
        "probabilities": {k: probabilities[k] for k in sorted(probabilities)},
    }
    if request.shots != "exact":
        counts = sample_shots(probabilities, request.shots, request.seed)
        payload["counts"] = {k: counts[k] for k in sorted(counts)}
    payload["decoded"] = _answer(decoded)
    payload["separability"] = [
        {"step": label, "product": product}
        for label, product in trace_run_separability(record)
    ]
    return payload, EXIT_OK


def _payload_verify(request: RunRequest) -> tuple[dict, int]:
    report = verify_build()
    payload = {
        "passed": report.passed,
        "summary": report.summary(),
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
    }
    return payload, EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _payload_audit(request: RunRequest) -> tuple[dict, int]:
    samples = random_product_params(request.samples, request.seed)
    predicted, actual = cnot_product_condition(samples)
    names = ("alpha", "beta", "gamma", "delta")
    disagreements = []
    for i in (predicted != actual).nonzero()[0]:
        entry = {name: repr(complex(v)) for name, v in zip(names, samples[i].tolist())}
        verdicts = {"predicted": bool(predicted[i]), "actual": bool(actual[i])}
        disagreements.append({**entry, **verdicts})
    families = [
        {
            "family": report.family,
            "samples": len(report.samples),
            "decidable": list(report.decidable),
            "at_most_one_decidable": report.at_most_one_decidable,
        }
        for report in audit_family_distinguishability(bloch_grid_params(request.grid))
    ]
    passed = not disagreements and all(f["at_most_one_decidable"] for f in families)
    payload = {
        "passed": passed,
        "cnot_product_condition": {
            "samples": len(samples),
            "disagreements": disagreements,
        },
        "families": families,
    }
    return payload, EXIT_OK if passed else EXIT_CHECK_FAILED


def _load_counts(path: str) -> dict:
    """The JSON object in the counts file; statistical_fidelity checks its entries."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise UsageError(f"--counts: no such file {path!r}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"--counts: {path} is not valid JSON ({exc})") from None
    except (OSError, ValueError, RecursionError) as exc:
        # a directory, not UTF-8, nested too deep, or an integer over 4300 digits
        raise UsageError(f"--counts: cannot read {path} ({exc})") from None
    if not isinstance(raw, dict):
        raise UsageError(f"--counts: {path} must map bitstrings to counts")
    return raw


def _payload_fidelity(request: RunRequest) -> tuple[dict, int]:
    counts = _load_counts(request.counts)
    record = algorithms.run(request.algorithm, request.oracles)
    try:
        report = statistical_fidelity(
            counts, record.final_distribution, seed=request.seed
        )
    except ValueError as exc:  # an entry, or the total, is no count
        raise UsageError(f"--counts: {request.counts}: {exc}") from None
    payload = {
        "shots": sum(counts.values()),
        "fidelity": {"value": report.fidelity, "stderr": report.stderr},
        "p_exp": {k: report.p_exp[k] for k in sorted(report.p_exp)},
        "p_th": {k: report.p_th[k] for k in sorted(report.p_th)},
    }
    return payload, EXIT_OK


def _payload_sweep(request: RunRequest) -> tuple[dict, int]:
    record = algorithms.run(request.algorithm, request.oracles)
    base = _load_noise(request.noise)
    ideal = record.final_distribution
    try:
        models = [base.scaled(scale) for scale in request.scales]
    except ValueError as exc:
        raise UsageError(f"--scales: {exc}") from None
    # every scale rides in one density walk
    noisy_runs = run_noisy_models(request.algorithm, request.oracles, models)
    rows = [
        {
            "scale": scale,
            "fidelity": bhattacharyya(noisy, ideal),
            "argmax_correct": _decode_argmax(request.algorithm, noisy)
            == record.decoded,
        }
        for scale, noisy in zip(request.scales, noisy_runs)
    ]
    return {"sweep": rows}, EXIT_OK


@dataclass(frozen=True)
class Subcommand:
    """Everything one subcommand adds: its flags beyond --seed and --output,
    the request fields it parses from them, and the payload it computes."""

    help: str
    payload: Callable[[RunRequest], tuple[dict, int]]
    add_flags: Callable[[argparse.ArgumentParser], None] = lambda parser: None
    fields: Callable[[argparse.Namespace], dict] = lambda ns: {}
    outputs: tuple[str, ...] = ("json",)  # --output choices
    seeded: bool = True  # takes --seed


SUBCOMMANDS = MappingProxyType({
    "run": Subcommand("execute one algorithm", _payload_run, _run_flags,
                      _run_fields, outputs=("json", "csv")),
    "verify": Subcommand("exhaustive correctness and separability suite",
                         _payload_verify, seeded=False),
    "audit-theorem": Subcommand("separability theorem audit", _payload_audit,
                                _audit_flags, _audit_fields),
    "fidelity": Subcommand("statistical fidelity of counts vs theory",
                           _payload_fidelity, _fidelity_flags, _fidelity_fields),
    "sweep-noise": Subcommand("fidelity under scaled noise rates", _payload_sweep,
                              _sweep_flags, _sweep_fields, outputs=("json", "csv"),
                              seeded=False),
})


@functools.cache  # built on first use, then shared by every request
def _build_parser() -> tuple[_Parser, MappingProxyType]:
    """The top-level parser and its read-only subcommand -> subparser map."""
    parser = _Parser(prog="pairdeutsch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, row in SUBCOMMANDS.items():
        command = sub.add_parser(name, help=row.help)
        row.add_flags(command)
        if row.seeded:
            command.add_argument("--seed")
        command.add_argument("--output", default="json", choices=row.outputs)
    return parser, MappingProxyType(sub.choices)


def parse_request(argv: list[str]) -> RunRequest:
    parser, subparsers = _build_parser()
    if argv and argv[0] in subparsers:
        # the subparser that the top-level parser would hand the rest to,
        # called directly: one argparse pass, not two, with the same outcome
        ns = argparse.Namespace(command=argv[0])
        subparsers[argv[0]].parse_args(argv[1:], ns)
    else:  # --help, a typo, "--" or no argv: the top-level parser's outcome
        ns = parser.parse_args(argv)
    row = SUBCOMMANDS[ns.command]
    seed = _seed(ns.seed) if row.seeded else 0  # an unseeded command draws nothing
    return RunRequest(ns.command, seed, ns.output, **row.fields(ns))


def execute(request: RunRequest) -> tuple[dict, int]:
    """The envelope that `emit` prints: the request, version and timestamp,
    then the payload's keys; and the exit code."""
    try:
        payload, code = SUBCOMMANDS[request.command].payload(request)
    except NotCovered as exc:  # the noisy walk's one check of the --noise model
        raise UsageError(f"--noise config {request.noise}: {exc}") from None
    timestamp = datetime.now(timezone.utc).isoformat()
    return {"request": request.as_dict(), "version": __version__,
            "timestamp": timestamp, **payload}, code


def _format_probability(p: float) -> str:
    return format(p, ".17g")  # round-trip precision, always >= 12 significant digits


def emit(envelope: dict, fmt: str) -> str:
    """Render an envelope as JSON (stable key order) or CSV."""
    if fmt == "json":
        return json.dumps(envelope, indent=2) + "\n"
    if fmt != "csv":
        raise UsageError(f"unknown output format {fmt!r}")
    out = StringIO()
    if "sweep" in envelope:
        out.write("scale,fidelity,argmax_correct\n")
        for row in envelope["sweep"]:
            out.write(
                f"{repr(row['scale']).removesuffix('.0')},"
                f"{_format_probability(row['fidelity'])},"
                f"{str(row['argmax_correct']).lower()}\n"
            )
        return out.getvalue()
    probabilities = envelope.get("probabilities")
    if probabilities is None:
        takes_csv = [name for name, row in SUBCOMMANDS.items() if "csv" in row.outputs]
        raise UsageError(f"csv output is only available for {' and '.join(takes_csv)}")
    counts = envelope.get("counts", {})
    out.write("bitstring,probability,count\n")
    for bitstring in sorted(probabilities):
        count = counts.get(bitstring, "")
        out.write(
            f"{bitstring},{_format_probability(probabilities[bitstring])},{count}\n"
        )
    return out.getvalue()


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        request = parse_request(args)
        envelope, code = execute(request)
        text = emit(envelope, request.output)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else int(exc.code)
    except Exception as exc:  # CLI boundary: report, don't traceback
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
