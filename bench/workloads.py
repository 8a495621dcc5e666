"""Seeded request streams for the three benchmark workloads, and the checks
that judge each response without trusting the program under test.

A stream is a sequence of decks. Every deck of a workload holds the same
multiset of request shapes (command, algorithm, number of scales, grid
size band, ...); only the oracles, shot counts, seeds, noise files and the
order are drawn from the seed. So a run's cost mix barely depends on the
seed, and any whole number of decks makes the same calls into the program.

Expected answers come from the truth tables alone:

* entangled pair: outcomes (b, w, w ^ d) for w in {0, 1}, probability 1/2
  each, where b = f0 ^ f1 and d = f0 ^ g0;
* product pair: the single outcome (b, f(b), g(b));
* Deutsch: outcomes (b, 0) and (b, 1), probability 1/2 each.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FUNCTIONS = {"C1": (0, 0), "C2": (1, 1), "B1": (0, 1), "B2": (1, 0)}
PAIRS = [
    (f, g)
    for f in FUNCTIONS
    for g in FUNCTIONS
    if (FUNCTIONS[f][0] ^ FUNCTIONS[f][1]) == (FUNCTIONS[g][0] ^ FUNCTIONS[g][1])
]
# table2 calibration: per-qubit gate and readout errors, per-pair CNOT errors.
TABLE2 = {
    "single_qubit_gate_error": (1.72e-3, 1.46e-3, 1.80e-3),
    "readout_error": (4.20e-2, 7.00e-2, 1.40e-2),
    "two_qubit_gate_error": {(0, 1): 3.17e-2, (0, 2): 2.67e-2, (1, 2): 2.87e-2},
}
NOISE_POOL = 256  # random-rate config files written per run
TABLE2_SHARE = 1 / 3  # share of noisy requests that use table2 itself
COUNTS_POOL = 256  # counts files written per run
PROB_TOL = 1e-9
FIDELITY_TOL = 1e-12


@dataclass
class Request:
    argv: list[str]
    kind: str  # request shape, for the recorded mix
    key: tuple  # identity of the input (algorithm, oracles, noise model), for the repeat share
    expect: dict = field(default_factory=dict)


def ideal_distribution(algorithm: str, f: str, g: str | None) -> dict[str, float]:
    f0, f1 = FUNCTIONS[f]
    b = f0 ^ f1
    if algorithm == "deutsch":
        return {f"{b}0": 0.5, f"{b}1": 0.5}
    g0, g1 = FUNCTIONS[g]
    if algorithm == "entangled":
        d = f0 ^ g0
        return {f"{b}{w}{w ^ d}": 0.5 for w in (0, 1)}
    return {f"{b}{(f0, f1)[b]}{(g0, g1)[b]}": 1.0}


def _truth_table(name: str) -> str:
    f0, f1 = FUNCTIONS[name]
    return f"0:{f0},1:{f1}"


def _oracle_argv(algorithm: str, f: str, g: str | None, spell_tables: bool) -> list[str]:
    spell = _truth_table if spell_tables else (lambda name: name)
    argv = ["--algorithm", algorithm, "--f", spell(f)]
    if g is not None:
        argv += ["--g", spell(g)]
    return argv


class Inputs:
    """Noise-config and counts files written once per run, before timing."""

    def __init__(self, directory: Path, rng: np.random.Generator) -> None:
        self.noise_paths = []
        for i in range(NOISE_POOL):
            path = directory / f"noise-{i}.cfg"
            path.write_text(_random_noise_config(rng))
            self.noise_paths.append(str(path))
        self.counts = []  # (path, algorithm, f, g, counts)
        for i in range(COUNTS_POOL):
            algorithm = ("entangled", "product")[i % 2]
            f, g = PAIRS[rng.integers(len(PAIRS))]
            counts = _sample_counts(rng, ideal_distribution(algorithm, f, g))
            path = directory / f"counts-{i}.json"
            path.write_text(json.dumps(counts))
            self.counts.append((str(path), algorithm, f, g, counts))


def _random_noise_config(rng: np.random.Generator) -> str:
    """table2 with every rate scaled by its own factor in [0.25, 2): rates
    stay small enough that the argmax outcome still decodes correctly."""
    lines = []
    for label in ("single_qubit_gate_error", "readout_error"):
        for q, rate in enumerate(TABLE2[label]):
            lines.append(f"{label}_q{q} = {rate * rng.uniform(0.25, 2.0)!r}")
    for (a, b), rate in TABLE2["two_qubit_gate_error"].items():
        lines.append(f"two_qubit_gate_error_q{a}_q{b} = {rate * rng.uniform(0.25, 2.0)!r}")
    return "\n".join(lines) + "\n"


def _sample_counts(rng: np.random.Generator, ideal: dict[str, float]) -> dict[str, int]:
    """Multinomial counts from a known distribution: the ideal one mixed with
    a uniform share eps over all eight outcomes."""
    eps = rng.uniform(0.02, 0.2)
    keys = [format(i, "03b") for i in range(8)]
    p = np.array([(1 - eps) * ideal.get(k, 0.0) + eps / 8 for k in keys])
    draws = rng.multinomial(int(rng.integers(256, 8193)), p / p.sum())
    return {k: int(c) for k, c in zip(keys, draws) if c}


def _seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31)))


def _noise_choice(rng: np.random.Generator, inputs: Inputs) -> str:
    if rng.random() < TABLE2_SHARE:
        return "table2"
    return inputs.noise_paths[rng.integers(len(inputs.noise_paths))]


# ---- noisy-replay ---------------------------------------------------------

# Deck shapes. Entangled (7-gate) and product (9-gate) walks cost differently,
# so each shape forms a latency cluster; the counts put the median inside the
# product-run cluster and the 90th percentile inside the product k=6 sweeps,
# never on the gap between two clusters. Every sweep holds one 0 scale.
NOISY_RUNS = (("entangled", 5), ("product", 8))
NOISY_SWEEPS = (("entangled", 4), ("entangled", 5), ("entangled", 6),
                ("product", 6), ("product", 6), ("product", 6), ("product", 8))
NOISY_FIDELITY = 4


def noisy_replay_deck(rng: np.random.Generator, inputs: Inputs) -> list[Request]:
    deck = []
    runs = [algorithm for algorithm, n in NOISY_RUNS for _ in range(n)]
    for i, algorithm in enumerate(runs):
        f, g = PAIRS[rng.integers(len(PAIRS))]
        noise = _noise_choice(rng, inputs)
        shots = int(rng.integers(256, 8193))
        output = "csv" if i % 4 == 0 else "json"
        argv = ["run", *_oracle_argv(algorithm, f, g, False), "--noise", noise,
                "--shots", str(shots), "--seed", _seed(rng), "--output", output]
        deck.append(Request(argv, f"run-noisy-{algorithm}", (algorithm, f, g, noise),
                            {"algorithm": algorithm, "f": f, "g": g, "shots": shots,
                             "output": output}))
    for i, (algorithm, k) in enumerate(NOISY_SWEEPS):
        f, g = PAIRS[rng.integers(len(PAIRS))]
        noise = _noise_choice(rng, inputs)
        scales = [0.0] + [round(float(s), 4) for s in rng.uniform(0.05, 2.0, k - 1)]
        rng.shuffle(scales)
        output = "csv" if i % 4 == 0 else "json"
        argv = ["sweep-noise", *_oracle_argv(algorithm, f, g, False),
                "--scales", ",".join(repr(s) for s in scales), "--noise", noise,
                "--output", output]
        deck.append(Request(argv, f"sweep-noise-{algorithm}-{k}",
                            (algorithm, f, g, noise, tuple(scales)),
                            {"scales": scales, "output": output}))
    for _ in range(NOISY_FIDELITY):
        path, algorithm, f, g, counts = inputs.counts[rng.integers(len(inputs.counts))]
        argv = ["fidelity", "--counts", path, "--theory", f"{algorithm}:{f},{g}",
                "--seed", _seed(rng)]
        deck.append(Request(argv, "fidelity", (algorithm, f, g, "off"),
                            {"counts": counts,
                             "ideal": ideal_distribution(algorithm, f, g)}))
    rng.shuffle(deck)
    return deck


# ---- exact-queries --------------------------------------------------------

# (algorithm, shots mode) of the 19 runs in a deck; the 20th request is verify.
EXACT_SHAPES = (
    [("deutsch", False)] * 3 + [("deutsch", True)] * 3
    + [("entangled", False)] * 4 + [("entangled", True)] * 3
    + [("product", False)] * 3 + [("product", True)] * 3
)


def exact_queries_deck(rng: np.random.Generator, inputs: Inputs) -> list[Request]:
    deck = [Request(["verify"], "verify", ("verify",))]
    for algorithm, with_shots in EXACT_SHAPES:
        if algorithm == "deutsch":
            f, g = list(FUNCTIONS)[rng.integers(len(FUNCTIONS))], None
        else:
            f, g = PAIRS[rng.integers(len(PAIRS))]
        tables = bool(rng.integers(2))
        output = "csv" if rng.random() < 0.25 else "json"
        argv = ["run", *_oracle_argv(algorithm, f, g, tables), "--output", output]
        shots = None
        if with_shots:
            shots = int(rng.integers(64, 4097))
            argv += ["--shots", str(shots), "--seed", _seed(rng)]
        mode = "shots" if with_shots else "exact"
        spelled = tuple(argv[i + 1] for i, a in enumerate(argv) if a in ("--f", "--g"))
        deck.append(Request(argv, f"run-{mode}-{algorithm}", (algorithm, spelled, "off"),
                            {"algorithm": algorithm, "f": f, "g": g, "shots": shots,
                             "output": output}))
    rng.shuffle(deck)
    return deck


# ---- theorem-checks -------------------------------------------------------

AUDIT_GRIDS = (9, 9, 10, 10, 11, 11)
AUDIT_SAMPLES = (100, 1000)  # split into one band per request of a deck


def theorem_checks_deck(rng: np.random.Generator, inputs: Inputs) -> list[Request]:
    lo, hi = AUDIT_SAMPLES
    edges = np.linspace(lo, hi, len(AUDIT_GRIDS) + 1)
    samples = [int(rng.uniform(a, b)) for a, b in zip(edges[:-1], edges[1:])]
    rng.shuffle(samples)
    deck = []
    for grid, count in zip(AUDIT_GRIDS, samples):
        seed = _seed(rng)
        argv = ["audit-theorem", "--samples", str(count), "--grid", str(grid), "--seed", seed]
        deck.append(Request(argv, f"audit-grid-{grid}", ("audit", grid, count, seed)))
    rng.shuffle(deck)
    return deck


# ---- response checks ------------------------------------------------------


def _decode(bits: str) -> tuple[int, int | None]:
    if len(bits) == 2:
        return int(bits[0]), None
    return int(bits[0]), int(bits[1]) ^ int(bits[2])


def _truth(algorithm: str, f: str, g: str | None) -> tuple[int, int | None]:
    f0, f1 = FUNCTIONS[f]
    return f0 ^ f1, None if g is None else f0 ^ FUNCTIONS[g][0]


def _check_distribution(probs: dict[str, float], counts: dict[str, int] | None,
                        exp: dict) -> list[str]:
    problems = []
    width = 2 if exp["algorithm"] == "deutsch" else 3
    total = sum(probs.values())
    if abs(total - 1.0) > PROB_TOL:
        problems.append(f"probabilities sum to {total!r}")
    if any(len(k) != width or set(k) - {"0", "1"} for k in probs):
        problems.append(f"bad outcome keys {sorted(probs)}")
        return problems
    if exp["shots"] is not None:
        if counts is None or sum(counts.values()) != exp["shots"]:
            problems.append(f"counts {counts} do not sum to {exp['shots']}")
    elif counts:
        problems.append("exact run returned counts")
    argmax = max(probs.items(), key=lambda kv: (kv[1], kv[0]))[0]
    want = _truth(exp["algorithm"], exp["f"], exp["g"])
    if _decode(argmax) != want:
        problems.append(f"argmax {argmax} decodes to {_decode(argmax)}, truth {want}")
    return problems


def _parse_run_csv(text: str) -> tuple[dict[str, float], dict[str, int] | None]:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["bitstring", "probability", "count"]:
        raise ValueError(f"bad csv header {rows[0]}")
    probs = {r[0]: float(r[1]) for r in rows[1:]}
    counts = {r[0]: int(r[2]) for r in rows[1:] if r[2]}
    return probs, counts or None


def check_run(req: Request, text: str, exact: bool) -> list[str]:
    exp = req.expect
    if exp["output"] == "csv":
        probs, counts = _parse_run_csv(text)
        problems = _check_distribution(probs, counts, exp)
    else:
        doc = json.loads(text)
        probs, counts = doc["probabilities"], doc.get("counts")
        problems = _check_distribution(probs, counts, exp)
        truth = _truth(exp["algorithm"], exp["f"], exp["g"])
        decoded = (doc["decoded"]["balanced"], doc["decoded"].get("different"))
        if decoded != truth:
            problems.append(f"decoded {decoded}, truth {truth}")
        queries = doc["queries"]
        if exp["algorithm"] == "entangled" and queries != {"f": 1, "g": 1}:
            problems.append(f"entangled queries {queries}")
        if exp["algorithm"] == "product" and sum(queries.values()) != 3:
            problems.append(f"product queries {queries}")
        if exp["algorithm"] == "deutsch" and queries != {"f": 1}:
            problems.append(f"deutsch queries {queries}")
        product = [s["product"] for s in doc["separability"]]
        if exp["algorithm"] == "entangled" and all(product):
            problems.append("entangled run never left the product states")
        if exp["algorithm"] == "product" and not all(product):
            problems.append("product run passed through an entangled state")
    if exact:
        ideal = ideal_distribution(exp["algorithm"], exp["f"], exp["g"])
        if set(probs) != set(ideal) or any(
            abs(probs[k] - ideal[k]) > PROB_TOL for k in ideal
        ):
            problems.append(f"exact probabilities {probs}, ideal {ideal}")
    return problems


def check_noisy_replay(req: Request, code: int, text: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    if req.argv[0] == "run":
        return check_run(req, text, exact=False)
    if req.argv[0] == "sweep-noise":
        return _check_sweep(req, text)
    return _check_fidelity(req, text)


def _check_sweep(req: Request, text: str) -> list[str]:
    if req.expect["output"] == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        rows = [{"scale": float(r["scale"]), "fidelity": float(r["fidelity"]),
                 "argmax_correct": r["argmax_correct"] == "true"} for r in rows]
    else:
        rows = json.loads(text)["sweep"]
    scales = req.expect["scales"]
    if len(rows) != len(scales):
        return [f"{len(rows)} sweep rows for {len(scales)} scales"]
    problems = []
    for row, scale in zip(rows, scales):
        if not math.isclose(row["scale"], scale, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"row scale {row['scale']} for requested {scale}")
        if not 0.0 <= row["fidelity"] <= 1.0:
            problems.append(f"fidelity {row['fidelity']} outside [0, 1]")
        if scale == 0.0 and (abs(row["fidelity"] - 1.0) > FIDELITY_TOL
                             or not row["argmax_correct"]):
            problems.append(f"scale 0 gives {row}")
    return problems


def _check_fidelity(req: Request, text: str) -> list[str]:
    doc = json.loads(text)
    counts, ideal = req.expect["counts"], req.expect["ideal"]
    shots = sum(counts.values())
    want = sum(math.sqrt(c / shots * ideal[k]) for k, c in counts.items() if k in ideal)
    problems = []
    if doc["shots"] != shots:
        problems.append(f"shots {doc['shots']}, file holds {shots}")
    if abs(doc["fidelity"]["value"] - want) > FIDELITY_TOL:
        problems.append(f"fidelity {doc['fidelity']['value']!r}, expected {want!r}")
    if not 0.0 <= doc["fidelity"]["stderr"] < 0.1:
        problems.append(f"stderr {doc['fidelity']['stderr']!r}")
    if set(doc["p_th"]) != set(ideal) or any(
        abs(doc["p_th"][k] - ideal[k]) > PROB_TOL for k in ideal
    ):
        problems.append(f"p_th {doc['p_th']}, ideal {ideal}")
    return problems


def check_exact_queries(req: Request, code: int, text: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    if req.argv[0] == "verify":
        doc = json.loads(text)
        return [] if doc["passed"] is True else [f"verify failed: {doc['summary']}"]
    return check_run(req, text, exact=req.expect["shots"] is None)


def check_theorem_checks(req: Request, code: int, text: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    doc = json.loads(text)
    problems = [] if doc["passed"] is True else ["audit-theorem did not pass"]
    if len(doc.get("families", ())) != 4:
        problems.append(f"{len(doc.get('families', ()))} families audited, not 4")
    return problems


# ---- registry -------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; BENCHMARK.json and README.md give the reasons."""

    name: str
    deck: object  # (rng, inputs) -> list[Request]
    check: object  # (request, exit code, output text) -> list of problems
    loads: tuple[str, ...]  # spans that must record calls in a traced run
    trace_decks_per_s: float  # decks replayed per second of --seconds when traced


_CLI = ("cli.parse_request", "cli.execute", "cli.emit")
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "noisy-replay",
            noisy_replay_deck,
            check_noisy_replay,
            _CLI + ("algorithms.run", "algorithms.circuit_ops", "oracles.oracle_unitary",
                    "oracles.parse_oracle", "qstate.apply_gate", "qstate.expanded_unitary",
                    "qstate.apply_gate_density", "qstate.partial_trace",
                    "qstate.StateVector.init", "qstate.DensityMatrix.init",
                    "entanglement.schmidt_analyze", "entanglement.trace_run_separability",
                    "noise.run_noisy", "noise.depolarize", "noise.apply_readout_confusion",
                    "noise.sample_shots", "noise.statistical_fidelity",
                    "noise.bhattacharyya"),
            1.5,
        ),
        Workload(
            "exact-queries",
            exact_queries_deck,
            check_exact_queries,
            _CLI + ("verify.verify_build", "algorithms.run", "algorithms.circuit_ops",
                    "oracles.oracle_unitary", "oracles.parse_oracle", "qstate.apply_gate",
                    "qstate.StateVector.init", "entanglement.schmidt_analyze",
                    "entanglement.trace_run_separability", "noise.sample_shots"),
            10.0,
        ),
        Workload(
            "theorem-checks",
            theorem_checks_deck,
            check_theorem_checks,
            _CLI + ("oracles.oracle_unitary", "qstate.apply_gate", "qstate.StateVector.init",
                    "entanglement.schmidt_analyze", "entanglement.cnot_product_condition",
                    "entanglement.audit_family_distinguishability", "entanglement.params"),
            0.4,
        ),
    )
}
