#!/usr/bin/env python3
"""pairdeutsch benchmark: seeded closed-loop CLI workloads, measured in process.

    python3 bench/run.py --workload all                 # every workload, summary
    python3 bench/run.py --workload noisy-replay --seed 3 --seconds 30 --trace 0

One client sends each request only after the previous one has returned.
Every request is a generated argv that goes through
`cli.parse_request -> cli.execute -> cli.emit`, the sequence `cli.main`
runs; its output is checked outside the timed region. With `--trace 0` the
run reports the end-to-end metrics; with `--trace 1` it replays a fixed,
seed-determined list of whole decks twice, untraced and then traced (see
spans.py), and reports per-layer metrics. The last line of stdout is one
JSON object: correct, attempted, failed, metrics. A record with the
environment, the request mix and the repeat share goes to .bench_out/.
"""

from __future__ import annotations

import os
import sys

# One process, one BLAS thread: set before numpy is first imported.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)
os.environ.pop("PAIRDEUTSCH_SEED", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import zlib  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PYCACHE = OUT / "pycache"  # bytecode stays out of the source tree
sys.pycache_prefix = str(PYCACHE)

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Inputs  # noqa: E402

SETUP_SPAWNS = 15  # cold-start samples per run; setup_s is their median

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, missed binding, ...)."""


def load_cli():
    if not (SRC / "pairdeutsch" / "cli.py").is_file():
        raise BenchError(f"no pairdeutsch package under {SRC}")
    sys.path.insert(0, str(SRC))
    import pairdeutsch.cli

    return pairdeutsch.cli


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    sources = sorted((SRC / "pairdeutsch").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": digest,
        "pinned_env": PINNED_ENV,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def spawn_import() -> float:
    """Wall time of one fresh interpreter importing pairdeutsch.cli from src/.
    Bytecode goes to PYCACHE, so after the first spawn the cache is warm."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(PYCACHE))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # an installed user has warm caches
    t0 = time.perf_counter()
    # No timeout: with one, subprocess polls the child in steps of up to 50 ms.
    subprocess.run([sys.executable, "-c", "import pairdeutsch.cli"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def call(cli, argv: list[str]) -> tuple[int, str]:
    request = cli.parse_request(argv)
    envelope, code = cli.execute(request)
    return code, cli.emit(envelope, request.output)


class Loop:
    """Closed loop over a workload's request stream, one request at a time."""

    def __init__(self, cli, workload, seed: int, inputs_dir: Path) -> None:
        self.cli = cli
        self.workload = workload
        base = [seed, zlib.crc32(workload.name.encode())]
        self.inputs = Inputs(inputs_dir, np.random.default_rng(base + [0]))
        self.rng = np.random.default_rng(base + [1])
        self.warmup_rng = np.random.default_rng(base + [2])
        self.latencies: list[float] = []
        self.deck_latencies: list[list[float]] = []  # per whole deck, in order
        self.requests = []
        self.failures: list[str] = []

    def next_deck(self):
        return self.workload.deck(self.rng, self.inputs)

    def warm_up(self) -> None:
        for req in self.workload.deck(self.warmup_rng, self.inputs):
            self.run_one(req, record=False)

    def run_one(self, req, record: bool = True, traced=None) -> float:
        """Time one request; check it afterwards. Returns seconds spent."""
        problems = []
        t0 = time.perf_counter()
        try:
            if traced is None:
                code, text = call(self.cli, req.argv)
            else:
                code, text = traced(lambda: call(self.cli, req.argv))
        except Exception as exc:  # a failed request is counted, not fatal
            elapsed = time.perf_counter() - t0
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - t0
            try:
                problems = self.workload.check(req, code, text)
            except (KeyError, ValueError, TypeError, IndexError) as exc:
                problems = [f"unreadable response: {type(exc).__name__}: {exc}"]
        if record:
            self.requests.append(req)
            if problems:
                self.failures.append(f"{' '.join(req.argv)}: {'; '.join(problems)}")
            else:
                self.latencies.append(elapsed)
        return elapsed

    def run_for(self, seconds: float, between_decks=lambda busy: None) -> float:
        """Send requests until `seconds` of timed work have been measured;
        returns the timed seconds. `between_decks(busy)` runs untimed."""
        busy = 0.0
        while busy < seconds:
            start = len(self.latencies)
            for req in self.next_deck():
                busy += self.run_one(req)
                if busy >= seconds:
                    break
            else:
                self.deck_latencies.append(self.latencies[start:])
            between_decks(busy)
        return busy


def request_mix(requests) -> dict:
    """Share of each request shape, and the share of requests whose
    (algorithm, oracles, noise model) key appeared earlier in the run."""
    kinds = Counter(r.kind for r in requests)
    seen, repeats = set(), Counter()
    for r in requests:
        if r.key in seen:
            repeats[r.kind] += 1
        seen.add(r.key)
    n = max(len(requests), 1)
    return {
        "requests": len(requests),
        "share": {k: v / n for k, v in sorted(kinds.items())},
        "repeat_share": sum(repeats.values()) / n,
        "repeat_share_by_kind": {k: repeats[k] / v for k, v in sorted(kinds.items())},
        "distinct_keys": len(seen),
    }


def end_to_end(cli, workload, seed: int, seconds: float, inputs_dir: Path) -> dict:
    spawn_import()  # fills the bytecode cache; not measured
    setup: list[float] = []

    def sample_setup(busy: float) -> None:
        # Spread the spawns over the run, so that setup_s sees the same
        # machine as the requests do.
        while len(setup) < SETUP_SPAWNS * min(busy / seconds, 1.0):
            setup.append(spawn_import())

    loop = Loop(cli, workload, seed, inputs_dir)
    loop.warm_up()
    busy = loop.run_for(seconds, sample_setup)
    lat_ms = np.array(loop.latencies) * 1e3
    # Percentiles are taken within each whole deck (a fixed mix of request
    # shapes, a fraction of a second long) and averaged over the decks. A run
    # that spends part of its time in a slow phase of a shared machine then
    # moves them in proportion, where a pooled percentile would jump between
    # the phases.
    decks = [np.array(d) * 1e3 for d in loop.deck_latencies if d] or [lat_ms]
    values = {
        "throughput_rps": len(lat_ms) / busy,
        "latency_p50_ms": float(np.mean([np.percentile(d, 50) for d in decks]))
        if lat_ms.size else 0.0,
        "latency_p90_ms": float(np.mean([np.percentile(d, 90) for d in decks]))
        if lat_ms.size else 0.0,
        "setup_s": statistics.median(setup),
    }
    return {
        "loop": loop,
        "mix": request_mix(loop.requests),
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
        "detail": {
            "latency_samples": int(lat_ms.size),
            "whole_decks": len(loop.deck_latencies),
            "beyond_p90": int((lat_ms > values["latency_p90_ms"]).sum()),
            "setup_s_samples": setup,
        },
    }


def per_layer(cli, workload, seed: int, seconds: float, inputs_dir: Path) -> dict:
    loop = Loop(cli, workload, seed, inputs_dir)
    decks = max(1, round(seconds * workload.trace_decks_per_s))
    requests = [req for _ in range(decks) for req in loop.next_deck()]
    loop.warm_up()
    untraced = sum(loop.run_one(req) for req in requests)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = sum(loop.run_one(req, traced=lambda fn, i=i: tracer.request_span(i, fn))
                     for i, req in enumerate(requests))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    n = len(requests)
    missed = [s for s in workload.loads
              if summary[s][0] == 0 and tracer.binding_sites.get(s, 0) > 0]
    if missed:
        raise BenchError(f"{workload.name}: no calls recorded for {', '.join(missed)}; "
                         "a binding site was missed or the call graph changed")
    metrics = {}
    for name in spans.SPANS:
        calls, own = summary[name]
        metrics[f"{name}.calls_per_req"] = {"value": calls / n, "unit": "count"}
        metrics[f"{name}.self_ms_per_req"] = {"value": own * 1e3 / n, "unit": "ms"}
    metrics["trace.overhead_frac"] = {"value": (n / traced - n / untraced) / (n / untraced),
                                      "unit": "frac"}
    metrics["trace.unattributed_ms_per_req"] = {
        "value": summary[spans.REQUEST][1] * 1e3 / n, "unit": "ms"}
    tracer.save(OUT / f"spans-{workload.name}.npz", seed=seed, decks=decks)
    return {
        "loop": loop,
        "mix": request_mix(requests),
        "metrics": metrics,
        "detail": {"decks": decks, "spans": len(tracer.t0), "absent": tracer.absent,
                   "binding_sites": tracer.binding_sites},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = load_cli()
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    inputs_dir = Path(tempfile.mkdtemp(prefix=f"inputs-{name}-", dir=OUT))
    try:
        measure = per_layer if trace else end_to_end
        result = measure(cli, workload, seed, seconds, inputs_dir)
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)
    loop = result.pop("loop")
    result.update(
        workload=name,
        trace=trace,
        seconds=seconds,
        attempted=len(loop.requests),
        failed=len(loop.failures),
        failures=loop.failures[:20],
        environment=environment(seed),
    )
    record = OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    record.write_text(json.dumps(result, indent=2) + "\n")
    return result


def print_summary(result: dict) -> None:
    name = result["workload"]
    for metric, m in result["metrics"].items():
        print(f"{name:15s} {metric:52s} {m['value']:14.6g} {m['unit']}")
    failed_frac = result["failed"] / max(result["attempted"], 1)
    print(f"{name:15s} {'failed_frac':52s} {failed_frac:14.6g} frac "
          f"({result['failed']} of {result['attempted']})")
    detail = result["detail"]
    if "latency_samples" in detail:
        print(f"{name:15s} latencies from {detail['latency_samples']} samples in "
              f"{detail['whole_decks']} whole decks, {detail['beyond_p90']} beyond p90")
    print(f"{name:15s} repeat_share {result['mix']['repeat_share']:.4f} over "
          f"{result['mix']['requests']} requests")
    for failure in result["failures"][:5]:
        print(f"{name:15s} FAILED {failure}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print_summary(result)
    print(f"# environment {json.dumps(results[0]['environment'], sort_keys=True)}")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
