"""Span tracing of pairdeutsch from outside the package.

`Tracer.install` wraps each public function named in `SPANS` at every place
it is bound: the defining module, every module that imported it by name,
and module-level dicts that hold it (registries). Class validators are
wrapped on the class, so every `StateVector(...)` and `DensityMatrix(...)`
construction records one span. Spans are kept in flat in-memory arrays
(name, parent, request id, start, end) and written out once at the end.
"""

from __future__ import annotations

import array
import functools
import importlib
import sys
import time
from pathlib import Path

import numpy as np

# span name -> (module, attributes); "Class.method" names a class attribute.
SPANS = {
    "cli.parse_request": ("cli", ("parse_request",)),
    "cli.execute": ("cli", ("execute",)),
    "cli.emit": ("cli", ("emit",)),
    "verify.verify_build": ("verify", ("verify_build",)),
    "algorithms.run": ("algorithms", ("run_deutsch", "run_entangled_pair", "run_product_pair")),
    "algorithms.circuit_ops": ("algorithms", ("circuit_ops",)),
    "oracles.oracle_unitary": ("oracles", ("oracle_unitary",)),
    "oracles.parse_oracle": ("oracles", ("parse_oracle",)),
    "qstate.apply_gate": ("qstate", ("apply_gate",)),
    "qstate.expanded_unitary": ("qstate", ("expanded_unitary",)),
    "qstate.apply_gate_density": ("qstate", ("apply_gate_density",)),
    "qstate.partial_trace": ("qstate", ("partial_trace",)),
    "qstate.StateVector.init": ("qstate", ("StateVector.__post_init__",)),
    "qstate.DensityMatrix.init": ("qstate", ("DensityMatrix.__post_init__",)),
    "entanglement.schmidt_analyze": ("entanglement", ("schmidt_analyze",)),
    "entanglement.trace_run_separability": ("entanglement", ("trace_run_separability",)),
    "entanglement.cnot_product_condition": ("entanglement", ("cnot_product_condition",)),
    "entanglement.audit_family_distinguishability": (
        "entanglement", ("audit_family_distinguishability",)),
    "entanglement.params": ("entanglement", ("bloch_grid_params", "random_product_params")),
    "noise.run_noisy": ("noise", ("run_noisy",)),
    "noise.depolarize": ("noise", ("depolarize",)),
    "noise.apply_readout_confusion": ("noise", ("apply_readout_confusion",)),
    "noise.sample_shots": ("noise", ("sample_shots",)),
    "noise.statistical_fidelity": ("noise", ("statistical_fidelity",)),
    "noise.bhattacharyya": ("noise", ("bhattacharyya",)),
}
REQUEST = "request"  # root span of one request, recorded by the benchmark loop
PACKAGE = "pairdeutsch"


class Tracer:
    def __init__(self) -> None:
        self.names = [REQUEST, *SPANS]
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.request = array.array("i")
        self.t0 = array.array("d")
        self.t1 = array.array("d")
        self._stack = [-1]
        self._request_id = 0
        self._patches: list[tuple[object, str, object]] = []  # (owner, key, original)
        self.absent: list[str] = []  # listed functions the package no longer has
        self.binding_sites: dict[str, int] = {}
        self._root = self._wrap(lambda fn: fn(), 0)

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, sid: int):
        name_id, parent, request = self.name_id, self.parent, self.request
        t0, t1, stack, clock = self.t0, self.t1, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(t0)
            name_id.append(sid)
            parent.append(stack[-1])
            request.append(tracer._request_id)
            t1.append(0.0)
            stack.append(i)
            t0.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1[i] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def request_span(self, request_id: int, fn):
        """Run fn() as the root span of request `request_id`."""
        self._request_id = request_id
        return self._root(fn)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for span, (module_name, attributes) in SPANS.items():
            sid = self.names.index(span)
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            sites = 0
            for attribute in attributes:
                owner_name, _, key = attribute.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, key, None)
                if original is None:
                    self.absent.append(f"{module_name}.{attribute}")
                    continue
                wrapper = self._wrap(original, sid)
                if owner_name:
                    self._patch(owner, key, original, wrapper)
                    sites += 1
                    continue
                for m in modules:
                    sites += self._rebind(m, original, wrapper)
            self.binding_sites[span] = sites

    def _patch(self, owner, key, original, wrapper) -> None:
        if isinstance(owner, dict):
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def _rebind(self, module, original, wrapper) -> int:
        sites = 0
        for key, value in list(vars(module).items()):
            if value is original:
                self._patch(module, key, original, wrapper)
                sites += 1
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        self._patch(value, k, original, wrapper)
                        sites += 1
        return sites

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, self seconds); self time is the span's
        duration minus the time its direct children cover."""
        a = self.arrays()
        duration = a["t1"] - a["t0"]
        nested = a["parent"] >= 0
        children = np.bincount(a["parent"][nested], weights=duration[nested],
                               minlength=duration.size)
        own = duration - children
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        own_total = np.bincount(a["name_id"], weights=own, minlength=k)
        return {name: (int(calls[i]), float(own_total[i]))
                for i, name in enumerate(self.names)}

    def save(self, path: Path, **meta) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays(),
                 **{k: np.array(v) for k, v in meta.items()})
