"""Span recorder for the traced benchmark run, installed from outside the package.

``Tracer.install`` replaces public functions of the ``spinsim`` modules with
timing wrappers, at the names the callers look them up by (``spinsim.cli``
imports most of them by name, so that is where they are replaced).  Each
call becomes a span ``(name, start, end, parent)`` of one run id, kept in
memory and written by ``Tracer.write`` when the run ends, together with the
work counts taken at the same boundaries.  ``backend.apply_gate`` is too hot
for one span per call: it is timed into per-gate-kind totals instead.
"""

from __future__ import annotations

import json
import time

import numpy as np

import spinsim.backend
import spinsim.cli
import spinsim.qite
from machine import COMPLEX_BYTES, copy_gbps


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.gates: dict[str, list[float]] = {}  # kind -> [count, seconds, bytes]
        self.max_qubits = 0

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, fn, on_result=None):
        """Wrap fn so every call records a span; on_result(args, result) counts work."""

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = [name, start, end, parent]
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _gate(self, fn):
        def traced(amps, gate, num_qubits):
            start = time.perf_counter()
            result = fn(amps, gate, num_qubits)
            elapsed = time.perf_counter() - start
            totals = self.gates.setdefault(gate.kind, [0, 0.0, 0])
            totals[0] += 1
            totals[1] += elapsed
            totals[2] += 2 * COMPLEX_BYTES * 2**num_qubits
            self.max_qubits = max(self.max_qubits, num_qubits)
            return result

        return traced

    def install(self) -> None:
        cli = spinsim.cli
        add = self.add

        def gates_out(counter):
            return lambda args, result: add(counter, len(result.gates))

        def optimized(args, result):
            add("optimizer.gates_in", len(args[0].gates))
            add("optimizer.gates_out", len(result.gates))

        def simulated(args, result):
            add("backend.run.calls", 1)
            add("backend.run.gates", len(args[0].gates))

        def qite_reports(args, result):
            coefficients = np.concatenate([np.abs(r.coefficients) for r in result[1:]])
            add("qite.steps", len(result) - 1)
            add("qite.gates_out", len(result[-1].program.gates))
            add("qite.coefficients", coefficients.size)
            add("qite.zero_coefficients", int(np.count_nonzero(coefficients < 1e-10)))

        def exported(args, result):
            add("ir.export.bytes", len(result.encode("utf-8")))

        def written(position):
            return lambda args, result: add("observables.bytes", args[position].stat().st_size)

        def oracle_call(args, result):
            add("oracle.calls", 1)

        layers = [
            ("config", "parse_input", None),
            ("config", "with_overrides", None),
            ("config", "serialize", None),
            ("config", "build_hamiltonian", None),
            ("trotter", "build_evolution_program", gates_out("trotter.gates_out")),
            ("ir.lower", "lower_to_native", gates_out("ir.lower.gates_out")),
            ("optimizer", "optimize", optimized),
            ("backend.run", "run_statevector", simulated),
            ("backend.expect", "expectation", None),
            ("backend.sample", "sample_counts", None),
            ("backend.sample", "estimate_with_sigma", None),
            ("qite", "run_qite", qite_reports),
            ("oracle", "evolve_exact", oracle_call),
            ("oracle", "evolve_imaginary_exact", oracle_call),
            ("ir.export", "export_text", exported),
            ("observables", "energy_observable", None),
            ("observables", "site_magnetization_observable", None),
            ("observables", "excitation_displacement_observable", None),
            ("observables", "write_csv", written(1)),
            ("observables", "write_plot", written(1)),
            ("observables", "write_manifest", written(0)),
        ]
        for name, attr, on_result in layers:
            setattr(cli, attr, self.span(name, getattr(cli, attr), on_result))
        # run_statevector looks apply_gate up in backend; run_qite imported it by name
        for module in (spinsim.backend, spinsim.qite):
            module.apply_gate = self._gate(module.apply_gate)

    def measure_copy(self) -> None:
        """numpy copy bandwidth at the largest state size this run simulated."""
        self.counts["backend.copy_gbps"] = copy_gbps(self.max_qubits)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump(
                {
                    "run_id": self.run_id,
                    "spans": self.spans,
                    "counts": self.counts,
                    "gates": self.gates,
                    "max_qubits": self.max_qubits,
                },
                out,
            )
