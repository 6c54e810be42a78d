"""Command line driver: input description file in, artifacts out.

``spinsim run input.txt`` parses the description, evolves the state one
step block at a time on the statevector backend and writes
``results.csv``, ``results.svg`` and ``manifest.json`` into the output
directory.  The directory comes from ``--out``, else the
``SPINSIM_OUTPUT_DIR`` environment variable, else the file's
``output_dir`` key.

A real-time run lists its compiled step blocks once; the simulation and
the export both read that list.  Every point is read through one
``backend.ReadPlan`` of the strings the observable has at any of the
points, which reads the states in batches.

Every per-point product carries forward from the previous point: with
``--export``, circuit k is circuit k-1 followed by the compiled gates
of step k, fed to the peephole pass's running state, so every gate is
compiled and formatted once, and each circuit is written out before
the next is assembled;
``--ground-truth`` makes one oracle call for the whole series.  Circuit
k repeats circuits 0..k-1, so an export grows with the square of the
step count: one estimated above ``EXPORT_BYTE_LIMIT`` bytes exits 4
before anything is written.

Exit codes: 0 success, 2 bad input description (or one the numerics
cannot follow), 3 recognized but unsupported feature, 4 system too
large for dense simulation or export too large to write, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator

from . import __version__
# estimate_with_sigma, run_statevector and sample_counts stay bound, unused:
# the span tracer in perfbench/spans.py wraps them by name in this module
from .backend import (
    ReadPlan,
    Statevector,
    checked_norm_drift,
    estimate_with_sigma,
    expectation,
    pauli_masks,
    product_state,
    run_statevector,
    sample_counts,
)
from .config import (
    SimulationConfig,
    build_hamiltonian,
    derived_seed,
    parse_input,
    serialize,
    with_overrides,
)
from .errors import SpinsimError, TooLargeError, UnsupportedFeatureError
from .hamiltonian import PauliTerm, snapshot, snapshot_table
# export_text is unused here but stays bound: the span tracer in
# perfbench/spans.py wraps it by name in this module
from .ir import Gate, Program, export_frame, export_line, export_text, lower_to_native
from .observables import (
    ResultSeries,
    energy_observable,
    excitation_displacement_observable,
    site_magnetization_observable,
    write_csv,
    write_manifest,
    write_plot,
)
from .optimizer import PeepholePass, dropped_on_arrival, optimize
from .oracle import EVOLVE_QUBIT_LIMIT, evolve_exact, evolve_imaginary_exact
from .qite import QiteParams, run_qite
# build_evolution_program is unused here but stays bound: the span tracer
# in perfbench/spans.py wraps it by name in this module
from .trotter import (
    TrotterParams,
    build_evolution_program,
    evolve_series,
    state_preparation_gates,
    step_blocks,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSUPPORTED = 3
EXIT_TOO_LARGE = 4
EXIT_IO = 5

# any other SpinsimError during a run means the input asked for more than
# the numerics can follow
_EXIT_CODE_OF = {UnsupportedFeatureError: EXIT_UNSUPPORTED, TooLargeError: EXIT_TOO_LARGE}

OUTPUT_DIR_ENV = "SPINSIM_OUTPUT_DIR"

# the largest export, in estimated bytes, that a run writes (see _export_bytes)
EXPORT_BYTE_LIMIT = 2**30


def _observable_terms(cfg: SimulationConfig, hamiltonian, t: float) -> list[PauliTerm]:
    name = cfg.observable
    if name == "excitation-displacement":
        return excitation_displacement_observable(cfg.num_spins)
    if name == "energy":
        return energy_observable(hamiltonian, t)
    axis = name[len("site-magnetization(")]
    return site_magnetization_observable(cfg.num_spins, axis)


def _observable_table(cfg: SimulationConfig, hamiltonian, times):
    """The factors of the observable's strings over ``times`` and their coefficients,
    one row per time: a time-dependent energy's :func:`hamiltonian.snapshot_table`,
    else the terms at t = 0 on every row."""
    if cfg.observable == "energy" and hamiltonian.is_time_dependent:
        return snapshot_table(hamiltonian, times)
    terms = _observable_terms(cfg, hamiltonian, 0.0)
    return [term.factors for term in terms], [[term.coefficient for term in terms]] * len(times)


def _read_series(cfg: SimulationConfig, hamiltonian, times, states, shots: int, seed: int):
    """(value, sigma) of the observable at each of ``times`` in its state, read by one
    :class:`backend.ReadPlan` of the run's strings, ``plan.batch`` states at a time.
    Each point sums only its own strings; sampled point k draws from
    ``derived_seed(seed, k)``."""
    n = cfg.num_spins
    strings, coefficients = _observable_table(cfg, hamiltonian, times)
    plan = ReadPlan([pauli_masks(factors, n) for factors in strings], n, shots)
    states = iter(states)
    for first in range(0, len(times), plan.batch):
        batch = list(islice(states, plan.batch))
        points = range(first, first + len(batch))
        rngs = [derived_seed(seed, k) for k in points] if shots else None
        yield from plan.estimates(batch, coefficients[first : first + len(batch)], rngs)


def _compile(cfg: SimulationConfig):
    """The compile step: lowering, then the peephole pass when enabled."""
    if cfg.optimizer_level == "peephole":
        return lambda program: optimize(lower_to_native(program))
    return lower_to_native


def _line_formatter() -> Callable[[Gate | None], str]:
    """One run's map from gate to exported line: each distinct gate is formatted
    once (:func:`ir.export_line`), and None, a gate the peephole pass dropped,
    is the empty line."""
    lines: dict[tuple, str] = {}

    def line(gate: Gate | None) -> str:
        if gate is None:
            return ""
        # -0.0 == 0.0, but their lines differ: a zero or absent angle keys by its text
        theta = gate.theta
        key = gate.kind, gate.qubits, theta if theta else str(theta)
        text = lines.get(key)
        if text is None:
            text = lines[key] = export_line(gate)
        return text

    return line


def _cumulative_circuits(
    cfg: SimulationConfig, steps: Iterable[tuple[Gate, ...]], line: Callable[[Gate | None], str]
) -> Iterator[str]:
    """Yield the exported text of circuit k for each of ``steps``' compiled
    gate tuples: the first k + 1 tuples (the preparation first).

    Each tuple is appended, through one running peephole pass when the
    optimizer is on.  Each gate's line comes from ``line``, the run's
    :func:`_line_formatter`; a line is looked up again only when a merge at
    the seam rewrites its gate.
    """
    n = cfg.num_spins
    head, tail = export_frame(n, measured=cfg.shots > 0)
    running = PeepholePass(n) if cfg.optimizer_level == "peephole" else None
    out = [] if running is None else running.out
    lines: list[str] = []
    for gates in steps:
        if running is None:
            out += gates
        else:
            for i in running.extend(gates):
                if i < len(lines):
                    lines[i] = line(out[i])
        lines += map(line, out[len(lines):])
        yield head + "".join(lines) + tail


def _export_bytes(
    cfg: SimulationConfig, steps: list[tuple[Gate, ...]], line: Callable[[Gate | None], str]
) -> int:
    """Estimated size of the cumulative circuits of ``steps``' gate tuples.

    Circuit k holds the lines of tuples 0..k, each measured as given,
    before the running peephole pass's merges; the gates that pass drops
    as they arrive (:func:`optimizer.dropped_on_arrival`) are never
    written, so they are not measured.  A tuple that repeats the one
    before it is measured once.  The lines come from ``line``, the run's
    :func:`_line_formatter`.
    """
    frame = sum(map(len, export_frame(cfg.num_spins, measured=cfg.shots > 0)))
    peephole = cfg.optimizer_level == "peephole"
    total = lines = 0
    previous = size = None
    for gates in steps:
        if gates is not previous:
            kept = (g for g in gates if not (peephole and dropped_on_arrival(g)))
            previous, size = gates, sum(len(line(gate)) for gate in kept)
        lines += size
        total += frame + lines
    return total


def _run_real_time(cfg: SimulationConfig, hamiltonian, seed: int):
    params = TrotterParams(cfg.total_time, cfg.num_steps)
    last_step = cfg.num_steps if cfg.total_time > 0.0 else 0
    compile_program = _compile(cfg)
    # one walk: the simulation and the export read the same compiled blocks
    blocks = list(islice(step_blocks(hamiltonian, params, compile_program), last_step))
    preparation = Program(cfg.num_spins, state_preparation_gates(cfg.initial_state))
    steps = [compile_program(preparation).gates] + [block.gates for block in blocks]
    points, drift = [], None
    if cfg.backend_mode == "QS":
        times = [k * params.dt for k in range(len(steps))]
        last: list[Statevector] = []
        states = _keep_last(evolve_series(cfg.initial_state, blocks), last)
        reads = _read_series(cfg, hamiltonian, times, states, cfg.shots, seed)
        points = [(t, *read) for t, read in zip(times, reads)]
        drift = checked_norm_drift(last[0])
    return points, steps, {"norm_drift": drift}


def _keep_last(states: Iterable[Statevector], last: list) -> Iterator[Statevector]:
    """Yield ``states``, keeping the one yielded last as ``last[0]``."""
    for state in states:
        last[:] = [state]
        yield state


def _run_imaginary_time(cfg: SimulationConfig, hamiltonian, seed: int):
    dbeta = cfg.total_time / cfg.num_steps
    params = QiteParams(dbeta=dbeta, num_steps=cfg.num_steps, shots=cfg.shots, seed=seed)
    reports = run_qite(hamiltonian, params, cfg.initial_state)
    points = [(r.step * dbeta, r.energy, r.sigma) for r in reports]
    # every report's program after the preparation is native already
    programs = [_compile(cfg)(reports[0].program)] + [r.program for r in reports[1:]]
    fits = [
        {"normalization": r.normalization, "residual": r.residual, "step": r.step}
        for r in reports[1:]
    ]
    diagnostics = {"norm_drift": reports[-1].norm_drift, "qite_steps": fits}
    return points, [program.gates for program in programs], diagnostics


def _ground_truth_values(cfg: SimulationConfig, hamiltonian, axis: list[float]) -> list[float]:
    """The exact reference at every point of the axis, from one oracle call."""
    initial = product_state(cfg.initial_state)
    if cfg.mode == "real-time":
        # a time-dependent H is carried forward with 10 midpoint substeps per step
        states = evolve_exact(hamiltonian, axis, initial, substeps=10)
        return [value for value, _ in _read_series(cfg, hamiltonian, axis, states, 0, 0)]
    terms = snapshot(hamiltonian, 0.0)
    references = evolve_imaginary_exact(terms, axis, initial)
    # beta = 0 is the prepared state itself: its energy is evaluated as
    # the run evaluates it, not through a round trip in the eigenbasis
    return [
        expectation(initial, terms) if beta == 0.0 else energy
        for beta, (_, energy) in zip(axis, references)
    ]


def run_simulation(args: argparse.Namespace) -> int:
    try:
        text = Path(args.input).read_text(encoding="utf-8-sig")
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnicodeDecodeError as exc:
        print(f"error: {args.input} is not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        cfg = parse_input(text)
        cfg = with_overrides(cfg, seed=args.seed, shots=args.shots)
    except SpinsimError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return _EXIT_CODE_OF.get(type(exc), EXIT_CONFIG)

    out_dir = args.out or os.environ.get(OUTPUT_DIR_ENV) or cfg.output_dir
    out_path = Path(out_dir)
    seed = cfg.rng_seed if cfg.rng_seed is not None else 0
    config_text = serialize(cfg)
    config_hash = hashlib.sha256(config_text.encode()).hexdigest()[:12]

    try:
        if cfg.constant_depth:
            raise UnsupportedFeatureError(
                "constant_depth circuit synthesis is not implemented; set constant_depth: False"
            )
        if args.ground_truth and cfg.backend_mode == "QS" and cfg.num_spins > EVOLVE_QUBIT_LIMIT:
            raise TooLargeError(
                f"--ground-truth is limited to {EVOLVE_QUBIT_LIMIT} spins, got {cfg.num_spins}"
            )
        hamiltonian = build_hamiltonian(cfg)
        if cfg.mode == "real-time":
            points, steps, diagnostics = _run_real_time(cfg, hamiltonian, seed)
            axis_label = "t"
            observable_name = cfg.observable
        else:
            points, steps, diagnostics = _run_imaginary_time(cfg, hamiltonian, seed)
            axis_label = "beta"
            observable_name = "energy"
        # the largest reported standard error; None when the run is exact
        sigmas = [sigma for _, _, sigma in points if sigma is not None]
        diagnostics["max_sigma"] = max(sigmas, default=None)

        export = args.export or cfg.backend_mode == "export-only"
        if export:
            line = _line_formatter()
            size = _export_bytes(cfg, steps, line)
            if size > EXPORT_BYTE_LIMIT:
                raise TooLargeError(
                    f"the exported circuits would take about {size} bytes, "
                    f"over the limit of {EXPORT_BYTE_LIMIT}; reduce num_steps"
                )

        out_path.mkdir(parents=True, exist_ok=True)
        written: list[str] = []

        if export:
            circuit_dir = out_path / "circuits"
            circuit_dir.mkdir(exist_ok=True)
            for k, circuit in enumerate(_cumulative_circuits(cfg, steps, line)):
                name = f"circuits/step_{k:04d}.qasm"
                (out_path / name).write_text(circuit, encoding="utf-8")
                written.append(name)

        if cfg.backend_mode == "QS":
            metadata = {
                "observable": observable_name,
                "mode": cfg.mode,
                "seed": str(seed),
                "config": config_hash,
            }
            series = ResultSeries(axis_label, tuple(points), metadata)
            extra_columns = None
            if args.ground_truth:
                axis = [x for x, _, _ in points]
                extra_columns = {"ground_truth": _ground_truth_values(cfg, hamiltonian, axis)}
            write_csv(series, out_path / "results.csv", extra_columns=extra_columns)
            write_plot(series, out_path / "results.svg")
            written += ["results.csv", "results.svg"]

        write_manifest(
            out_path / "manifest.json",
            config_text=config_text,
            seed=cfg.rng_seed,
            shots=cfg.shots,
            mode=cfg.mode,
            observable=observable_name,
            output_files=written,
            version=__version__,
            diagnostics=diagnostics,
        )
        written.append("manifest.json")
    except SpinsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODE_OF.get(type(exc), EXIT_CONFIG)
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return EXIT_IO

    for name in written:
        print(f"wrote {out_path / name}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsim",
        description="Simulate spin-chain dynamics from a plain-text description.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one simulation described by an input file")
    run.add_argument("input", help="path to the input description file")
    run.add_argument("--out", help="output directory (overrides file and environment)")
    run.add_argument("--seed", type=int, help="override the file's rng_seed")
    run.add_argument("--shots", type=int, help="override the file's shots")
    run.add_argument(
        "--export", action="store_true", help="also write every circuit as text"
    )
    run.add_argument(
        "--ground-truth",
        action="store_true",
        help="add an exact reference series computed by dense diagonalization",
    )
    run.set_defaults(func=run_simulation)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
