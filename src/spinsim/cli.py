"""Command line driver: input description file in, artifacts out.

``spinsim run input.txt`` parses the description, builds the circuits,
executes them on the statevector backend and writes ``results.csv``,
``results.svg`` and ``manifest.json`` into the output directory.  The
directory comes from ``--out``, else the ``SPINSIM_OUTPUT_DIR``
environment variable, else the file's ``output_dir`` key.

Exit codes: 0 success, 2 bad input description (or one the numerics
cannot follow), 3 recognized but unsupported feature, 4 system too
large for dense simulation, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from .backend import (
    Statevector,
    estimate_with_sigma,
    expectation,
    product_state,
    run_statevector,
    sample_counts,
)
from .config import (
    SimulationConfig,
    build_hamiltonian,
    parse_input,
    serialize,
    with_overrides,
)
from .errors import ConfigError, SpinsimError, TooLargeError, UnsupportedFeatureError
from .hamiltonian import AXES, PauliTerm, snapshot
from .ir import Program, export_text, h as h_gate, lower_to_native, rx as rx_gate
from .observables import (
    ResultSeries,
    energy_observable,
    excitation_displacement_observable,
    site_magnetization_observable,
    write_csv,
    write_manifest,
    write_plot,
)
from .optimizer import optimize
from .oracle import EVOLVE_QUBIT_LIMIT, evolve_exact, evolve_imaginary_exact
from .qite import QiteParams, run_qite
from .trotter import TrotterParams, build_evolution_program, evolve_series

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSUPPORTED = 3
EXIT_TOO_LARGE = 4
EXIT_IO = 5

# any other SpinsimError during a run means the input asked for more than
# the numerics can follow
_EXIT_CODE_OF = {UnsupportedFeatureError: EXIT_UNSUPPORTED, TooLargeError: EXIT_TOO_LARGE}

OUTPUT_DIR_ENV = "SPINSIM_OUTPUT_DIR"


def _observable_terms(cfg: SimulationConfig, hamiltonian, t: float) -> list[PauliTerm]:
    name = cfg.observable
    if name == "excitation-displacement":
        return excitation_displacement_observable(cfg.num_spins)
    if name == "energy":
        return energy_observable(hamiltonian, t)
    axis = name[len("site-magnetization(")]
    return site_magnetization_observable(cfg.num_spins, axis)


def _derived_int_seed(base: int, *salts: int) -> int:
    return int(np.random.SeedSequence([base, *salts]).generate_state(1)[0])


def _sampled_estimate(
    state: Statevector,
    terms: list[PauliTerm],
    shots: int,
    base_seed: int,
    step_index: int,
) -> tuple[float, float]:
    """Measure a single-axis-per-term observable by sampling.

    Terms are grouped by axis; x and y groups get basis-change gates
    applied to the state before measurement so every group reads out
    in the z basis.  Each group is sampled with its own ``shots`` draws.
    """
    constant = sum(t.coefficient for t in terms if not t.factors)
    groups: dict[str, list[PauliTerm]] = {}
    for term in terms:
        if not term.factors:
            continue
        axes_used = {axis for _, axis in term.factors}
        if len(axes_used) != 1:
            raise UnsupportedFeatureError(
                "sampled estimation needs single-axis terms; use shots: 0"
            )
        groups.setdefault(axes_used.pop(), []).append(term)

    value = constant
    variance = 0.0
    for axis_index, axis in enumerate(AXES):
        group = groups.get(axis)
        if not group:
            continue
        gates = []
        sites = sorted({site for term in group for site, _ in term.factors})
        for site in sites:
            if axis == "x":
                gates.append(h_gate(site - 1))
            elif axis == "y":
                gates.append(rx_gate(math.pi / 2, site - 1))
        rotated = run_statevector(Program(state.num_qubits, tuple(gates)), initial=state)
        seed = _derived_int_seed(base_seed, step_index, axis_index)
        counts = sample_counts(rotated, shots, seed)
        z_terms = [
            PauliTerm(t.coefficient, tuple((site, "z") for site, _ in t.factors))
            for t in group
        ]
        mean, sigma = estimate_with_sigma(counts, z_terms)
        value += mean
        variance += sigma**2
    return value, float(np.sqrt(variance))


def _compile(cfg: SimulationConfig):
    """The compile step: lowering, then the peephole pass when enabled."""
    if cfg.optimizer_level == "peephole":
        return lambda program: optimize(lower_to_native(program))
    return lower_to_native


def _finalize_program(program: Program, cfg: SimulationConfig) -> Program:
    program = _compile(cfg)(program)
    return Program(program.num_qubits, program.gates, measured=cfg.shots > 0)


def _run_real_time(cfg: SimulationConfig, hamiltonian, seed: int, export: bool):
    params = TrotterParams(cfg.total_time, cfg.num_steps)
    last_step = cfg.num_steps if cfg.total_time > 0.0 else 0
    programs = [
        _finalize_program(build_evolution_program(hamiltonian, params, k, cfg.initial_state), cfg)
        for k in range(last_step + 1)
        if export
    ]
    points = []
    if cfg.backend_mode == "QS":
        series = evolve_series(hamiltonian, params, cfg.initial_state, _compile(cfg))
        for k, (t_k, state) in enumerate(islice(series, last_step + 1)):
            terms = _observable_terms(cfg, hamiltonian, t_k)
            if cfg.shots == 0:
                points.append((t_k, expectation(state, terms), None))
            else:
                points.append((t_k, *_sampled_estimate(state, terms, cfg.shots, seed, k)))
    return points, programs


def _run_imaginary_time(cfg: SimulationConfig, hamiltonian, seed: int, export: bool):
    dbeta = cfg.total_time / cfg.num_steps
    params = QiteParams(dbeta=dbeta, num_steps=cfg.num_steps, shots=cfg.shots, seed=seed)
    reports = run_qite(hamiltonian, params, cfg.initial_state)
    points = [(r.step * dbeta, r.energy, r.sigma) for r in reports]
    programs = [_finalize_program(r.program, cfg) for r in reports] if export else []
    return points, programs


def _ground_truth_points(cfg: SimulationConfig, hamiltonian, points):
    initial = product_state(cfg.initial_state)
    truth = []
    if cfg.mode == "real-time":
        for k, (t_k, _, _) in enumerate(points):
            substeps = max(10 * k, 1)
            state = evolve_exact(hamiltonian, t_k, initial, substeps=substeps)
            terms = _observable_terms(cfg, hamiltonian, t_k)
            truth.append((t_k, expectation(state, terms), None))
    else:
        terms = snapshot(hamiltonian, 0.0)
        for beta, _, _ in points:
            if beta == 0.0:
                truth.append((beta, expectation(initial, terms), None))
            else:
                _, energy = evolve_imaginary_exact(terms, beta, initial)
                truth.append((beta, energy, None))
    return truth


def run_simulation(args: argparse.Namespace) -> int:
    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        cfg = parse_input(text)
        cfg = with_overrides(cfg, seed=args.seed, shots=args.shots)
    except ConfigError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return EXIT_CONFIG

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
        export = args.export or cfg.backend_mode == "export-only"
        if cfg.mode == "real-time":
            points, programs = _run_real_time(cfg, hamiltonian, seed, export)
            axis_label = "t"
            observable_name = cfg.observable
        else:
            points, programs = _run_imaginary_time(cfg, hamiltonian, seed, export)
            axis_label = "beta"
            observable_name = "energy"

        out_path.mkdir(parents=True, exist_ok=True)
        written: list[str] = []

        if export:
            circuit_dir = out_path / "circuits"
            circuit_dir.mkdir(exist_ok=True)
            for k, program in enumerate(programs):
                name = f"circuits/step_{k:04d}.qasm"
                (out_path / name).write_text(export_text(program), encoding="utf-8")
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
                truth = _ground_truth_points(cfg, hamiltonian, points)
                extra_columns = {"ground_truth": [v for _, v, _ in truth]}
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
