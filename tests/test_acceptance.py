"""Acceptance gate: the eight shipping criteria, one test each.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL
line per criterion with the measured numbers.
"""

import csv
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from helpers import random_config, random_program
from spinsim import backend, ir
from spinsim.backend import (
    expectation,
    pauli_factors,
    product_state,
    run_statevector,
    sample_counts,
)
from spinsim.cli import main
from spinsim.config import ConstantSchedule, build_hamiltonian, parse_input, serialize
from spinsim.hamiltonian import HeisenbergHamiltonian, PauliTerm, snapshot
from spinsim.ir import Program, export_text, import_text, lower_to_native
from spinsim.observables import (
    ResultSeries,
    excitation_displacement_observable,
    read_csv,
    write_csv,
)
from spinsim.optimizer import optimize
from spinsim.oracle import evolve_exact, evolve_imaginary_exact, ground_state
from spinsim.qite import (
    QiteParams,
    fit_step_unitary,
    hamiltonian_basis,
    pauli_rotation_gates,
    run_qite,
)
from spinsim.trotter import TrotterParams, build_evolution_program, evolve_series, step_blocks

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "scripts" / "inputs"
# committed tutorial outputs, by input file
RESULTS = {
    "localization_chain.txt": ROOT / "results" / "localization" / "results.csv",
    "tfim_ground_state.txt": ROOT / "results" / "tfim" / "results.csv",
}


@contextmanager
def criterion(number: int, label: str):
    holder = {}
    started = time.perf_counter()
    try:
        yield holder
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - started
    detail = holder.get("detail", "")
    suffix = f" [{detail}]" if detail else ""
    print(f"PASS criterion {number}: {label}{suffix} ({elapsed:.2f}s)")


def tfim3() -> HeisenbergHamiltonian:
    bonds = {("z", i): ConstantSchedule(1.0) for i in (1, 2)}
    fields = {("x", i): ConstantSchedule(1.0) for i in (1, 2, 3)}
    return HeisenbergHamiltonian(3, bonds, fields)


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    k = np.argmax(np.abs(b))
    index = np.unravel_index(k, b.shape)
    phase = a[index] / b[index]
    phase /= abs(phase)
    return float(np.abs(a - phase * b).max())


def csv_distance(path_a: Path, path_b: Path) -> float:
    """Largest difference between two result CSVs over the columns both have."""
    with open(path_a, newline="") as a, open(path_b, newline="") as b:
        rows_a, rows_b = list(csv.DictReader(a)), list(csv.DictReader(b))
    assert len(rows_a) == len(rows_b)
    worst = 0.0
    for row_a, row_b in zip(rows_a, rows_b):
        for column in row_a.keys() & row_b.keys():
            assert (row_a[column] == "") == (row_b[column] == ""), column
            if row_a[column]:
                worst = max(worst, abs(float(row_a[column]) - float(row_b[column])))
    return worst


def test_criterion_1_qite_convergence():
    with criterion(1, "QITE reaches the TFIM ground energy in 8 steps") as out:
        started = time.perf_counter()
        hamiltonian = tfim3()
        exact, _ = ground_state(snapshot(hamiltonian, 0.0), 3)
        params = QiteParams(dbeta=0.3, num_steps=8, domain_radius=1)
        initial_states = [
            ("up", "up", "up"),
            ("down", "up", "up"),
            ("up", "down", "down"),
        ]
        finals = []
        for spins in initial_states:
            reports = run_qite(hamiltonian, params, spins)
            finals.append(reports[-1].energy)
        elapsed = time.perf_counter() - started

        errors = [abs(e - exact) / abs(exact) for e in finals]
        spread = (max(finals) - min(finals)) / abs(exact)
        assert all(err <= 0.02 for err in errors), errors
        assert spread <= 0.01, spread
        assert elapsed < 5.0, elapsed
        out["detail"] = (
            f"max error {max(errors):.2%}, spread {spread:.2%} over "
            f"{len(initial_states)} starts"
        )


def test_criterion_2_localization_trend(tmp_path):
    with criterion(2, "disorder pins the excitation near site 1") as out:
        started = time.perf_counter()
        text = (INPUTS / "localization_chain.txt").read_text()
        disordered = parse_input(text)
        clean = parse_input(text.replace("h_z: random-uniform(-3, 3)", "h_z: 0.0"))

        displacement = excitation_displacement_observable(5)
        spins = ("down", "up", "up", "up", "up")
        initial = product_state(spins)
        series = {}
        for name, cfg in (("clean", clean), ("disordered", disordered)):
            hamiltonian = build_hamiltonian(cfg)
            params = TrotterParams(cfg.total_time, cfg.num_steps)
            blocks = step_blocks(hamiltonian, params, lower_to_native)
            trotter = [expectation(state, displacement) for state in evolve_series(spins, blocks)]
            times = [k * params.dt for k in range(len(trotter))]
            references = evolve_exact(hamiltonian, times, initial)
            oracle = [expectation(reference, displacement) for reference in references]
            mismatch = np.abs(np.array(trotter) - np.array(oracle)).max()
            assert mismatch <= 0.05, (name, mismatch)
            series[name] = (np.array(trotter), np.array(oracle))
        elapsed = time.perf_counter() - started

        clean_trotter, clean_oracle = series["clean"]
        assert clean_oracle.max() >= 2.5
        assert clean_trotter.max() >= 2.5, clean_trotter.max()
        disordered_trotter, disordered_oracle = series["disordered"]
        assert disordered_oracle.mean() <= 1.0
        assert disordered_trotter.mean() <= 1.0, disordered_trotter.mean()
        assert elapsed < 10.0, elapsed
        out["detail"] = (
            f"free max {clean_trotter.max():.2f} >= 2.5, "
            f"disordered mean {disordered_trotter.mean():.2f} <= 1.0"
        )


def test_criterion_3_trotter_order():
    with criterion(3, "observed Trotter convergence order >= 0.9") as out:
        started = time.perf_counter()
        hamiltonian = tfim3()
        spins = ("down", "up", "up")
        [exact] = evolve_exact(hamiltonian, [1.0], product_state(spins))
        step_counts = [10, 20, 40, 80]
        infidelities = []
        for n in step_counts:
            program = build_evolution_program(
                hamiltonian, TrotterParams(1.0, n), n, spins
            )
            state = run_statevector(program)
            overlap = abs(np.vdot(exact.amplitudes, state.amplitudes))
            infidelities.append(max(1.0 - overlap**2, 1e-16))
        elapsed = time.perf_counter() - started

        slope = -np.polyfit(np.log(step_counts), np.log(infidelities), 1)[0]
        assert slope >= 0.9, slope
        assert elapsed < 2.0, elapsed
        out["detail"] = f"order {slope:.2f} over N={step_counts}"


def test_criterion_4_semantic_preservation():
    with criterion(4, "optimize and lowering preserve 200 fuzzed programs") as out:
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(200):
            program = random_program(rng, max_qubits=5, max_gates=18)
            reference = ir.unitary_of(program)
            optimized = optimize(program)
            lowered = lower_to_native(program)
            assert len(optimized.gates) <= len(program.gates)
            for transformed in (optimized, lowered):
                distance = phase_aligned_distance(
                    reference, ir.unitary_of(transformed)
                )
                worst = max(worst, distance)
                assert distance <= 1e-10, distance
        out["detail"] = f"worst unitary distance {worst:.1e}"


def test_criterion_5_backend_correctness():
    with criterion(5, "backend agrees with dense unitaries and 5-sigma counts") as out:
        rng = np.random.default_rng(777)
        worst = 0.0
        for _ in range(200):
            program = random_program(rng, max_qubits=5, max_gates=18)
            state = run_statevector(program)
            want = ir.unitary_of(program)[:, 0]
            worst = max(worst, float(np.abs(state.amplitudes - want).max()))
            assert worst <= 1e-10, worst
            drift = abs(math.sqrt(backend._real_dot(state.amplitudes, state.amplitudes)) - 1.0)
            assert drift <= 1e-12 * max(len(program.gates), 1), drift

        shots = 100_000
        for trial in range(20):
            n = int(rng.integers(1, 6))
            amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            amps /= np.linalg.norm(amps)
            from spinsim.backend import Statevector

            state = Statevector(n, amps)
            counts = sample_counts(state, shots=shots, seed=9000 + trial)
            probs = np.abs(amps) ** 2
            for index, p in enumerate(probs):
                observed = counts[index]
                sigma = np.sqrt(shots * p * (1.0 - p))
                assert abs(observed - shots * p) <= 5.0 * sigma, (trial, index)
        out["detail"] = f"worst state distance {worst:.1e}, counts within 5 sigma"


def test_criterion_6_qite_calibration():
    with criterion(6, "one-qubit imaginary-time flow calibrated against oracle") as out:
        field = HeisenbergHamiltonian(1, {}, {("z", 1): ConstantSchedule(1.0)})
        term = PauliTerm(1.0, ((1, "z"),))
        plus = run_statevector(Program(1, (ir.h(0),)))

        params = QiteParams(dbeta=0.1, num_steps=1)
        basis = hamiltonian_basis([term], 0, 1)
        coefficients, _, _ = fit_step_unitary(plus, basis, [term], params, 0)
        gates = []
        for a, masks in zip(coefficients, basis, strict=True):
            gates += pauli_rotation_gates(pauli_factors(masks, 1), params.dbeta * a)
        after = run_statevector(Program(1, tuple(gates)), initial=plus)
        fitted = expectation(after, [term])
        [(_, oracle_value)] = evolve_imaginary_exact([term], [0.1], plus)
        assert abs(fitted - oracle_value) <= 5e-3, (fitted, oracle_value)

        reports = run_qite(
            field, QiteParams(dbeta=0.1, num_steps=10), Program(1, (ir.h(0),))
        )
        energies = [r.energy for r in reports]
        assert all(b < a for a, b in zip(energies, energies[1:])), energies
        out["detail"] = (
            f"step-1 <sigma_z> off by {abs(fitted - oracle_value):.1e}, "
            f"10 strictly decreasing steps"
        )


def test_criterion_7_format_round_trips(tmp_path):
    with criterion(7, "config, circuit and CSV formats round-trip") as out:
        rng = np.random.default_rng(4242)
        for _ in range(100):
            cfg = random_config(rng)
            assert parse_input(serialize(cfg)) == cfg
        for _ in range(100):
            program = random_program(rng, max_qubits=5, max_gates=25)
            assert import_text(export_text(program)) == program
        points = ((0.0, 0.125, None), (0.5, -1.75, 0.03125), (1.0, np.pi, None))
        series = ResultSeries("t", points, {"observable": "energy"})
        path = tmp_path / "round.csv"
        write_csv(series, path)
        assert read_csv(path) == points
        out["detail"] = "100 configs, 100 circuits, CSV exact"


def test_criterion_8_tutorial_determinism(tmp_path):
    with criterion(8, "tutorial runs are byte-identical across repeats") as out:
        worst = 0.0
        for name, committed in RESULTS.items():
            input_path = INPUTS / name
            pair = []
            for run in ("first", "second"):
                out_dir = tmp_path / f"{name}.{run}"
                code = main(["run", str(input_path), "--out", str(out_dir)])
                assert code == 0
                pair.append(
                    (
                        (out_dir / "results.csv").read_bytes(),
                        (out_dir / "results.svg").read_bytes(),
                    )
                )
            assert pair[0] == pair[1], name
            distance = csv_distance(tmp_path / f"{name}.first" / "results.csv", committed)
            assert distance <= 1e-12, (name, distance)
            worst = max(worst, distance)
        out["detail"] = (
            "localization and ground-state runs reproduced exactly, "
            f"within {worst:.1e} of the committed results"
        )
