"""Product-formula circuit construction and convergence order."""

import numpy as np
import pytest

from helpers import matrix_exponential
from spinsim import ir
from spinsim.backend import product_state, run_statevector
from spinsim.config import ConstantSchedule, GaussianPulseSchedule, LinearRampSchedule
from spinsim.hamiltonian import HeisenbergHamiltonian, dense_matrix, snapshot
from spinsim.ir import lower_to_native, phase_aligned_distance
from spinsim.optimizer import optimize
from spinsim.oracle import evolve_exact
from spinsim.trotter import (
    TrotterParams,
    build_evolution_program,
    evolve_series,
    state_preparation_gates,
    trotter_step,
)


def tfim(num_spins: int, j_z: float = 1.0, h_x: float = 1.0) -> HeisenbergHamiltonian:
    bonds = {("z", i): ConstantSchedule(j_z) for i in range(1, num_spins)}
    fields = {("x", i): ConstantSchedule(h_x) for i in range(1, num_spins + 1)}
    return HeisenbergHamiltonian(num_spins, bonds, fields)


def heisenberg_xyz(num_spins: int) -> HeisenbergHamiltonian:
    bonds = {
        (axis, i): ConstantSchedule(c)
        for axis, c in (("x", 0.9), ("y", 0.7), ("z", 1.1))
        for i in range(1, num_spins)
    }
    fields = {("z", i): ConstantSchedule(0.4) for i in range(1, num_spins + 1)}
    return HeisenbergHamiltonian(num_spins, bonds, fields)


def driven_chain(num_spins: int, schedule) -> HeisenbergHamiltonian:
    """XY chain with a z field on every site following ``schedule``."""
    bonds = {
        (axis, i): ConstantSchedule(1.0) for axis in ("x", "y") for i in range(1, num_spins)
    }
    fields = {("z", i): schedule for i in range(1, num_spins + 1)}
    return HeisenbergHamiltonian(num_spins, bonds, fields)


CHAINS = {
    "static": heisenberg_xyz(3),
    "linear-ramp": driven_chain(3, LinearRampSchedule(-1.0, 2.0, 1.5)),
    "gaussian-pulse": driven_chain(3, GaussianPulseSchedule(1.5, 0.6, 0.3)),
}
COMPILE_STEPS = {
    "lowered": lower_to_native,
    "peephole": lambda program: optimize(lower_to_native(program)),
}


class TestStepStructure:
    def test_two_site_transverse_chain_step(self):
        program = trotter_step(tfim(2), t_eval=0.05, dt=0.1)
        assert [(g.kind, g.qubits, g.theta) for g in program.gates] == [
            ("rzz", (0, 1), pytest.approx(0.2)),
            ("rx", (0,), pytest.approx(0.2)),
            ("rx", (1,), pytest.approx(0.2)),
        ]

    def test_zero_hamiltonian_step_is_empty(self):
        hamiltonian = HeisenbergHamiltonian(3, {}, {})
        assert trotter_step(hamiltonian, 0.0, 0.1).gates == ()

    def test_axis_major_bond_then_field_order(self):
        program = trotter_step(heisenberg_xyz(3), 0.0, 0.1)
        kinds = [g.kind for g in program.gates]
        assert kinds == ["rxx", "rxx", "ryy", "ryy", "rzz", "rzz", "rz", "rz", "rz"]

    def test_gate_count_formula(self):
        n = 5
        program = trotter_step(heisenberg_xyz(n), 0.0, 0.1)
        active_bond_axes, active_field_axes = 3, 1
        assert len(program.gates) == active_bond_axes * (n - 1) + active_field_axes * n

    def test_midpoint_sampling_of_ramp(self):
        fields = {("x", 1): LinearRampSchedule(0.0, 1.0, 1.0)}
        hamiltonian = HeisenbergHamiltonian(1, {}, fields)
        params = TrotterParams(total_time=1.0, num_steps=2)
        program = build_evolution_program(hamiltonian, params, 2, ["up"])
        # ramp value at midpoints 0.25 and 0.75, times 2 dt = 1.0
        assert [g.theta for g in program.gates] == [
            pytest.approx(0.25),
            pytest.approx(0.75),
        ]


class TestProgramAssembly:
    def test_zero_steps_is_preparation_only(self):
        program = build_evolution_program(
            tfim(3), TrotterParams(1.0, 10), 0, ["down", "up", "up"]
        )
        assert [(g.kind, g.qubits) for g in program.gates] == [("x", (0,))]

    def test_preparation_flips_down_sites(self):
        gates = state_preparation_gates(["down", "up", "down"])
        assert [(g.kind, g.qubits) for g in gates] == [("x", (0,)), ("x", (2,))]

    def test_step_count_bounds_checked(self):
        params = TrotterParams(1.0, 5)
        with pytest.raises(ValueError):
            build_evolution_program(tfim(2), params, 6, ["up", "up"])
        with pytest.raises(ValueError):
            build_evolution_program(tfim(2), params, -1, ["up", "up"])

    def test_initial_state_length_checked(self):
        with pytest.raises(ValueError):
            build_evolution_program(tfim(2), TrotterParams(1.0, 5), 1, ["up"])

    def test_gate_count_scales_linearly_in_steps(self):
        params = TrotterParams(1.0, 8)
        per_step = len(trotter_step(tfim(3), 0.0, params.dt).gates)
        program = build_evolution_program(tfim(3), params, 8, ["up"] * 3)
        assert len(program.gates) == 8 * per_step

    def test_params_validate(self):
        with pytest.raises(ValueError):
            TrotterParams(-1.0, 5)
        with pytest.raises(ValueError):
            TrotterParams(1.0, 0)


class TestAccuracy:
    def test_single_step_error_bound(self):
        dt = 0.01
        hamiltonian = heisenberg_xyz(3)
        step = trotter_step(hamiltonian, dt / 2, dt)
        exact = matrix_exponential(
            -1j * dt * dense_matrix(snapshot(hamiltonian, dt / 2), 3)
        )
        diff = ir.unitary_of(step) - exact
        assert np.linalg.norm(diff, 2) <= 10 * dt * dt

    def test_norm_preserved_over_many_steps(self):
        params = TrotterParams(3.0, 60)
        program = build_evolution_program(heisenberg_xyz(4), params, 60, ["up"] * 4)
        state = run_statevector(program)
        assert abs(state.norm() - 1.0) <= 1e-12 * len(program.gates)

    def test_observed_order_at_least_first(self):
        hamiltonian = heisenberg_xyz(3)
        initial = product_state(["down", "up", "up"])
        t = 1.0
        [exact] = evolve_exact(hamiltonian, [t], initial)
        errors = []
        step_counts = [8, 16, 32, 64]
        for n in step_counts:
            program = build_evolution_program(
                hamiltonian, TrotterParams(t, n), n, ["down", "up", "up"]
            )
            state = run_statevector(program)
            overlap = abs(np.vdot(exact.amplitudes, state.amplitudes))
            errors.append(max(1.0 - overlap, 1e-16))
        slope = -np.polyfit(np.log(step_counts), np.log(errors), 1)[0]
        assert slope >= 0.9


class TestEvolveSeries:
    @pytest.mark.parametrize("compile_step", sorted(COMPILE_STEPS))
    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_matches_cumulative_programs(self, chain, compile_step):
        hamiltonian = CHAINS[chain]
        params = TrotterParams(1.5, 6)
        spins = ["down", "up", "up"]
        series = evolve_series(hamiltonian, params, spins, COMPILE_STEPS[compile_step])
        count = 0
        for k, (t_k, state) in enumerate(series):
            assert t_k == k * params.dt
            program = build_evolution_program(hamiltonian, params, k, spins)
            want = run_statevector(program).amplitudes
            assert phase_aligned_distance(want, state.amplitudes) <= 1e-12, k
            count += 1
        assert count == params.num_steps + 1

    def test_uncompiled_blocks_reproduce_programs_exactly(self):
        hamiltonian = CHAINS["linear-ramp"]
        params = TrotterParams(1.5, 4)
        spins = ["up", "down", "up"]
        for k, (_, state) in enumerate(evolve_series(hamiltonian, params, spins, lambda p: p)):
            program = build_evolution_program(hamiltonian, params, k, spins)
            np.testing.assert_array_equal(state.amplitudes, run_statevector(program).amplitudes)

    @pytest.mark.parametrize("chain, compiles", [("static", 1), ("linear-ramp", 5)])
    def test_each_block_compiled_once(self, chain, compiles):
        compiled = []

        def compile_block(program):
            compiled.append(program)
            return program

        series = evolve_series(CHAINS[chain], TrotterParams(1.0, 5), ["up"] * 3, compile_block)
        assert len(list(series)) == 6
        assert len(compiled) == compiles

    def test_initial_state_length_checked(self):
        with pytest.raises(ValueError):
            next(evolve_series(tfim(2), TrotterParams(1.0, 5), ["up"], lower_to_native))
