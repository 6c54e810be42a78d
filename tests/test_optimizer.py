"""Peephole pass: gate-count reduction with unchanged semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_program
from spinsim import ir
from spinsim.ir import Gate, Program
from spinsim.optimizer import optimize


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    k = np.argmax(np.abs(b))
    index = np.unravel_index(k, b.shape)
    phase = a[index] / b[index]
    phase /= abs(phase)
    return float(np.abs(a - phase * b).max())


def program_of(num_qubits, gates):
    return Program(num_qubits=num_qubits, gates=tuple(gates))


class TestRewrites:
    def test_merges_adjacent_same_axis_rotations(self):
        program = program_of(1, [ir.rz(0.3, 0), ir.rz(0.4, 0)])
        out = optimize(program)
        assert [(g.kind, g.qubits, g.theta) for g in out.gates] == [
            ("rz", (0,), pytest.approx(0.7))
        ]

    def test_cancels_cnot_pair(self):
        program = program_of(2, [ir.cnot(0, 1), ir.cnot(0, 1)])
        assert optimize(program).gates == ()

    def test_merges_across_disjoint_wire_gate(self):
        program = program_of(2, [ir.rz(0.3, 0), ir.h(1), ir.rz(-0.3, 0)])
        out = optimize(program)
        assert [(g.kind, g.qubits) for g in out.gates] == [("h", (1,))]

    def test_cancels_h_pair(self):
        program = program_of(1, [ir.h(0), ir.h(0)])
        assert optimize(program).gates == ()

    def test_cancels_x_pair_across_disjoint_gate(self):
        program = program_of(2, [Gate("x", (0,)), ir.rz(0.5, 1), Gate("x", (0,))])
        out = optimize(program)
        assert [(g.kind, g.qubits) for g in out.gates] == [("rz", (1,))]

    def test_drops_full_turn_rotation(self):
        program = program_of(1, [ir.rx(2.0 * np.pi, 0)])
        assert optimize(program).gates == ()

    def test_drops_merged_full_turn(self):
        program = program_of(1, [ir.rz(np.pi, 0), ir.rz(np.pi, 0)])
        assert optimize(program).gates == ()
        # the full turn is dropped when the merge makes it, so a later
        # rotation starts afresh instead of merging into rz(2 pi + 0.3)
        program = program_of(1, [ir.rz(np.pi, 0), ir.rz(np.pi, 0), ir.rz(0.3, 0)])
        assert optimize(program).gates == (ir.rz(0.3, 0),)

    def test_two_qubit_rotations_merge(self):
        program = program_of(2, [ir.rzz(0.2, 0, 1), ir.rzz(0.3, 0, 1)])
        out = optimize(program)
        assert [(g.kind, g.theta) for g in out.gates] == [("rzz", pytest.approx(0.5))]

    def test_shared_wire_blocks_merging(self):
        # the cnot touches qubit 0, so the two rz gates never meet
        program = program_of(2, [ir.rz(0.3, 0), ir.cnot(0, 1), ir.rz(0.4, 0)])
        out = optimize(program)
        assert [g.kind for g in out.gates] == ["rz", "cnot", "rz"]

    def test_operand_order_blocks_cnot_cancellation(self):
        program = program_of(2, [ir.cnot(0, 1), ir.cnot(1, 0)])
        out = optimize(program)
        assert len(out.gates) == 2

    def test_cascading_cancellation(self):
        program = program_of(
            2, [ir.h(0), ir.cnot(0, 1), ir.cnot(0, 1), ir.h(0)]
        )
        assert optimize(program).gates == ()

    def test_measured_flag_preserved(self):
        program = Program(1, (ir.h(0), ir.h(0)), measured=True)
        out = optimize(program)
        assert out.measured is True
        assert out.gates == ()


def random_input(seed, lowered, max_qubits, max_gates):
    """A random program, or its lowering: lowering adds the h pairs,
    rx(+-pi/2) pairs and rz(0) gates that compiled circuits contain."""
    program = random_program(np.random.default_rng(seed), max_qubits, max_gates)
    return ir.lower_to_native(program) if lowered else program


class TestContracts:
    @given(seed=st.integers(0, 100_000), lowered=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_semantics_preserved(self, seed, lowered):
        program = random_input(seed, lowered, max_qubits=4, max_gates=20)
        out = optimize(program)
        distance = phase_aligned_distance(
            ir.unitary_of(program), ir.unitary_of(out)
        )
        assert distance <= 1e-10

    @given(seed=st.integers(0, 100_000), lowered=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_monotone_and_idempotent(self, seed, lowered):
        program = random_input(seed, lowered, max_qubits=5, max_gates=30)
        once = optimize(program)
        assert len(once.gates) <= len(program.gates)
        assert optimize(once) == once

    @given(
        seed=st.integers(0, 100_000),
        extension_seed=st.integers(0, 100_000),
        lowered=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_optimized_prefix_extends_like_the_raw_prefix(
        self, seed, extension_seed, lowered
    ):
        # export carries circuit k-1 forward: optimizing it followed by
        # step k must give what optimizing the whole program gives
        prefix = random_input(seed, lowered, max_qubits=4, max_gates=25)
        extension = random_input(extension_seed, lowered, max_qubits=4, max_gates=25)
        n = max(prefix.num_qubits, extension.num_qubits)
        carried = program_of(n, optimize(prefix).gates + extension.gates)
        whole = program_of(n, prefix.gates + extension.gates)
        assert optimize(carried) == optimize(whole)

    def test_trotter_step_seam_collapses(self):
        # back-to-back steps of a zz chain meet at cnot pairs; the merged
        # circuit must shrink while acting identically
        step = [
            ir.cnot(0, 1),
            ir.rz(0.2, 1),
            ir.cnot(0, 1),
            ir.cnot(0, 1),
            ir.rz(0.2, 1),
            ir.cnot(0, 1),
        ]
        program = program_of(2, step)
        out = optimize(program)
        assert len(out.gates) < len(program.gates)
        assert phase_aligned_distance(
            ir.unitary_of(program), ir.unitary_of(out)
        ) <= 1e-10

    def test_empty_program_unchanged(self):
        program = program_of(3, [])
        assert optimize(program) == program
