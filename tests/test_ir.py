"""Gate semantics, lowering, text round-trips, unitary extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import matrix_exponential, random_program
from spinsim import ir
from spinsim.errors import (
    CircuitSyntaxError,
    QubitOutOfRangeError,
    TooLargeError,
    UnknownGateError,
)
from spinsim.ir import (
    Gate,
    Program,
    export_text,
    gate_matrix,
    import_text,
    lower_to_native,
    pauli_matrix,
    phase_aligned_distance,
    unitary_of,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

ANGLES = st.floats(
    min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False
)


def rotation_matrix(pauli: np.ndarray, theta: float) -> np.ndarray:
    dim = pauli.shape[0]
    return math.cos(theta / 2) * np.eye(dim) - 1j * math.sin(theta / 2) * pauli


class TestGateMatrices:
    """Pins every gate's matrix; all other modules rely on this table."""

    def test_x(self):
        np.testing.assert_allclose(gate_matrix(ir.x(0)), SX)

    def test_h(self):
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        np.testing.assert_allclose(gate_matrix(ir.h(0)), expected)

    @given(theta=ANGLES)
    def test_rz_convention(self, theta):
        expected = np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
        np.testing.assert_allclose(gate_matrix(ir.rz(theta, 0)), expected, atol=1e-14)

    @given(theta=ANGLES)
    def test_rx_convention(self, theta):
        np.testing.assert_allclose(
            gate_matrix(ir.rx(theta, 0)), rotation_matrix(SX, theta), atol=1e-14
        )

    @given(theta=ANGLES)
    def test_ry_convention(self, theta):
        np.testing.assert_allclose(
            gate_matrix(ir.ry(theta, 0)), rotation_matrix(SY, theta), atol=1e-14
        )

    def test_cnot(self):
        expected = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        np.testing.assert_allclose(gate_matrix(ir.cnot(0, 1)), expected)

    @given(theta=ANGLES)
    def test_two_qubit_rotations(self, theta):
        for kind, pauli in [("rxx", SX), ("ryy", SY), ("rzz", SZ)]:
            gate = getattr(ir, kind)(theta, 0, 1)
            expected = rotation_matrix(np.kron(pauli, pauli), theta)
            np.testing.assert_allclose(gate_matrix(gate), expected, atol=1e-14)

    def test_pauli_matrix_table(self):
        np.testing.assert_allclose(pauli_matrix("x"), SX)
        np.testing.assert_allclose(pauli_matrix("y"), SY)
        np.testing.assert_allclose(pauli_matrix("z"), SZ)


class TestGateValidation:
    def test_two_qubit_gate_needs_distinct_operands(self):
        with pytest.raises(ValueError):
            ir.cnot(1, 1)

    def test_negative_qubit_rejected(self):
        with pytest.raises(ValueError):
            ir.h(-1)

    def test_program_rejects_out_of_range_operand(self):
        with pytest.raises(ValueError):
            Program(1, (ir.cnot(0, 1),))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Gate("swap", (0, 1), None)


class TestProgramExtend:
    @given(seed=st.integers(0, 100_000), cut=st.integers(0, 30), measured=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_equals_the_program_built_whole(self, seed, cut, measured):
        whole = random_program(np.random.default_rng(seed), max_qubits=4, max_gates=30)
        head = Program(whole.num_qubits, whole.gates[:cut], measured)
        extended = head.extend(whole.gates[cut:])
        assert extended == Program(whole.num_qubits, whole.gates, measured)
        assert head.gates == whole.gates[:cut]

    def test_rejects_out_of_range_qubit_like_the_constructor(self):
        with pytest.raises(ValueError) as built:
            Program(2, (ir.h(0), ir.cnot(1, 2)))
        with pytest.raises(ValueError) as extended:
            Program(2, (ir.h(0),)).extend([ir.cnot(1, 2)])
        assert str(extended.value) == str(built.value)


class TestLowering:
    def test_native_program_unchanged(self):
        program = Program(2, (ir.h(0), ir.rz(0.3, 1), ir.cnot(0, 1), ir.rx(1.0, 0)))
        assert lower_to_native(program) == program

    def test_rzz_becomes_cnot_rz_cnot(self):
        theta = 0.7
        lowered = lower_to_native(Program(2, (ir.rzz(theta, 0, 1),)))
        kinds = [g.kind for g in lowered.gates]
        assert kinds == ["cnot", "rz", "cnot"]
        assert (
            phase_aligned_distance(
                unitary_of(lowered), gate_matrix(ir.rzz(theta, 0, 1))
            )
            < 1e-12
        )

    def test_rxx_pi_matches_exponential(self):
        lowered = lower_to_native(Program(2, (ir.rxx(math.pi, 0, 1),)))
        expected = matrix_exponential(-1j * math.pi / 2 * np.kron(SX, SX))
        assert phase_aligned_distance(unitary_of(lowered), expected) < 1e-10

    @given(theta=ANGLES, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_rule_preserves_unitary(self, theta, data):
        kind = data.draw(st.sampled_from(["x", "ry", "rxx", "ryy", "rzz"]))
        if kind == "x":
            program = Program(1, (ir.x(0),))
        elif kind == "ry":
            program = Program(1, (ir.ry(theta, 0),))
        else:
            program = Program(2, (getattr(ir, kind)(theta, 0, 1),))
        lowered = lower_to_native(program)
        native = {"rz", "rx", "h", "cnot"}
        assert all(g.kind in native for g in lowered.gates)
        assert phase_aligned_distance(unitary_of(lowered), unitary_of(program)) < 1e-10

    def test_fuzzed_programs_lower_equivalently(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            program = random_program(rng, max_qubits=4, max_gates=12)
            lowered = lower_to_native(program)
            assert phase_aligned_distance(
                unitary_of(lowered), unitary_of(program)
            ) < 1e-10

    def test_measured_flag_survives(self):
        program = Program(2, (ir.rzz(0.4, 0, 1),), measured=True)
        assert lower_to_native(program).measured


class TestUnitaryOf:
    def test_empty_program_is_identity(self):
        np.testing.assert_allclose(unitary_of(Program(1, ())), np.eye(2))

    def test_double_hadamard_is_identity(self):
        program = Program(1, (ir.h(0), ir.h(0)))
        assert np.abs(unitary_of(program) - np.eye(2)).max() < 1e-12

    def test_qubit_order_convention(self):
        # X on qubit 0 flips the most significant bit: |00> -> |10>
        state = unitary_of(Program(2, (ir.x(0),))) @ np.array([1, 0, 0, 0])
        np.testing.assert_allclose(state, [0, 0, 1, 0], atol=1e-14)

    def test_random_programs_are_unitary(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            program = random_program(rng, max_qubits=5, max_gates=10)
            u = unitary_of(program)
            dim = 2**program.num_qubits
            assert np.abs(u.conj().T @ u - np.eye(dim)).max() < 1e-10

    def test_too_many_qubits_guarded(self):
        with pytest.raises(TooLargeError):
            unitary_of(Program(11, ()))


class TestTextFormat:
    def test_single_gate_lines(self):
        text = export_text(Program(2, (ir.h(0), ir.cnot(0, 1))))
        lines = text.splitlines()
        assert "h q[0];" in lines
        assert "cx q[0],q[1];" in lines
        assert lines[0] == "OPENQASM 2.0;"
        assert "qreg q[2];" in lines

    def test_angle_precision_survives(self):
        theta = 0.1 + 1e-15
        program = Program(1, (ir.rz(theta, 0),))
        assert import_text(export_text(program)).gates[0].theta == theta

    def test_import_simple_body(self):
        program = import_text("OPENQASM 2.0;\nqreg q[1];\nh q[0];\n")
        assert program == Program(1, (ir.h(0),))

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(CircuitSyntaxError) as excinfo:
            import_text("OPENQASM 2.0;\nqreg q[1];\nhq[0]\n")
        assert excinfo.value.line == 3

    def test_unknown_gate_rejected(self):
        with pytest.raises(UnknownGateError):
            import_text("OPENQASM 2.0;\nqreg q[1];\nt q[0];\n")

    def test_qubit_out_of_range_rejected(self):
        with pytest.raises(QubitOutOfRangeError):
            import_text("OPENQASM 2.0;\nqreg q[1];\nh q[3];\n")

    def test_measured_program_round_trips(self):
        program = Program(2, (ir.h(0),), measured=True)
        text = export_text(program)
        assert "measure" in text
        assert import_text(text) == program

    def test_fuzzed_round_trip_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            program = random_program(rng, max_qubits=5, max_gates=20)
            text = export_text(program)
            assert import_text(text) == program
            assert export_text(import_text(text)) == text


class TestPhaseAlignment:
    def test_global_phase_ignored(self):
        u = unitary_of(Program(1, (ir.h(0), ir.rz(0.37, 0))))
        assert phase_aligned_distance(u, np.exp(1j * 1.2345) * u) < 1e-12

    def test_distinct_unitaries_detected(self):
        assert phase_aligned_distance(np.eye(2), SX) > 0.5
