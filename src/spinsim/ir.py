"""Gate-level intermediate representation for spin-chain circuits.

Conventions used everywhere in the package:

* qubit 0 is the first spin of the chain and the most significant bit of
  a basis-state index;
* RZ(theta) = exp(-i theta sigma_z / 2), RZZ(theta) = exp(-i theta
  sigma_z x sigma_z / 2), and likewise for the x and y axes;
* global phase is not tracked, so circuit equivalence is always checked
  up to a phase (see :func:`phase_aligned_distance`);
* the native target gate set is {rz, rx, h, cnot}; every Pauli rotation,
  lowered or in a QITE step, reaches it through :func:`pauli_rotation`.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CircuitSyntaxError,
    QubitOutOfRangeError,
    TooLargeError,
    UnknownGateError,
)
from .value import Value, set_field

GATE_ARITY = {
    "x": 1,
    "h": 1,
    "rx": 1,
    "ry": 1,
    "rz": 1,
    "cnot": 2,
    "rxx": 2,
    "ryy": 2,
    "rzz": 2,
}

PARAMETRIC_KINDS = frozenset({"rx", "ry", "rz", "rxx", "ryy", "rzz"})
NATIVE_KINDS = frozenset({"rz", "rx", "h", "cnot"})

UNITARY_QUBIT_LIMIT = 10


class Gate(Value):
    """One gate application: a kind, its operand qubits, optional angle."""

    def __init__(self, kind: str, qubits: tuple[int, ...], theta: float | None = None):
        arity = GATE_ARITY.get(kind)
        if arity is None:
            raise ValueError(f"unknown gate kind {kind!r}")
        if len(qubits) != arity:
            raise ValueError(f"{kind} takes {arity} operand(s), got {qubits!r}")
        if len(set(qubits)) != arity:
            raise ValueError(f"{kind} operands must be distinct, got {qubits!r}")
        if min(qubits) < 0:
            raise ValueError(f"negative qubit index in {qubits!r}")
        if kind in PARAMETRIC_KINDS:
            if theta is None or not math.isfinite(theta):
                raise ValueError(f"{kind} requires a finite angle, got {theta!r}")
        elif theta is not None:
            raise ValueError(f"{kind} takes no angle")
        set_field(self, "kind", kind)
        set_field(self, "qubits", qubits)
        set_field(self, "theta", theta)
        set_field(self, "_key", (kind, qubits, theta))


def x(q: int) -> Gate:
    return Gate("x", (q,))


def h(q: int) -> Gate:
    return Gate("h", (q,))


def rx(theta: float, q: int) -> Gate:
    return Gate("rx", (q,), float(theta))


def ry(theta: float, q: int) -> Gate:
    return Gate("ry", (q,), float(theta))


def rz(theta: float, q: int) -> Gate:
    return Gate("rz", (q,), float(theta))


def cnot(control: int, target: int) -> Gate:
    return Gate("cnot", (control, target))


def rxx(theta: float, a: int, b: int) -> Gate:
    return Gate("rxx", (a, b), float(theta))


def ryy(theta: float, a: int, b: int) -> Gate:
    return Gate("ryy", (a, b), float(theta))


def rzz(theta: float, a: int, b: int) -> Gate:
    return Gate("rzz", (a, b), float(theta))


class Program(Value):
    """An ordered gate list on a fixed-width qubit register.

    ``measured`` marks a terminal measurement of every qubit in the
    computational basis; it has no effect on :func:`unitary_of`.
    """

    def __init__(self, num_qubits: int, gates: tuple[Gate, ...] = (), measured: bool = False):
        if num_qubits < 1:
            raise ValueError("a program needs at least one qubit")
        for g in gates:
            if max(g.qubits) >= num_qubits:
                raise ValueError(f"gate {g} exceeds register width {num_qubits}")
        set_field(self, "num_qubits", num_qubits)
        set_field(self, "gates", gates)
        set_field(self, "measured", measured)
        set_field(self, "_key", (num_qubits, gates, measured))


_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

_AXIS_MATRIX = {"x": _PAULI_X, "y": _PAULI_Y, "z": _PAULI_Z}


def pauli_matrix(axis: str) -> np.ndarray:
    """2x2 Pauli matrix for axis 'x', 'y' or 'z'."""
    return _AXIS_MATRIX[axis].copy()


def gate_matrix(gate: Gate) -> np.ndarray:
    """The gate's 2x2 or 4x4 matrix.

    For two-qubit gates the first operand is the more significant index
    of the 4-dimensional space.  This table is the single source of
    gate semantics: ``backend.apply_gate`` multiplies it into the state
    and :func:`unitary_of` embeds it in the full space.
    """
    kind, theta = gate.kind, gate.theta
    if kind == "x":
        return _PAULI_X.copy()
    if kind == "h":
        return _HADAMARD.copy()
    if kind == "cnot":
        return _CNOT.copy()
    half = theta / 2.0
    c, s = math.cos(half), math.sin(half)
    if kind == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "ry":
        return np.array([[c, -s], [s, c]])
    if kind == "rz":
        return np.array([[c - 1j * s, 0], [0, c + 1j * s]])
    pauli = _AXIS_MATRIX[kind[1]]
    two_site = np.kron(pauli, pauli)
    return c * np.eye(4, dtype=complex) - 1j * s * two_site


def lower_to_native(program: Program) -> Program:
    """Rewrite every gate into the native set {rz, rx, h, cnot}.

    The rewrite preserves the program's unitary up to global phase.
    """
    out: list[Gate] = []
    for g in program.gates:
        out.extend(_lower_gate(g))
    return Program(program.num_qubits, tuple(out), program.measured)


def basis_change(axes: Iterable[tuple[int, str]], inverse: bool = False) -> list[Gate]:
    """Gates turning sigma_axis into sigma_z on each (qubit, axis) pair.

    H for x and RX(pi/2) for y, since sigma_y = RX(pi/2)^dag sigma_z
    RX(pi/2); z needs none.  ``inverse`` gives the gates turning back.
    """
    sign = -1.0 if inverse else 1.0
    gates = []
    for q, axis in axes:
        if axis == "x":
            gates.append(h(q))
        elif axis == "y":
            gates.append(rx(sign * math.pi / 2, q))
    return gates


def rotation_skeleton(axes: Sequence[tuple[int, str]]) -> tuple[list[Gate], int, list[Gate]]:
    """The angle-free parts of :func:`pauli_rotation`: gates before, RZ qubit, gates after.

    A basis change and a CNOT ladder over the (qubit, axis) pairs put the
    string's parity on the last qubit; the reversed ladder and the
    inverse basis change undo them.
    """
    qubits = [q for q, _ in axes]
    ladder = [cnot(a, b) for a, b in zip(qubits, qubits[1:])]
    return basis_change(axes) + ladder, qubits[-1], ladder[::-1] + basis_change(axes, inverse=True)


def pauli_rotation(axes: Sequence[tuple[int, str]], theta: float) -> list[Gate]:
    """Native gates of exp(-i theta sigma_P / 2), P the product of sigma_axis on each qubit."""
    before, qubit, after = rotation_skeleton(axes)
    return before + [rz(theta, qubit)] + after


_ROTATION_AXIS = {"ry": "y", "rxx": "x", "ryy": "y", "rzz": "z"}


def _lower_gate(g: Gate) -> list[Gate]:
    kind = g.kind
    if kind in NATIVE_KINDS:
        return [g]
    if kind == "x":
        # equals X up to a global phase of -i
        return [rx(math.pi, g.qubits[0])]
    if kind not in _ROTATION_AXIS:
        raise ValueError(f"no lowering rule for {kind}")
    return pauli_rotation([(q, _ROTATION_AXIS[kind]) for q in g.qubits], g.theta)


def embed(u: np.ndarray, qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """u acting on ``qubits`` of a ``num_qubits`` register, as a complex 2^n x 2^n matrix.

    The package's one embedding.  The first of the k qubits is the most
    significant bit of u's index; they may come in any order and lie
    anywhere.  Entry (r, c) is u at r's and c's bits on ``qubits`` where
    r and c agree on every other qubit, else 0.
    """
    full = np.zeros((2**num_qubits, 2**num_qubits), dtype=complex)
    _agreement(full, qubits)[...] = u.reshape((2,) * 2 * len(qubits))
    return full


def _agreement(full: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """The writeable ``np.einsum`` view of a 2^n x 2^n matrix at the entries (r, c) where
    r and c agree off ``qubits`` (a column axis there takes its row axis's label): one
    axis per other qubit, then r's and c's bits on ``qubits``."""
    n = len(full).bit_length() - 1
    columns = [n + q if q in qubits else q for q in range(n)]
    others = [q for q in range(n) if q not in qubits]
    return np.einsum(full.reshape((2,) * 2 * n), [*range(n), *columns],
                     [*others, *qubits, *(n + q for q in qubits)])


def unitary_of(program: Program) -> np.ndarray:
    """Dense 2^n x 2^n unitary of the program, gates applied left to right.

    Each gate matrix is placed by :func:`embed` and multiplied in,
    independently of ``backend.apply_gate``, so the two paths can be
    checked against each other.
    """
    n = program.num_qubits
    if n > UNITARY_QUBIT_LIMIT:
        raise TooLargeError(
            f"dense unitary limited to {UNITARY_QUBIT_LIMIT} qubits, got {n}"
        )
    total = np.eye(2**n, dtype=complex)
    for g in program.gates:
        total = embed(gate_matrix(g), g.qubits, n) @ total
    return total


def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """max-entry distance between u and exp(i phi) v, phi chosen so the
    largest-magnitude entry of u matches v in phase."""
    idx = np.unravel_index(np.argmax(np.abs(u)), u.shape)
    pivot = v[idx]
    if abs(pivot) == 0.0:
        return float(np.max(np.abs(u - v)))
    phase = u[idx] / pivot
    phase /= abs(phase)
    return float(np.max(np.abs(u - phase * v)))


_EXPORT_NAME = {"cnot": "cx"}
_IMPORT_NAME = {"cx": "cnot"}


def format_float(v: float) -> str:
    """``v`` to 17 significant digits, which read back as the same float."""
    return f"{v:.17g}"


def export_frame(num_qubits: int, measured: bool) -> tuple[str, str]:
    """The text before and after the gate lines of an exported program."""
    head = f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{num_qubits}];\n'
    if measured:
        return head + f"creg c[{num_qubits}];\n", "measure q -> c;\n"
    return head, ""


def export_line(gate: Gate) -> str:
    """One gate's line of exported text, newline included."""
    name = _EXPORT_NAME.get(gate.kind, gate.kind)
    operands = ",".join(f"q[{q}]" for q in gate.qubits)
    if gate.kind in PARAMETRIC_KINDS:
        return f"{name}({format_float(gate.theta)}) {operands};\n"
    return f"{name} {operands};\n"


def export_text(program: Program) -> str:
    """Serialize to the OpenQASM-2.0-style text dialect."""
    head, tail = export_frame(program.num_qubits, program.measured)
    return head + "".join(map(export_line, program.gates)) + tail


_QREG_RE = re.compile(r"^qreg\s+q\[(\d+)\]\s*;$")
_CREG_RE = re.compile(r"^creg\s+c\[(\d+)\]\s*;$")
_GATE_RE = re.compile(
    r"^(?P<name>[a-z]+)\s*(?:\((?P<theta>[^()]+)\))?\s*"
    r"q\[(?P<a>\d+)\]\s*(?:,\s*q\[(?P<b>\d+)\])?\s*;$"
)
_MEASURE_RE = re.compile(r"^measure\s+q\s*->\s*c\s*;$")


def import_text(text: str) -> Program:
    """Parse the text dialect back into a :class:`Program`.

    Raises :class:`CircuitSyntaxError` (with a line number),
    :class:`UnknownGateError` or :class:`QubitOutOfRangeError` on bad
    input.
    """
    num_qubits: int | None = None
    gates: list[Gate] = []
    measured = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if line == "OPENQASM 2.0;" or line.startswith("include "):
            continue
        m = _QREG_RE.match(line)
        if m:
            if num_qubits is not None:
                raise CircuitSyntaxError("duplicate qreg declaration", lineno)
            num_qubits = int(m.group(1))
            if num_qubits < 1:
                raise CircuitSyntaxError("register must hold at least one qubit", lineno)
            continue
        if _CREG_RE.match(line):
            continue
        if _MEASURE_RE.match(line):
            measured = True
            continue
        if num_qubits is None:
            raise CircuitSyntaxError("gate before qreg declaration", lineno)
        if measured:
            raise CircuitSyntaxError("gate after terminal measurement", lineno)
        m = _GATE_RE.match(line)
        if m is None:
            raise CircuitSyntaxError(f"unparseable statement {line!r}", lineno)
        name = m.group("name")
        kind = _IMPORT_NAME.get(name, name)
        if kind not in GATE_ARITY:
            raise UnknownGateError(f"unknown gate {name!r}", lineno)
        operands = [int(m.group("a"))]
        if m.group("b") is not None:
            operands.append(int(m.group("b")))
        if len(operands) != GATE_ARITY[kind]:
            raise CircuitSyntaxError(
                f"{name} takes {GATE_ARITY[kind]} operand(s)", lineno
            )
        for q in operands:
            if q >= num_qubits:
                raise QubitOutOfRangeError(
                    f"q[{q}] exceeds register of size {num_qubits}", lineno
                )
        theta_text = m.group("theta")
        if kind in PARAMETRIC_KINDS:
            if theta_text is None:
                raise CircuitSyntaxError(f"{name} requires an angle", lineno)
            try:
                theta = float(theta_text)
            except ValueError:
                raise CircuitSyntaxError(
                    f"bad angle {theta_text!r}", lineno
                ) from None
            if not math.isfinite(theta):
                raise CircuitSyntaxError(f"non-finite angle {theta_text!r}", lineno)
            gates.append(Gate(kind, tuple(operands), theta))
        else:
            if theta_text is not None:
                raise CircuitSyntaxError(f"{name} takes no angle", lineno)
            gates.append(Gate(kind, tuple(operands)))
    if num_qubits is None:
        raise CircuitSyntaxError("missing qreg declaration")
    return Program(num_qubits, tuple(gates), measured)
