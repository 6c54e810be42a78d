"""Shared fuzzing and reference utilities for the test suite."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from spinsim import ir
from spinsim.backend import Statevector, _z_parity, apply_gate, product_state
from spinsim.config import (
    ConstantSchedule,
    GaussianPulseSchedule,
    LinearRampSchedule,
    RandomUniformSchedule,
    SimulationConfig,
)
from spinsim.hamiltonian import snapshot
from spinsim.ir import Program

GATE_POOL = ("x", "h", "rx", "ry", "rz", "cnot", "rxx", "ryy", "rzz")


def random_gate(rng: np.random.Generator, num_qubits: int) -> ir.Gate:
    kind = GATE_POOL[rng.integers(len(GATE_POOL))]
    theta = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
    if kind in ("x", "h", "rx", "ry", "rz"):
        q = int(rng.integers(num_qubits))
        if kind == "x":
            return ir.x(q)
        if kind == "h":
            return ir.h(q)
        return getattr(ir, kind)(theta, q)
    a, b = rng.choice(num_qubits, size=2, replace=False)
    if kind == "cnot":
        return ir.cnot(int(a), int(b))
    return getattr(ir, kind)(theta, int(a), int(b))


def random_program(
    rng: np.random.Generator,
    max_qubits: int = 5,
    max_gates: int = 30,
    min_qubits: int = 1,
) -> Program:
    num_qubits = int(rng.integers(min_qubits, max_qubits + 1))
    length = int(rng.integers(0, max_gates + 1))
    if num_qubits == 1:
        single_only = [g for g in GATE_POOL if g not in ("cnot", "rxx", "ryy", "rzz")]
        gates = []
        for _ in range(length):
            kind = single_only[rng.integers(len(single_only))]
            if kind == "x":
                gates.append(ir.x(0))
            elif kind == "h":
                gates.append(ir.h(0))
            else:
                theta = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
                gates.append(getattr(ir, kind)(theta, 0))
        return Program(1, tuple(gates))
    gates = tuple(random_gate(rng, num_qubits) for _ in range(length))
    return Program(num_qubits, gates)


# angles that merge into whole and half turns, so that rotations cancel and
# full turns drop, besides one that merges into an ordinary rotation
SEAM_ANGLES = (0.3, -0.3, math.pi / 2, -math.pi / 2, math.pi, 2.0 * math.pi)


@st.composite
def seam_gates(draw, num_qubits: int) -> ir.Gate:
    """A gate of any kind on few wires with few angles, so that consecutive
    gates often meet, merge and cancel."""
    kind = draw(st.sampled_from(sorted(ir.GATE_ARITY)))
    qubits = draw(st.permutations(range(num_qubits)))[: ir.GATE_ARITY[kind]]
    theta = draw(st.sampled_from(SEAM_ANGLES)) if kind in ir.PARAMETRIC_KINDS else None
    return ir.Gate(kind, tuple(qubits), theta)


@st.composite
def cut_programs(draw, num_qubits: int, max_gates: int = 40) -> list[tuple[ir.Gate, ...]]:
    """A random gate list cut at random seams into consecutive pieces,
    empty pieces included."""
    gates = draw(st.lists(seam_gates(num_qubits), max_size=max_gates))
    cuts = draw(st.lists(st.integers(0, len(gates)), max_size=6))
    seams = [0, *sorted(cuts), len(gates)]
    return [tuple(gates[a:b]) for a, b in zip(seams, seams[1:])]


def run_gates(program: Program, initial: Statevector | None = None) -> Statevector:
    """The program applied gate by gate to a copy of ``initial`` (|0...0> if None).

    The reference for ``backend.run_statevector``, which fuses wide
    states' programs into blocks: one ``backend.apply_gate`` per gate,
    with no plan in between.
    """
    n = program.num_qubits
    start = product_state(("up",) * n) if initial is None else initial
    amps = start.amplitudes.astype(complex, copy=True)
    for gate in program.gates:
        apply_gate(amps, gate, n)
    return Statevector(n, amps)


def random_state(rng: np.random.Generator, num_qubits: int) -> Statevector:
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return Statevector(num_qubits, amps / np.linalg.norm(amps))


def random_schedule(rng: np.random.Generator):
    kind = rng.integers(5)
    value = lambda: float(np.round(rng.uniform(-3, 3), 6))
    if kind == 0:
        return ConstantSchedule(value())
    if kind == 1:
        count = int(rng.integers(1, 5))
        return ConstantSchedule(tuple(value() for _ in range(count)))
    if kind == 2:
        return LinearRampSchedule(value(), value())
    if kind == 3:
        return GaussianPulseSchedule(value(), abs(value()), abs(value()) + 0.1)
    seed = int(rng.integers(1000)) if rng.integers(2) else None
    return RandomUniformSchedule(-abs(value()), abs(value()), seed)


def _fit_list_length(sched, count: int):
    """Per-index lists must match the bond or site count exactly."""
    if isinstance(sched, ConstantSchedule) and isinstance(sched.values, tuple):
        if count < 1:
            return ConstantSchedule(sched.values[0])
        return ConstantSchedule(tuple(float(v) for v in np.resize(sched.values, count)))
    return sched


def random_config(rng: np.random.Generator) -> SimulationConfig:
    num_spins = int(rng.integers(1, 7))
    mode = ("real-time", "imaginary-time")[rng.integers(2)]
    schedules = {}
    for field in ("j_x", "j_y", "j_z"):
        if rng.integers(2):
            schedules[field] = _fit_list_length(random_schedule(rng), num_spins - 1)
    for field in ("h_x", "h_y", "h_z"):
        if rng.integers(2):
            schedules[field] = _fit_list_length(random_schedule(rng), num_spins)
    if mode == "imaginary-time":
        # imaginary-time evolution only accepts static Hamiltonians
        schedules = {
            k: v for k, v in schedules.items() if not v.is_time_dependent
        }
    spins = tuple(rng.choice(["up", "down"], size=num_spins))
    return SimulationConfig(
        num_spins=num_spins,
        mode=mode,
        total_time=float(np.round(rng.uniform(0.1, 4.0), 6)),
        num_steps=int(rng.integers(1, 40)),
        initial_state=tuple(str(s) for s in spins),
        backend_mode=("QS", "export-only")[rng.integers(2)],
        shots=int(rng.choice([0, 0, 100, 4096])),
        observable=(
            "site-magnetization(x)",
            "site-magnetization(y)",
            "site-magnetization(z)",
            "excitation-displacement",
            "energy",
        )[rng.integers(5)],
        optimizer_level=("none", "peephole")[rng.integers(2)],
        constant_depth=bool(rng.integers(2)),
        rng_seed=int(rng.integers(1 << 16)) if rng.integers(2) else None,
        output_dir=("results", "out/run_7", "results")[rng.integers(3)],
        **schedules,
    )


def embedded_pauli(factors, num_spins: int) -> np.ndarray:
    """Dense matrix of a Pauli string under the site-1-most-significant order."""
    lookup = dict(factors)
    out = np.array([[1.0]], dtype=complex)
    for site in range(1, num_spins + 1):
        axis = lookup.get(site)
        block = ir.pauli_matrix(axis) if axis else np.eye(2, dtype=complex)
        out = np.kron(out, block)
    return out


def matrix_exponential(matrix: np.ndarray) -> np.ndarray:
    """exp(M) for a normal matrix via eigendecomposition."""
    hermitian = np.allclose(matrix, matrix.conj().T, atol=1e-12)
    if hermitian:
        w, v = np.linalg.eigh(matrix)
    else:
        w, v = np.linalg.eig(matrix)
    return (v * np.exp(w)) @ np.linalg.inv(v)


def product_formula_states(hamiltonian, total_time: float, num_steps: int, initial_state):
    """Dense first-order product formula: the state after k steps, k = 0..num_steps.

    Each step exponentiates every snapshot term at the step midpoint
    (j - 1/2) dt, in snapshot order, as a dense matrix; no gate routine
    or circuit is involved.
    """
    n = hamiltonian.num_spins
    state = np.zeros(2**n, dtype=complex)
    state[int("".join("1" if s == "down" else "0" for s in initial_state), 2)] = 1.0
    states = [state]
    dt = total_time / num_steps
    for j in range(1, num_steps + 1):
        for term in snapshot(hamiltonian, (j - 0.5) * dt):
            generator = -1j * term.coefficient * dt * embedded_pauli(term.factors, n)
            state = matrix_exponential(generator) @ state
        states.append(state)
    return states


def dense_expectation(state: np.ndarray, terms, num_spins: int) -> float:
    """sum_i c_i <state| P_i |state> with every string as a dense matrix."""
    return sum(
        term.coefficient * np.vdot(state, embedded_pauli(term.factors, num_spins) @ state).real
        for term in terms
    )


def apply_pauli(amps: np.ndarray, masks: tuple[int, int], num_qubits: int) -> np.ndarray:
    """sigma|amps> for the Pauli string with (x, z) masks, as a contiguous array.

    The reference action: sigma = (-i)^|x & z| Z^z X^x, by flipping the
    x axes of the (2,)*n view, one copy, negating the z axes' 1 halves
    and one phase multiply.  Only permutations and products with +-1
    and +-i happen, so the result is exact.
    """
    x, z = masks
    flipped = tuple(q for q in range(num_qubits) if x >> (num_qubits - 1 - q) & 1)
    out = np.flip(amps.reshape((2,) * num_qubits), flipped).copy()
    for q in range(num_qubits):
        if z >> (num_qubits - 1 - q) & 1:
            out[(slice(None),) * q + (1,)] *= -1
    power = (x & z).bit_count() % 4
    if power:
        out *= (1, -1j, -1, 1j)[power]
    return out.reshape(-1)


def unsliced_fold(states, supports) -> np.ndarray:
    """The fold read of z strings from one whole |amplitude|^2 row per state.

    The reference for ``backend._fold_reads``, which forms the rows in
    slices: the strings (``supports``, sorted by first qubit) are read in
    turn, and as the first qubit advances the qubits before it are summed
    out of the rows in place, then ``backend._z_parity`` signs the rest.
    """
    n = states[0].num_qubits
    tail = np.empty((len(states), 2**n))
    for row, state in zip(tail, states):
        np.abs(state.amplitudes, out=row)
    np.square(tail, out=tail)
    values = np.empty((len(states), len(supports)))
    head = 0
    for i, support in enumerate(supports):
        while head < support[0]:
            half = tail.shape[1] // 2
            tail = np.add(tail[:, :half], tail[:, half:], out=tail[:, :half])
            head += 1
        values[:, i] = _z_parity(tail, [q - head for q in support])
    return values
