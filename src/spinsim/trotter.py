"""First-order product-formula circuits for real-time evolution.

A step from t to t+dt applies, per Hamiltonian term c, the rotation
exp(-i c dt P) with all coefficients sampled at the step midpoint.
:func:`step_blocks` yields the compiled block of every step; the
command line lists them once, and the simulation
(:func:`evolve_series`) and the circuit export both read that list,
so neither rebuilds a circuit from t=0.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Sequence

from . import ir
from .backend import Statevector, fuse, product_state, run_fused
from .hamiltonian import HeisenbergHamiltonian, snapshot
from .ir import Gate, Program
from .value import Value, set_fields


class TrotterParams(Value):
    """Step-count discretization of t_max into num_steps equal slices."""

    def __init__(self, total_time: float, num_steps: int):
        if total_time < 0.0:
            raise ValueError(f"total_time must be >= 0, got {total_time}")
        if num_steps < 1:
            raise ValueError(f"num_steps must be positive, got {num_steps}")
        set_fields(self, total_time, num_steps)

    @property
    def dt(self) -> float:
        return self.total_time / self.num_steps


_BOND_GATE = {"x": ir.rxx, "y": ir.ryy, "z": ir.rzz}
_FIELD_GATE = {"x": ir.rx, "y": ir.ry, "z": ir.rz}


def trotter_step(hamiltonian: HeisenbergHamiltonian, t_eval: float, dt: float) -> Program:
    """One first-order step, coefficients frozen at time t_eval.

    Terms are emitted in the snapshot order: x bonds left to right,
    then y and z bonds, then x, y, z fields.  A term c sigma sigma
    becomes a two-site rotation with angle 2 c dt, a field term a
    single-site rotation with the same angle.
    """
    gates: list[Gate] = []
    for term in snapshot(hamiltonian, t_eval):
        angle = 2.0 * term.coefficient * dt
        sites = [s for s, _ in term.factors]
        axis = term.factors[0][1]
        if len(sites) == 2:
            gates.append(_BOND_GATE[axis](angle, sites[0] - 1, sites[1] - 1))
        else:
            gates.append(_FIELD_GATE[axis](angle, sites[0] - 1))
    return Program(hamiltonian.num_spins, tuple(gates))


def step_midpoint(j: int, dt: float) -> float:
    """Step j (1-based) samples coefficients at (j - 1/2) dt, first-order accurate."""
    return (j - 0.5) * dt


def state_preparation_gates(initial_state: Sequence[str]) -> tuple[Gate, ...]:
    """X gates flipping every 'down' site of a product state."""
    return tuple(ir.x(q) for q, spin in enumerate(initial_state) if spin == "down")


def build_evolution_program(
    hamiltonian: HeisenbergHamiltonian,
    params: TrotterParams,
    num_steps: int,
    initial_state: Sequence[str],
) -> Program:
    """Preparation plus the first ``num_steps`` uncompiled blocks of :func:`step_blocks`.

    The whole-circuit builder from t=0 for library use; the command line
    driver carries its exported circuits forward from :func:`step_blocks`.
    """
    if not 0 <= num_steps <= params.num_steps:
        raise ValueError(
            f"num_steps must lie in [0, {params.num_steps}], got {num_steps}"
        )
    if len(initial_state) != hamiltonian.num_spins:
        raise ValueError("initial state length does not match the chain")
    blocks = itertools.islice(step_blocks(hamiltonian, params, lambda p: p), num_steps)
    steps = (g for block in blocks for g in block.gates)
    return Program(hamiltonian.num_spins, (*state_preparation_gates(initial_state), *steps))


def step_blocks(
    hamiltonian: HeisenbergHamiltonian,
    params: TrotterParams,
    compile_block: Callable[[Program], Program],
) -> Iterator[Program]:
    """Yield the compiled step block of step j for j = 1..params.num_steps.

    ``compile_block`` (e.g. lowering) runs once per distinct block: once
    for a static Hamiltonian, whose block is then yielded every step,
    and once per midpoint otherwise.
    """
    dt = params.dt
    time_dependent = hamiltonian.is_time_dependent
    block = None
    for j in range(1, params.num_steps + 1):
        if block is None or time_dependent:
            block = compile_block(trotter_step(hamiltonian, step_midpoint(j, dt), dt))
        yield block


def evolve_series(
    initial_state: Sequence[str], blocks: Iterable[Program]
) -> Iterator[Statevector]:
    """Yield the product state, then the state after each of ``blocks``.

    The product state is built directly (:func:`backend.product_state`),
    with the amplitudes that the X gates of :func:`state_preparation_gates`
    give on |0...0>.  Each distinct block (typically from
    :func:`step_blocks`, so the block simulated is the one exported) is
    fused once (:func:`backend.fuse`) into dense unitaries on windows of
    at most FUSED_QUBITS qubits, one per window (about one per two qubits
    of the chain for a step with xx, yy and zz bonds) and one tail block
    that ends at the last qubit, and the state advances by those.  The
    first step starts from the product state's basis index (its
    ``basis``), so each of its blocks multiplies only the amplitudes that
    earlier blocks can have made nonzero; the states it yields carry no
    index.  State k equals that of the preparation followed by the first
    k blocks, up to rounding.
    """
    n = len(initial_state)
    state = product_state(initial_state)
    yield state
    fused = plan = None
    for block in blocks:
        if block.num_qubits != n:
            raise ValueError("step block width does not match the chain")
        if block is not fused:
            fused, plan = block, fuse(block)
        state = run_fused(plan, state, basis=state.basis)
        yield state
