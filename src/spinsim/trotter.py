"""First-order product-formula circuits for real-time evolution.

A step from t to t+dt applies, per Hamiltonian term c, the rotation
exp(-i c dt P) with all coefficients sampled at the step midpoint.
:func:`step_blocks` yields the compiled block of every step; the
simulation (:func:`evolve_series`) and the command line's circuit
export both consume it, so neither rebuilds a circuit from t=0.
Higher-order splittings are an extension point: add an alternative
step builder here and dispatch on an order parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from . import ir
from .backend import Statevector, run_statevector
from .hamiltonian import HeisenbergHamiltonian, snapshot
from .ir import Gate, Program


@dataclass(frozen=True)
class TrotterParams:
    """Step-count discretization of t_max into num_steps equal slices."""

    total_time: float
    num_steps: int

    def __post_init__(self):
        if self.total_time < 0.0:
            raise ValueError(f"total_time must be >= 0, got {self.total_time}")
        if self.num_steps < 1:
            raise ValueError(f"num_steps must be positive, got {self.num_steps}")

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
    """Preparation plus ``num_steps`` uncompiled Trotter steps as one circuit from t=0.

    The whole-circuit builder for library use; the command line driver
    carries its exported circuits forward from :func:`step_blocks`.
    """
    if not 0 <= num_steps <= params.num_steps:
        raise ValueError(
            f"num_steps must lie in [0, {params.num_steps}], got {num_steps}"
        )
    if len(initial_state) != hamiltonian.num_spins:
        raise ValueError("initial state length does not match the chain")
    gates = list(state_preparation_gates(initial_state))
    dt = params.dt
    for j in range(1, num_steps + 1):
        gates.extend(trotter_step(hamiltonian, step_midpoint(j, dt), dt).gates)
    return Program(hamiltonian.num_spins, tuple(gates))


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
    block = None
    for j in range(1, params.num_steps + 1):
        if block is None or hamiltonian.is_time_dependent:
            block = compile_block(trotter_step(hamiltonian, step_midpoint(j, dt), dt))
        yield block


def evolve_series(
    hamiltonian: HeisenbergHamiltonian,
    params: TrotterParams,
    initial_state: Sequence[str],
    compile_block: Callable[[Program], Program],
) -> Iterator[tuple[float, Statevector]]:
    """Yield (t_k, state after k steps) for k = 0..params.num_steps.

    One state starts from the product state and advances by the blocks
    of :func:`step_blocks`, so the same compiled block that is
    simulated can be appended to an exported circuit.  State k equals
    that of the preparation followed by the first k blocks.
    """
    if len(initial_state) != hamiltonian.num_spins:
        raise ValueError("initial state length does not match the chain")
    preparation = Program(hamiltonian.num_spins, state_preparation_gates(initial_state))
    state = run_statevector(preparation)
    yield 0.0, state
    dt = params.dt
    for j, block in enumerate(step_blocks(hamiltonian, params, compile_block), start=1):
        state = run_statevector(block, initial=state)
        yield j * dt, state
