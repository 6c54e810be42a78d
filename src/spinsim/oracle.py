"""Exact small-system references the circuit pipeline is checked against.

Everything here goes through dense diagonalization, deliberately
avoiding the gate kernels, so agreement between the two routes is a
meaningful test.
"""

from __future__ import annotations

import numpy as np

from .backend import Statevector
from .errors import TooLargeError, ZeroOverlapError
from .hamiltonian import HeisenbergHamiltonian, PauliTerm, dense_matrix, snapshot

GROUND_STATE_QUBIT_LIMIT = 10
EVOLVE_QUBIT_LIMIT = 10

_NORM_FLOOR = 1e-300


def _check_size(num_spins: int, limit: int) -> None:
    if num_spins > limit:
        raise TooLargeError(f"exact reference limited to {limit} spins, got {num_spins}")


def ground_state(terms: list[PauliTerm], num_spins: int) -> tuple[float, Statevector]:
    """Lowest eigenvalue and eigenvector of a Pauli-term sum."""
    _check_size(num_spins, GROUND_STATE_QUBIT_LIMIT)
    matrix = dense_matrix(terms, num_spins)
    energies, vectors = np.linalg.eigh(matrix)
    return float(energies[0]), Statevector(num_spins, vectors[:, 0].astype(complex))


def evolve_exact(
    hamiltonian: HeisenbergHamiltonian,
    t: float,
    initial: Statevector,
    substeps: int = 1,
    start: float = 0.0,
) -> Statevector:
    """State at time t, exactly evolved from ``initial`` at time ``start``.

    Time-independent Hamiltonians are integrated in closed form via
    eigendecomposition.  Time-dependent ones use a piecewise-constant
    midpoint rule with ``substeps`` slices of [start, t]; choosing
    substeps well above the Trotter step count under test (10x is a
    good default) keeps the reference error negligible next to the
    error being measured.
    """
    n = hamiltonian.num_spins
    _check_size(n, EVOLVE_QUBIT_LIMIT)
    if initial.num_qubits != n:
        raise ValueError("initial state width does not match the Hamiltonian")
    amps = initial.amplitudes.astype(complex, copy=True)
    if t == start:
        return Statevector(n, amps)
    if not hamiltonian.is_time_dependent:
        matrix = dense_matrix(snapshot(hamiltonian, 0.0), n)
        return Statevector(n, _propagate(matrix, t - start, amps))
    if substeps < 1:
        raise ValueError(f"substeps must be positive, got {substeps}")
    dt = (t - start) / substeps
    for j in range(substeps):
        midpoint = start + (j + 0.5) * dt
        matrix = dense_matrix(snapshot(hamiltonian, midpoint), n)
        amps = _propagate(matrix, dt, amps)
    return Statevector(n, amps)


def _propagate(matrix: np.ndarray, dt: float, amps: np.ndarray) -> np.ndarray:
    energies, vectors = np.linalg.eigh(matrix)
    phases = np.exp(-1j * energies * dt)
    return vectors @ (phases * (vectors.conj().T @ amps))


def evolve_imaginary_exact(
    terms: list[PauliTerm], beta: float, initial: Statevector
) -> tuple[Statevector, float]:
    """Normalized e^(-beta H)|initial> and its energy expectation.

    The spectrum is shifted by the ground energy before exponentiating
    so large beta neither overflows nor drowns a surviving component.
    Raises :class:`ZeroOverlapError` when nothing of the initial state
    survives the decay numerically.
    """
    n = initial.num_qubits
    _check_size(n, EVOLVE_QUBIT_LIMIT)
    if beta < 0.0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    matrix = dense_matrix(terms, n)
    energies, vectors = np.linalg.eigh(matrix)
    weights = np.exp(-beta * (energies - energies[0]))
    components = weights * (vectors.conj().T @ initial.amplitudes)
    norm = float(np.linalg.norm(components))
    if norm <= _NORM_FLOOR:
        raise ZeroOverlapError(
            "initial state has no numerically surviving overlap at this beta"
        )
    components /= norm
    amps = vectors @ components
    energy = float(np.vdot(amps, matrix @ amps).real)
    return Statevector(n, amps), energy
