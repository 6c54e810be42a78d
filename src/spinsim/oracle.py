"""Exact small-system references the circuit pipeline is checked against.

Everything here goes through dense diagonalization, deliberately
avoiding the gate kernels, so agreement between the two routes is a
meaningful test.  The evolution references take a whole grid of times
(or betas) per call, so a static Hamiltonian is diagonalized once per
series.
"""

from __future__ import annotations

from typing import Sequence

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
    times: Sequence[float],
    initial: Statevector,
    substeps: int = 1,
) -> list[Statevector]:
    """The state at each of ``times``, exactly evolved from ``initial`` at t = 0.

    Time-independent Hamiltonians are diagonalized once and each time
    gets its phases in closed form; t = 0 gives a copy of ``initial``.
    Time-dependent ones carry one state through the times in order,
    with a piecewise-constant midpoint rule of ``substeps`` slices per
    interval from the previous time (0 for the first); choosing
    substeps well above the Trotter step count under test (10x is a
    good default) keeps the reference error negligible next to the
    error being measured.
    """
    n = hamiltonian.num_spins
    _check_size(n, EVOLVE_QUBIT_LIMIT)
    if initial.num_qubits != n:
        raise ValueError("initial state width does not match the Hamiltonian")
    if substeps < 1:
        raise ValueError(f"substeps must be positive, got {substeps}")
    amps = initial.amplitudes.astype(complex, copy=True)
    if not hamiltonian.is_time_dependent:
        energies, vectors = np.linalg.eigh(dense_matrix(snapshot(hamiltonian, 0.0), n))
        overlaps = vectors.conj().T @ amps
        states = []
        for t in times:
            if t != 0.0:
                phases = np.exp(-1j * energies * t)
                states.append(Statevector(n, vectors @ (phases * overlaps)))
            else:
                states.append(Statevector(n, amps.copy()))
        return states
    states = []
    start = 0.0
    for t in times:
        if t != start:
            dt = (t - start) / substeps
            for j in range(substeps):
                matrix = dense_matrix(snapshot(hamiltonian, start + (j + 0.5) * dt), n)
                amps = _propagate(matrix, dt, amps)
        states.append(Statevector(n, amps.copy()))
        start = t
    return states


def _propagate(matrix: np.ndarray, dt: float, amps: np.ndarray) -> np.ndarray:
    energies, vectors = np.linalg.eigh(matrix)
    phases = np.exp(-1j * energies * dt)
    return vectors @ (phases * (vectors.conj().T @ amps))


def evolve_imaginary_exact(
    terms: list[PauliTerm], betas: Sequence[float], initial: Statevector
) -> list[tuple[Statevector, float]]:
    """Normalized e^(-beta H)|initial> and its energy expectation for each beta.

    H is diagonalized once for all betas.  The spectrum is shifted by
    the ground energy before exponentiating so large beta neither
    overflows nor drowns a surviving component.  Raises
    :class:`ZeroOverlapError` when nothing of the initial state
    survives the decay numerically.
    """
    n = initial.num_qubits
    _check_size(n, EVOLVE_QUBIT_LIMIT)
    for beta in betas:
        if beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {beta}")
    matrix = dense_matrix(terms, n)
    energies, vectors = np.linalg.eigh(matrix)
    overlaps = vectors.conj().T @ initial.amplitudes
    results = []
    for beta in betas:
        weights = np.exp(-beta * (energies - energies[0]))
        components = weights * overlaps
        norm = float(np.linalg.norm(components))
        if norm <= _NORM_FLOOR:
            raise ZeroOverlapError(
                "initial state has no numerically surviving overlap at this beta"
            )
        components /= norm
        amps = vectors @ components
        energy = float(np.vdot(amps, matrix @ amps).real)
        results.append((Statevector(n, amps), energy))
    return results
