"""Local statevector execution, expectation values and sampled estimates.

Basis-state indices follow the package-wide convention: qubit 0 (spin
site 1) is the most significant bit, so the bitstring for index ``i``
on ``n`` qubits is ``format(i, f"0{n}b")`` with character j describing
qubit j ('1' means spin down).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import TooLargeError
from .hamiltonian import PauliTerm
from .ir import Gate, Program, basis_change, gate_matrix

STATEVECTOR_QUBIT_LIMIT = 24


@dataclass(frozen=True)
class Statevector:
    """Amplitudes of an n-qubit pure state, unit norm up to float error."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.amplitudes.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes, got {self.amplitudes.shape}"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def zero_state(num_qubits: int) -> np.ndarray:
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[0] = 1.0
    return amps


def product_state(spins: Sequence[str]) -> Statevector:
    """|up...> style product state; ``spins`` holds 'up'/'down' per site."""
    n = len(spins)
    index = 0
    for spin in spins:
        if spin not in ("up", "down"):
            raise ValueError(f"spins must be 'up' or 'down', got {spin!r}")
        index = (index << 1) | (1 if spin == "down" else 0)
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return Statevector(n, amps)


def apply_gate(amps: np.ndarray, gate: Gate, num_qubits: int) -> np.ndarray:
    """Apply one gate to an amplitude vector, returning the new vector.

    The gate's matrix, as a (2,)*2k tensor, is contracted with its k
    operand axes of the (2,)*n view; no 2^n x 2^n matrix is ever formed.
    """
    k = len(gate.qubits)
    m = gate_matrix(gate).reshape((2,) * 2 * k)
    t = np.tensordot(m, amps.reshape((2,) * num_qubits), axes=(range(k, 2 * k), gate.qubits))
    return np.moveaxis(t, range(k), gate.qubits).reshape(-1)


def run_statevector(program: Program, initial: Statevector | None = None) -> Statevector:
    """Execute a program on |0...0> (or a supplied initial state)."""
    n = program.num_qubits
    if n > STATEVECTOR_QUBIT_LIMIT:
        raise TooLargeError(
            f"statevector simulation limited to {STATEVECTOR_QUBIT_LIMIT} qubits, got {n}"
        )
    if initial is None:
        amps = zero_state(n)
    else:
        if initial.num_qubits != n:
            raise ValueError("initial state width does not match the program")
        amps = initial.amplitudes.astype(complex, copy=True)
    for gate in program.gates:
        amps = apply_gate(amps, gate, n)
    return Statevector(n, amps)


def pauli_masks(factors: Iterable[tuple[int, str]], num_qubits: int) -> tuple[int, int]:
    """(x, z) bit masks of the Pauli string sigma = i^|x & z| X^x Z^z.

    Site s is bit n - s (site 1 is the most significant bit, as in
    basis-state indices); x and y set the x bit, y and z the z bit.
    """
    x = z = 0
    for site, axis in factors:
        bit = 1 << (num_qubits - site)
        if axis in ("x", "y"):
            x |= bit
        if axis in ("y", "z"):
            z |= bit
    return x, z


def pauli_factors(masks: tuple[int, int], num_qubits: int) -> tuple[tuple[int, str], ...]:
    """The (site, axis) factors of a mask pair, in increasing site order."""
    x, z = masks
    factors = []
    for site in range(1, num_qubits + 1):
        shift = num_qubits - site
        code = (x >> shift & 1) << 1 | (z >> shift & 1)
        if code:
            factors.append((site, " zxy"[code]))
    return tuple(factors)


def apply_pauli(amps: np.ndarray, masks: tuple[int, int], num_qubits: int) -> np.ndarray:
    """sigma|amps> for the Pauli string with (x, z) masks, as a contiguous array.

    sigma = (-i)^|x & z| Z^z X^x: flip the x axes of the (2,)*n view,
    copy once, then negate the z axes' 1 halves and apply the phase in
    place.  Only permutations and products with +-1 and +-i happen, so
    the result is exact.
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


def expectation(state: Statevector, terms: Sequence[PauliTerm]) -> float:
    """<state| sum of terms |state>, exactly, as a real number.

    The value of a Hermitian observable; any imaginary residue from
    float arithmetic is discarded.
    """
    amps, n = state.amplitudes, state.num_qubits
    total = 0.0 + 0.0j
    for term in terms:
        sigma_amps = apply_pauli(amps, pauli_masks(term.factors, n), n)
        total += term.coefficient * np.vdot(amps, sigma_amps)
    return float(total.real)


def sample_counts(
    state: Statevector, shots: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Occurrences per basis index in ``shots`` draws from |amplitude|^2.

    ``seed`` is an int or a generator (consumed); equal seeds or equal
    generator states give identical counts.
    """
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    probs = np.abs(state.amplitudes) ** 2
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    return np.random.default_rng(seed).multinomial(shots, probs)


def _measurement_groups(
    terms: Sequence[PauliTerm],
) -> list[tuple[dict[int, str], list[PauliTerm]]]:
    """Non-constant terms grouped so that one basis measures each group.

    A term joins the first group whose per-site axes agree with its own
    on every site both touch, else it starts a new group.
    """
    groups: list[tuple[dict[int, str], list[PauliTerm]]] = []
    for term in terms:
        if not term.factors:
            continue
        for axes, members in groups:
            if all(axes.get(site, axis) == axis for site, axis in term.factors):
                axes.update(term.factors)
                members.append(term)
                break
        else:
            groups.append((dict(term.factors), [term]))
    return groups


def estimate_with_sigma(
    state: Statevector,
    terms: Sequence[PauliTerm],
    shots: int,
    rng: int | np.random.Generator,
) -> tuple[float, float]:
    """Sampled <state| sum of terms |state> and its standard error.

    Constant terms add exactly.  Each measurement group (see
    :func:`_measurement_groups`) is rotated into the z basis and gets
    its own ``shots`` draws from ``rng``; an outcome's value is the sum
    of coefficient times z parity over the group's terms, and the
    group variances add.
    """
    rng = np.random.default_rng(rng)
    n = state.num_qubits
    mean = sum(t.coefficient for t in terms if not t.factors)
    variance = 0.0
    for axes, group in _measurement_groups(terms):
        rotation = basis_change((site - 1, axis) for site, axis in axes.items())
        rotated = run_statevector(Program(n, tuple(rotation)), initial=state)
        counts = sample_counts(rotated, shots, rng)
        outcomes = np.flatnonzero(counts)
        weights = counts[outcomes] / shots
        values = np.zeros(len(outcomes))
        for term in group:
            x, z = pauli_masks(term.factors, n)
            # xor-fold the outcome's bits on the support into bit 0 (n < 32)
            parity = outcomes & (x | z)
            for shift in (16, 8, 4, 2, 1):
                parity ^= parity >> shift
            values += term.coefficient * (1 - 2 * (parity & 1))
        group_mean = float(np.dot(weights, values))
        mean += group_mean
        variance += float(np.dot(weights, (values - group_mean) ** 2)) / shots
    return float(mean), math.sqrt(variance)
