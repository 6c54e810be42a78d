"""Time-dependent Heisenberg chain Hamiltonians as Pauli-term collections.

The model is an open chain of ``n`` spins,

    H(t) = sum_a sum_{i=1..n-1} J^a_i(t) s^a_i s^a_{i+1}
         + sum_a sum_{i=1..n}   h^a_i(t) s^a_i,        a in {x, y, z},

with sites numbered from 1.  Site i lives on qubit i-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from .errors import TooLargeError
from .ir import _agreement, pauli_matrix

if TYPE_CHECKING:
    from .config import CoefficientSchedule

AXES = ("x", "y", "z")

DENSE_QUBIT_LIMIT = 12


@dataclass(frozen=True)
class PauliTerm:
    """A real coefficient times a product of single-site Pauli factors.

    ``factors`` is a tuple of (site, axis) pairs with 1-based, strictly
    increasing sites.  An empty tuple is the identity (a constant
    offset).
    """

    coefficient: float
    factors: tuple[tuple[int, str], ...]

    def __post_init__(self):
        sites = [s for s, _ in self.factors]
        if sorted(set(sites)) != sites:
            raise ValueError(f"factor sites must be strictly increasing, got {sites}")
        for site, axis in self.factors:
            if site < 1:
                raise ValueError(f"sites are 1-based, got {site}")
            if axis not in AXES:
                raise ValueError(f"unknown axis {axis!r}")


@dataclass(frozen=True)
class HeisenbergHamiltonian:
    """Per-bond and per-site coefficient schedules of an open chain.

    ``bond_coefficients`` maps (axis, i) to the J^axis_i(t) schedule for
    the bond between sites i and i+1; ``field_coefficients`` maps
    (axis, i) to h^axis_i(t).  A schedule is one of the resolved
    :mod:`spinsim.config` schedules: ``at(t)`` gives its value.
    """

    num_spins: int
    bond_coefficients: dict[tuple[str, int], CoefficientSchedule]
    field_coefficients: dict[tuple[str, int], CoefficientSchedule]

    def __post_init__(self):
        if self.num_spins < 1:
            raise ValueError("need at least one spin")
        for axis, i in self.bond_coefficients:
            if axis not in AXES or not 1 <= i <= self.num_spins - 1:
                raise ValueError(f"bad bond key {(axis, i)}")
        for axis, i in self.field_coefficients:
            if axis not in AXES or not 1 <= i <= self.num_spins:
                raise ValueError(f"bad field key {(axis, i)}")

    @property
    def is_time_dependent(self) -> bool:
        coeffs = list(self.bond_coefficients.values())
        coeffs += list(self.field_coefficients.values())
        return any(c.is_time_dependent for c in coeffs)


def snapshot(hamiltonian: HeisenbergHamiltonian, t: float) -> list[PauliTerm]:
    """Evaluate every coefficient at time t and list the nonzero terms.

    Order is fixed: bond terms axis-major (all x bonds left to right,
    then y, then z), then field terms in the same axis-major order.
    Terms whose coefficient evaluates to exactly zero are dropped.
    """
    n = hamiltonian.num_spins
    terms: list[PauliTerm] = []
    for axis in AXES:
        for i in range(1, n):
            coeff = hamiltonian.bond_coefficients.get((axis, i))
            if coeff is None:
                continue
            value = coeff.at(t)
            if value != 0.0:
                terms.append(PauliTerm(value, ((i, axis), (i + 1, axis))))
    for axis in AXES:
        for i in range(1, n + 1):
            coeff = hamiltonian.field_coefficients.get((axis, i))
            if coeff is None:
                continue
            value = coeff.at(t)
            if value != 0.0:
                terms.append(PauliTerm(value, ((i, axis),)))
    return terms


def dense_matrix(terms: list[PauliTerm], num_spins: int) -> np.ndarray:
    """Dense 2^n x 2^n Hermitian matrix of a Pauli-term sum.

    Each term's own kron product is added in place where :func:`ir.embed` would put it;
    the tests compare with ``helpers.embedded_pauli``, a kron chain over every site.
    """
    if num_spins > DENSE_QUBIT_LIMIT:
        raise TooLargeError(
            f"dense matrices limited to {DENSE_QUBIT_LIMIT} spins, got {num_spins}"
        )
    dim = 2**num_spins
    total = np.zeros((dim, dim), dtype=complex)
    for term in terms:
        local = reduce(np.kron, [pauli_matrix(a) for _, a in term.factors] or [np.ones((1, 1))])
        sites = [s - 1 for s, _ in term.factors]
        _agreement(total, sites)[...] += (term.coefficient * local).reshape((2,) * 2 * len(sites))
    return total
