"""Time-dependent Heisenberg chain Hamiltonians as Pauli-term collections.

The model is an open chain of ``n`` spins,

    H(t) = sum_a sum_{i=1..n-1} J^a_i(t) s^a_i s^a_{i+1}
         + sum_a sum_{i=1..n}   h^a_i(t) s^a_i,        a in {x, y, z},

with sites numbered from 1.  Site i lives on qubit i-1.
"""

from __future__ import annotations

from functools import reduce
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import TooLargeError
from .ir import _agreement, pauli_matrix
from .value import Value, set_field, set_fields

if TYPE_CHECKING:
    from .config import CoefficientSchedule

AXES = ("x", "y", "z")

DENSE_QUBIT_LIMIT = 12


class PauliTerm(Value):
    """A real coefficient times a product of single-site Pauli factors.

    ``factors`` is a tuple of (site, axis) pairs with 1-based, strictly
    increasing sites.  An empty tuple is the identity (a constant
    offset).
    """

    def __init__(self, coefficient: float, factors: tuple[tuple[int, str], ...]):
        previous = 0
        for site, axis in factors:
            if not previous < site or site < 1 or axis not in AXES:
                _check_factors(factors)
            previous = site
        set_field(self, "coefficient", coefficient)
        set_field(self, "factors", factors)
        set_field(self, "_key", (coefficient, factors))


def _check_factors(factors: tuple[tuple[int, str], ...]) -> None:
    """Raise the first fault of PauliTerm factors: their order, then each one's site and axis."""
    sites = [s for s, _ in factors]
    if sorted(set(sites)) != sites:
        raise ValueError(f"factor sites must be strictly increasing, got {sites}")
    for site, axis in factors:
        if site < 1:
            raise ValueError(f"sites are 1-based, got {site}")
        if axis not in AXES:
            raise ValueError(f"unknown axis {axis!r}")


class HeisenbergHamiltonian(Value):
    """Per-bond and per-site coefficient schedules of an open chain.

    ``bond_coefficients`` maps (axis, i) to the J^axis_i(t) schedule for
    the bond between sites i and i+1; ``field_coefficients`` maps
    (axis, i) to h^axis_i(t).  A schedule is one of the resolved
    :mod:`spinsim.config` schedules: ``at(t)`` gives its value.
    """

    def __init__(
        self,
        num_spins: int,
        bond_coefficients: dict[tuple[str, int], CoefficientSchedule],
        field_coefficients: dict[tuple[str, int], CoefficientSchedule],
    ):
        if num_spins < 1:
            raise ValueError("need at least one spin")
        for axis, i in bond_coefficients:
            if axis not in AXES or not 1 <= i <= num_spins - 1:
                raise ValueError(f"bad bond key {(axis, i)}")
        for axis, i in field_coefficients:
            if axis not in AXES or not 1 <= i <= num_spins:
                raise ValueError(f"bad field key {(axis, i)}")
        set_fields(self, num_spins, bond_coefficients, field_coefficients)

    @property
    def is_time_dependent(self) -> bool:
        coeffs = list(self.bond_coefficients.values())
        coeffs += list(self.field_coefficients.values())
        return any(c.is_time_dependent for c in coeffs)


def _schedules(hamiltonian: HeisenbergHamiltonian):
    """(factors, schedule) of every bond and field term, in :func:`snapshot` order."""
    n = hamiltonian.num_spins
    for axis in AXES:
        for i in range(1, n):
            coeff = hamiltonian.bond_coefficients.get((axis, i))
            if coeff is not None:
                yield ((i, axis), (i + 1, axis)), coeff
    for axis in AXES:
        for i in range(1, n + 1):
            coeff = hamiltonian.field_coefficients.get((axis, i))
            if coeff is not None:
                yield ((i, axis),), coeff


def snapshot(hamiltonian: HeisenbergHamiltonian, t: float) -> list[PauliTerm]:
    """Evaluate every coefficient at time t and list the nonzero terms.

    Order is fixed: bond terms axis-major (all x bonds left to right,
    then y, then z), then field terms in the same axis-major order.
    Terms whose coefficient evaluates to exactly zero are dropped.
    """
    terms: list[PauliTerm] = []
    for factors, coeff in _schedules(hamiltonian):
        value = coeff.at(t)
        if value != 0.0:
            terms.append(PauliTerm(value, factors))
    return terms


def snapshot_table(
    hamiltonian: HeisenbergHamiltonian, times: Sequence[float]
) -> tuple[list[tuple[tuple[int, str], ...]], np.ndarray]:
    """The factors of every term that :func:`snapshot` lists at one of ``times`` at least,
    in its order, and their coefficients: one row per time, 0.0 where a term is dropped.

    Row k restricted to its nonzero entries is ``snapshot(hamiltonian, times[k])``.
    """
    keyed = list(_schedules(hamiltonian))
    table = np.array([[coeff.at(t) for _, coeff in keyed] for t in times], dtype=float)
    table = table.reshape(len(times), len(keyed))
    kept = (table != 0.0).any(axis=0)
    return [factors for (factors, _), keep in zip(keyed, kept) if keep], table[:, kept]


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
