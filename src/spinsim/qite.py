"""Quantum imaginary-time evolution via fitted unitaries.

Each step of size dbeta pushes the state toward e^(-dbeta H)|psi>.
The non-unitary update (1 - dbeta h)/sqrt(c) for a Hermitian piece h
is replaced by the closest unitary of the form
exp(-i dbeta sum_I a_I sigma_I), where sigma_I ranges over Pauli
strings near h's support.  The a_I solve the regularized normal
equations

    (S + delta I) a = b,
    S_IJ = Re <psi| sigma_I sigma_J |psi>,
    b_I  = Im <psi| sigma_I h |psi> / sqrt(c),
    c    = 1 - 2 dbeta <psi|h|psi> + dbeta^2 <psi|h^2|psi>,

and the state follows exp(-i dbeta a_I sigma_I) one string at a time,
as rotations on the strings' (x, z) masks (:func:`backend.pauli_rotations`).
Each step's circuit renders the same rotations in native gates through
:func:`ir.pauli_rotation`, the renderer that also lowers the real-time
rotation gates (:func:`pauli_rotation_gates`); only the RZ angles change
from step to step.  The sign conventions above make the energy decrease;
the one-qubit closed-form case in the test suite pins them down.

Each step solves one system with h equal to the full Hamiltonian, over
the union of the per-term string bases.  Its fixed points include every
eigenstate of H (there b is identically zero), so the iteration can
settle onto the true ground state.  Which strings a fit reads, and how
each read enters c, S and b, depend on the basis and H alone: a run
plans them once (:class:`_FitPlan`), and a step only reads, assembles
and solves.

When every term of H has an even number of y factors (a real matrix)
and the prepared state has real amplitudes, the basis keeps only the
strings with an odd number of y factors (Motta et al., Nat. Phys. 16,
205 (2020)).  On a real state b vanishes on the even-y strings and S
has no entries between the two sets, so their coefficients are exactly
zero; each odd-y string is i times a real antisymmetric matrix, so the
fitted unitary is real orthogonal.  Its rotations on masks multiply by
real numbers only, so the state stays exactly real, in exact and
sampled mode alike.  Fitting the even-y strings anyway only
amplifies float noise along S's near-null directions into an imaginary
part of the state.  The cut takes the n=7 TFIM basis from 75 strings
to 31 and the 3-spin one from 27 to 11.  Any y field or a complex
preparation keeps the full basis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial, reduce
from operator import add
from typing import Sequence

import numpy as np

from . import ir
from .backend import ReadPlan, Statevector, _popcount, pauli_factors, pauli_masks, pauli_rotations
from .backend import product_state, run_statevector
# unused, but bound: the span tracer in perfbench/spans.py wraps it by name here
from .backend import apply_gate  # noqa: F401
from .errors import SingularSystemError, UnsupportedFeatureError
from .hamiltonian import HeisenbergHamiltonian, PauliTerm, snapshot
from .ir import Gate, Program
from .trotter import state_preparation_gates

PauliMasks = tuple[int, int]

# delta of the regularized normal equations (S + delta I) a = b
REGULARIZATION = 1e-6


@dataclass(frozen=True)
class QiteParams:
    """Knobs of the imaginary-time loop.

    ``shots`` = 0 evaluates every expectation value exactly from the
    statevector; a positive value draws that many samples per
    measurement group (seeded, reproducible).  ``domain_radius`` adds
    that many sites on each side of a term's support to the fitting
    basis, keeping each window contiguous inside the chain.
    """

    dbeta: float
    num_steps: int
    domain_radius: int = 0
    shots: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.dbeta <= 0.0:
            raise ValueError(f"dbeta must be positive, got {self.dbeta}")
        if self.num_steps < 1:
            raise ValueError(f"num_steps must be positive, got {self.num_steps}")
        if self.domain_radius < 0:
            raise ValueError(f"domain_radius must be >= 0, got {self.domain_radius}")
        if self.shots < 0:
            raise ValueError(f"shots must be >= 0, got {self.shots}")


@dataclass(frozen=True)
class QiteStepReport:
    """Outcome of one imaginary-time step.

    ``sigma`` is the standard error of a sampled ``energy`` (None in
    exact mode).  ``coefficients`` holds the solved a vector of the
    step's fit, ``residual`` the norm of its least-squares residual and
    ``normalization`` its c factor.  ``program`` holds this step's gates
    alone: step 0's prepare the initial state from |0...0>, and each
    later one is the fit applied to the previous report's state, one
    :func:`ir.pauli_rotation` per string (:func:`pauli_rotation_gates`),
    while the state follows the same rotations on (x, z) masks.
    """

    step: int
    energy: float
    sigma: float | None
    coefficients: tuple[float, ...]
    residual: float
    normalization: float
    program: Program


_I_POWERS = np.array([1.0 + 0.0j, 1j, -1.0 + 0.0j, -1j])


def pauli_string_product(first, second):
    """Product sigma_first sigma_second = phase * sigma_out on (x, z) masks.

    With sigma = i^|x & z| X^x Z^z (see :func:`backend.pauli_masks`),
    moving Z^z1 past X^x2 gives (-1)^|z1 & x2|, so the phase is i^k with
    k = |x1 & z1| + |x2 & z2| - |x & z| + 2 |z1 & x2| (mod 4).  The
    masks may be ints or broadcasting int64 arrays; the phases and
    product masks then come back as arrays.
    """
    (x1, z1), (x2, z2) = first, second
    x, z = x1 ^ x2, z1 ^ z2
    k = _popcount(x1 & z1) + _popcount(x2 & z2) - _popcount(x & z) + 2 * _popcount(z1 & x2)
    return _I_POWERS[k % 4], (x, z)


def domain_window(term: PauliTerm, radius: int, num_spins: int) -> tuple[int, ...]:
    """Sites the fitting basis acts on: the support widened by radius.

    The window keeps its full width of span + 2*radius (capped at the
    chain length) even at the chain ends, sliding inward instead of
    shrinking there.
    """
    sites = [s for s, _ in term.factors]
    size = min(max(sites) - min(sites) + 1 + 2 * radius, num_spins)
    low = max(min(min(sites) - radius, num_spins - size + 1), 1)
    return tuple(range(low, low + size))


def hamiltonian_basis(terms: Sequence[PauliTerm], radius: int, num_spins: int) -> list[PauliMasks]:
    """(x, z) masks of every non-identity string on some term's window.

    Each window's strings come in ``itertools.product("ixyz")`` order
    over its sites; a string on several windows keeps its first place.
    """
    basis: dict[PauliMasks, None] = {}
    for term in terms:
        window = domain_window(term, radius, num_spins)
        for axes in itertools.product("ixyz", repeat=len(window)):
            basis[pauli_masks(zip(window, axes), num_spins)] = None
    basis.pop((0, 0), None)
    return list(basis)


def odd_y(masks: PauliMasks) -> bool:
    """True when the string has an odd number of y factors: an imaginary matrix."""
    return _popcount(masks[0] & masks[1]) % 2 == 1


def fitting_basis(terms: Sequence[PauliTerm], radius: int, state: Statevector) -> list[PauliMasks]:
    """The basis every step of :func:`run_qite` fits on, chosen from the prepared state.

    :func:`hamiltonian_basis`, cut to its :func:`odd_y` strings when no
    term is odd-y and ``state`` has no imaginary part.
    """
    n = state.num_qubits
    basis = hamiltonian_basis(terms, radius, n)
    if state.amplitudes.imag.any() or any(odd_y(pauli_masks(t.factors, n)) for t in terms):
        return basis
    return [masks for masks in basis if odd_y(masks)]


def pauli_rotation_gates(factors: Sequence[tuple[int, str]], angle: float) -> list[Gate]:
    """Circuit for exp(-i angle sigma_P), P given by (site, axis) factors: :func:`ir.pauli_rotation`."""
    return ir.pauli_rotation([(site - 1, axis) for site, axis in factors], 2.0 * angle)


class _FitPlan:
    """What each fit of a run on ``basis`` and h = sum of ``terms`` reads, made once per run.

    ``reads``: a :class:`backend.ReadPlan` of the distinct strings read, in
    key order x << n | z, and ``inverse`` maps the h, kept hh, S and b
    products onto them.  A product weighs its read by its coefficients
    times the part of its phase that its sum takes; in S and b, a product
    whose phase has no such part reads the identity with weight 0.
    """

    def __init__(self, basis, terms, n: int, params: QiteParams):
        self.params = params
        self.hc = hc = np.array([t.coefficient for t in terms])
        h_masks = [pauli_masks(t.factors, n) for t in terms]
        hx, hz = np.array(h_masks, dtype=np.int64).reshape(-1, 2).T
        self.bx, self.bz = bx, bz = np.array(basis, dtype=np.int64).reshape(-1, 2).T
        # only the S products with j >= i are read: one per upper-triangle pair
        self.upper = np.triu(np.ones((len(basis), len(basis)), dtype=bool))
        rows, cols = np.nonzero(self.upper)
        # h_t1 h_t2: imaginary parts cancel over the symmetric (t1, t2) sum
        hh_phase, (hh_x, hh_z) = pauli_string_product((hx[:, None], hz[:, None]), (hx, hz))
        s_phase, (s_x, s_z) = pauli_string_product((bx[rows], bz[rows]), (bx[cols], bz[cols]))
        b_phase, (b_x, b_z) = pauli_string_product((bx[:, None], bz[:, None]), (hx, hz))
        hh_keep, s_keep, b_keep = hh_phase.real != 0.0, s_phase.real != 0.0, b_phase.imag != 0.0
        self.hh_weights = (hc[:, None] * hc * hh_phase.real)[hh_keep]
        self.s_weights = np.where(s_keep, s_phase.real, 0.0)
        self.b_weights = np.where(b_keep, hc * b_phase.imag, 0.0)
        reads = [hx << n | hz, (hh_x << n | hh_z)[hh_keep], np.where(s_keep, s_x << n | s_z, 0)]
        reads.append(np.where(b_keep, b_x << n | b_z, 0).ravel())
        keys, self.inverse = np.unique(np.concatenate(reads), return_inverse=True)
        self.splits = np.cumsum([r.size for r in reads])[:-1]
        masks = zip((keys >> n).tolist(), (keys & (1 << n) - 1).tolist())
        self.reads = ReadPlan(list(masks), n, params.shots)

    def fit(self, state: Statevector, rng) -> tuple[tuple[float, ...], float, float, float]:
        """:func:`fit_step_unitary` on ``state``, then the fit's read of <state|h|state>."""
        values = self.reads.values(state, rng)
        h_read, hh_read, s_read, b_read = np.split(values[self.inverse], self.splits)
        # the sums run term by term in the scalar loop's order, so they round as it did
        energy = reduce(add, (self.hc * h_read).tolist(), 0.0)
        second_moment = reduce(add, (self.hh_weights * hh_read).tolist(), 0.0)
        c = 1.0 - 2.0 * self.params.dbeta * energy + self.params.dbeta**2 * second_moment
        if c <= 1e-12:
            raise SingularSystemError(f"step normalization collapsed (c = {c:.3e}); reduce dbeta")
        s_matrix = np.empty(self.upper.shape)
        s_matrix[self.upper] = s_matrix.T[self.upper] = self.s_weights * s_read
        b_terms = self.b_weights * b_read.reshape(self.b_weights.shape) / math.sqrt(c)
        b_vector = reduce(add, b_terms.T, np.zeros(len(b_terms)))
        regularized = s_matrix + REGULARIZATION * np.eye(len(b_vector))
        try:
            a = np.linalg.solve(regularized, b_vector)
        except np.linalg.LinAlgError:
            try:
                a = np.linalg.pinv(regularized) @ b_vector
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError("regularized least-squares solve failed") from exc
        residual = float(np.linalg.norm(s_matrix @ a - b_vector))
        return tuple(float(v) for v in a), residual, c, energy


def fit_step_unitary(
    state: Statevector,
    basis: Sequence[PauliMasks],
    terms: Sequence[PauliTerm],
    params: QiteParams,
    rng,
) -> tuple[tuple[float, ...], float, float]:
    """Fit the step unitary for h = sum of ``terms`` over the masks in ``basis``.

    Returns ``(coefficients, residual, normalization)``: the solved a
    vector of exp(-i dbeta sum_I a_I sigma_I), the norm of the
    least-squares residual and the c factor.  ``rng`` seeds the sampler
    when ``params.shots`` > 0.  The read plan is made for this one fit.
    """
    return _FitPlan(basis, terms, state.num_qubits, params).fit(state, rng)[:3]


def run_qite(
    hamiltonian: HeisenbergHamiltonian, params: QiteParams, initial_state: Sequence[str] | Program
) -> list[QiteStepReport]:
    """Evolve through ``num_steps`` imaginary-time steps.

    ``initial_state`` is either a per-site up/down sequence, built
    directly by :func:`backend.product_state` (the step-0 report's
    program holds its X gates), or an explicit preparation circuit, run
    by :func:`backend.run_statevector`.  Returns one report per step,
    preceded by a step-0 report for the prepared initial state.  Each
    step is one fit of the full Hamiltonian over :func:`fitting_basis`
    of the prepared state.  An exact report's energy is the next fit's
    read of its state; the last report's, and every sampled one, is read
    by a :class:`backend.ReadPlan` of the terms, made once per run.
    The state advances by :func:`backend.pauli_rotations`; each report's
    program is built from one :func:`ir.rotation_skeleton` per string,
    made once per run, with only the RZ gates new at each step.
    """
    if hamiltonian.is_time_dependent:
        raise UnsupportedFeatureError(
            "imaginary-time evolution requires a time-independent Hamiltonian"
        )
    n = hamiltonian.num_spins
    if isinstance(initial_state, Program):
        if initial_state.num_qubits != n:
            raise ValueError("preparation circuit width does not match the chain")
        program = Program(n, initial_state.gates)
        state = run_statevector(program)
    else:
        if len(initial_state) != n:
            raise ValueError("initial state length does not match the chain")
        program = Program(n, state_preparation_gates(initial_state))
        state = product_state(initial_state)
    terms = snapshot(hamiltonian, 0.0)
    rng = np.random.default_rng(params.seed)

    basis = fitting_basis(terms, params.domain_radius, state)
    plan = _FitPlan(basis, terms, n, params)
    skeletons = [ir.rotation_skeleton([(s - 1, a) for s, a in pauli_factors(m, n)]) for m in basis]
    term_reads = ReadPlan([pauli_masks(t.factors, n) for t in terms], n, params.shots)
    measure = partial(term_reads.estimate, coefficients=[t.coefficient for t in terms], rng=rng)
    reports, made_by = [], [(), 0.0, 1.0]  # made_by: the fit that made ``state``, none at step 0
    for step in range(params.num_steps):
        measured = measure(state) if params.shots else None  # drawn before the fit's draws
        *fit, energy = plan.fit(state, rng)
        reports.append(QiteStepReport(step, *(measured or (energy, None)), *made_by, program))
        made_by, angles = fit, [params.dbeta * a for a in fit[0]]
        rotations = zip(skeletons, angles)
        gates = (g for (pre, q, post), a in rotations for g in (*pre, ir.rz(2.0 * a, q), *post))
        program = Program(n, tuple(gates))
        state = pauli_rotations(state, plan.bx, plan.bz, angles)
    reports.append(QiteStepReport(params.num_steps, *measure(state), *made_by, program))
    return reports
