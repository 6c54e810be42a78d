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

and each Pauli string is exponentiated with the usual basis-change +
CNOT-ladder + RZ construction.  The sign conventions above make the
energy decrease; the one-qubit closed-form case in the test suite
pins them down.

Each step solves one system with h equal to the full Hamiltonian, over
the union of the per-term string bases.  Its fixed points include every
eigenstate of H (there b is identically zero), so the iteration can
settle onto the true ground state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ir
from .backend import Statevector, estimate_with_sigma, expectation
from .backend import pauli_expectations, pauli_factors, pauli_masks, run_statevector
# unused, but bound: the span tracer in perfbench/spans.py wraps it by name here
from .backend import apply_gate  # noqa: F401
from .errors import SingularSystemError, UnsupportedFeatureError
from .hamiltonian import HeisenbergHamiltonian, PauliTerm, snapshot
from .ir import Gate, Program
from .trotter import state_preparation_gates

PauliString = tuple[tuple[int, str], ...]
PauliMasks = tuple[int, int]


@dataclass(frozen=True)
class QiteParams:
    """Knobs of the imaginary-time loop.

    ``shots`` = 0 evaluates every expectation value exactly from the
    statevector; a positive value estimates each one from that many
    measurement samples (seeded, reproducible).  ``domain_radius`` adds
    that many sites on each side of a term's support to the fitting
    basis, keeping each window contiguous inside the chain.
    """

    dbeta: float
    num_steps: int
    domain_radius: int = 0
    regularization: float = 1e-6
    shots: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.dbeta <= 0.0:
            raise ValueError(f"dbeta must be positive, got {self.dbeta}")
        if self.num_steps < 1:
            raise ValueError(f"num_steps must be positive, got {self.num_steps}")
        if self.domain_radius < 0:
            raise ValueError(f"domain_radius must be >= 0, got {self.domain_radius}")
        if self.regularization < 0.0:
            raise ValueError(f"regularization must be >= 0, got {self.regularization}")
        if self.shots < 0:
            raise ValueError(f"shots must be >= 0, got {self.shots}")


@dataclass(frozen=True)
class QiteStepReport:
    """Outcome of one imaginary-time step.

    ``sigma`` is the standard error of a sampled ``energy`` (None in
    exact mode).  ``coefficients`` holds the solved a vector of the
    step's fit, ``residual`` the norm of its least-squares residual and
    ``normalization`` its c factor.  ``program`` is the cumulative
    circuit preparing the post-step state from |0...0>.  Step 0 records
    the prepared initial state.
    """

    step: int
    energy: float
    sigma: float | None
    coefficients: tuple[float, ...]
    residual: float
    normalization: float
    program: Program


@dataclass(frozen=True)
class TermFit:
    coefficients: tuple[float, ...]
    program: Program
    residual: float
    normalization: float


_I_POWERS = np.array([1.0 + 0.0j, 1j, -1.0 + 0.0j, -1j])


def _popcount(v):
    """Set bits of each mask below 2^32, for ints and int64 arrays alike."""
    v = v - (v >> 1 & 0x55555555)
    v = (v & 0x33333333) + (v >> 2 & 0x33333333)
    v = v + (v >> 4) & 0x0F0F0F0F
    return (v * 0x01010101 & 0xFFFFFFFF) >> 24


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
    low = min(min(sites) - radius, num_spins - size + 1)
    low = max(low, 1)
    return tuple(range(low, low + size))


def pauli_basis(window: tuple[int, ...]) -> list[PauliString]:
    """Every non-identity Pauli string on the window, in a fixed order."""
    strings = []
    for combo in itertools.product(("i", "x", "y", "z"), repeat=len(window)):
        factors = tuple(
            (site, axis) for site, axis in zip(window, combo) if axis != "i"
        )
        if factors:
            strings.append(factors)
    return strings


def hamiltonian_basis(
    terms: Sequence[PauliTerm], radius: int, num_spins: int
) -> list[PauliString]:
    """Union of the per-term window bases, first occurrence order."""
    strings: list[PauliString] = []
    seen: set[PauliString] = set()
    for term in terms:
        window = domain_window(term, radius, num_spins)
        for string in pauli_basis(window):
            if string not in seen:
                seen.add(string)
                strings.append(string)
    return strings


def pauli_rotation_gates(factors: PauliString, angle: float) -> list[Gate]:
    """Circuit for exp(-i angle sigma_P): basis change, CNOT ladder, RZ."""
    axes = [(site - 1, axis) for site, axis in factors]
    qubits = [q for q, _ in axes]
    enter = ir.basis_change(axes)
    leave = ir.basis_change(axes, inverse=True)
    ladder = [ir.cnot(qubits[k], qubits[k + 1]) for k in range(len(qubits) - 1)]
    return (
        enter
        + ladder
        + [ir.rz(2.0 * angle, qubits[-1])]
        + list(reversed(ladder))
        + list(reversed(leave))
    )


def _fit_unitary(
    state: Statevector,
    basis: Sequence[PauliMasks],
    terms: Sequence[PauliTerm],
    params: QiteParams,
    rng=None,
) -> TermFit:
    """Fit the step unitary for h = sum of ``terms`` over the masks in ``basis``."""
    n = state.num_qubits
    hc = np.array([t.coefficient for t in terms])
    hx, hz = np.array([pauli_masks(t.factors, n) for t in terms], dtype=np.int64).reshape(-1, 2).T
    bx, bz = np.array(basis, dtype=np.int64).reshape(-1, 2).T
    m = len(basis)
    # only the S products with j >= i are read: one per upper-triangle pair
    rows, cols = np.triu_indices(m)
    # h_t1 h_t2: imaginary parts cancel over the symmetric (t1, t2) sum
    hh_phase, (hh_x, hh_z) = pauli_string_product((hx[:, None], hz[:, None]), (hx, hz))
    s_phase, (s_x, s_z) = pauli_string_product((bx[rows], bz[rows]), (bx[cols], bz[cols]))
    b_phase, (b_x, b_z) = pauli_string_product((bx[:, None], bz[:, None]), (hx, hz))
    hh_keep = hh_phase.real != 0.0
    s_keep = s_phase.real != 0.0
    b_keep = b_phase.imag != 0.0

    # every string read, in the order the scalar loop first read it: per H
    # term its own string and its second-moment products, then per basis
    # row its S products (j >= i) and its b products
    h_keep = np.column_stack([np.ones(len(hx), dtype=bool), hh_keep])
    h_keys = np.column_stack([hx, hh_x]) << n | np.column_stack([hz, hh_z])
    sb_keys = np.concatenate([(s_x << n | s_z)[s_keep], (b_x << n | b_z)[b_keep]])
    # the basis row of each S and b read; a stable sort keeps S before b in a row
    sb_rows = np.concatenate([rows[s_keep], np.nonzero(b_keep)[0]])
    sb_order = np.argsort(sb_rows, kind="stable")
    read_keys = np.concatenate([h_keys[h_keep], sb_keys[sb_order]])
    keys, first, inverse = np.unique(read_keys, return_index=True, return_inverse=True)
    if params.shots == 0:
        values = pauli_expectations(state, keys >> n, keys & (1 << n) - 1)
    else:
        # one estimate per distinct string, drawn from the run's shared
        # generator in the order the strings are first read
        rng = np.random.default_rng(0 if rng is None else rng)
        values = np.ones(len(keys))
        for index in np.argsort(first):
            masks = (int(keys[index]) >> n, int(keys[index]) & (1 << n) - 1)
            if masks != (0, 0):
                string = [PauliTerm(1.0, pauli_factors(masks, n))]
                values[index] = estimate_with_sigma(state, string, params.shots, rng)[0]
    read = values[inverse]
    split = np.count_nonzero(h_keep)
    h_read = np.zeros(h_keep.shape)
    h_read[h_keep] = read[:split]
    sb_read = np.empty(len(sb_order))
    sb_read[sb_order] = read[split:]
    s_count = np.count_nonzero(s_keep)
    s_read = np.zeros(s_keep.shape)
    s_read[s_keep] = sb_read[:s_count]
    b_read = np.zeros(b_keep.shape)
    b_read[b_keep] = sb_read[s_count:]

    # the sums run term by term in the scalar loop's order, so they round as it did
    energy = 0.0
    for term in (hc * h_read[:, 0]).tolist():
        energy += term
    second_moment = 0.0
    for term in (hc[:, None] * hc * hh_phase.real * h_read[:, 1:])[hh_keep].tolist():
        second_moment += term
    c = 1.0 - 2.0 * params.dbeta * energy + params.dbeta**2 * second_moment
    if c <= 1e-12:
        raise SingularSystemError(
            f"step normalization collapsed (c = {c:.3e}); reduce dbeta"
        )
    sqrt_c = math.sqrt(c)

    entries = np.where(s_keep, s_phase.real * s_read, 0.0)
    s_matrix = np.empty((m, m))
    s_matrix[rows, cols] = entries
    s_matrix[cols, rows] = entries
    b_terms = np.where(b_keep, hc * b_phase.imag * b_read / sqrt_c, 0.0)
    b_vector = np.zeros(m)
    for column in b_terms.T:
        b_vector += column

    regularized = s_matrix + params.regularization * np.eye(m)
    try:
        a = np.linalg.solve(regularized, b_vector)
    except np.linalg.LinAlgError:
        try:
            a = np.linalg.pinv(regularized) @ b_vector
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                "regularized least-squares solve failed"
            ) from exc
    residual = float(np.linalg.norm(s_matrix @ a - b_vector))

    gates: list[Gate] = []
    for a_i, masks in zip(a, basis):
        gates.extend(pauli_rotation_gates(pauli_factors(masks, n), params.dbeta * float(a_i)))
    return TermFit(
        coefficients=tuple(float(v) for v in a),
        program=Program(n, tuple(gates)),
        residual=residual,
        normalization=c,
    )


def fit_step_unitary(
    state: Statevector,
    term: PauliTerm,
    params: QiteParams,
    rng=None,
) -> TermFit:
    """Fit one term's step unitary on the current state.

    Solves the regularized normal equations for the expansion
    coefficients and returns them with the sub-circuit implementing
    exp(-i dbeta sum_I a_I sigma_I).
    """
    n = state.num_qubits
    window = domain_window(term, params.domain_radius, n)
    basis = [pauli_masks(string, n) for string in pauli_basis(window)]
    return _fit_unitary(state, basis, [term], params, rng)


def run_qite(
    hamiltonian: HeisenbergHamiltonian,
    params: QiteParams,
    initial_state: Sequence[str] | Program,
) -> list[QiteStepReport]:
    """Evolve through ``num_steps`` imaginary-time steps.

    ``initial_state`` is either a per-site up/down sequence (prepared
    with X gates) or an explicit preparation circuit.  Returns one
    report per step, preceded by a step-0 report for the prepared
    initial state.  Each step is a single fit of the full Hamiltonian.
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
    else:
        if len(initial_state) != n:
            raise ValueError("initial state length does not match the chain")
        program = Program(n, state_preparation_gates(initial_state))
    terms = snapshot(hamiltonian, 0.0)
    rng = np.random.default_rng(params.seed)

    state = run_statevector(program)

    def measured_energy() -> tuple[float, float | None]:
        if params.shots == 0:
            return expectation(state, terms), None
        return estimate_with_sigma(state, terms, params.shots, rng)

    reports = [QiteStepReport(0, *measured_energy(), (), 0.0, 1.0, program)]
    strings = hamiltonian_basis(terms, params.domain_radius, n)
    basis = [pauli_masks(string, n) for string in strings]
    for step in range(1, params.num_steps + 1):
        fit = _fit_unitary(state, basis, terms, params, rng)
        state = run_statevector(fit.program, initial=state)
        program = program.extend(fit.program.gates)
        reports.append(
            QiteStepReport(
                step,
                *measured_energy(),
                fit.coefficients,
                fit.residual,
                fit.normalization,
                program,
            )
        )
    return reports
