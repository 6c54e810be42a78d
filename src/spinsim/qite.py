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
from .backend import Statevector, apply_gate, apply_pauli_string, expectation
from .errors import SingularSystemError, UnsupportedFeatureError
from .hamiltonian import HeisenbergHamiltonian, PauliTerm, snapshot
from .ir import Gate, Program
from .trotter import state_preparation_gates

PauliString = tuple[tuple[int, str], ...]


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


_SINGLE_PRODUCT = {
    ("x", "y"): (1j, "z"),
    ("y", "x"): (-1j, "z"),
    ("y", "z"): (1j, "x"),
    ("z", "y"): (-1j, "x"),
    ("z", "x"): (1j, "y"),
    ("x", "z"): (-1j, "y"),
}


def pauli_string_product(
    first: PauliString, second: PauliString
) -> tuple[complex, PauliString]:
    """Symbolic product sigma_first sigma_second = phase * sigma_out."""
    d1, d2 = dict(first), dict(second)
    phase = 1.0 + 0.0j
    out = []
    for site in sorted(d1.keys() | d2.keys()):
        a, b = d1.get(site), d2.get(site)
        if a is None or b is None:
            out.append((site, a or b))
        elif a != b:
            factor_phase, axis = _SINGLE_PRODUCT[(a, b)]
            phase *= factor_phase
            out.append((site, axis))
    return phase, tuple(out)


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


class PauliExpectations:
    """Expectation values <psi|sigma_P|psi> on a fixed state.

    Exact mode contracts the statevector directly.  Shot mode rotates
    the involved sites into the z basis, samples the rotated state and
    averages parity eigenvalues, consuming the supplied generator so
    repeated runs with one seed stay reproducible.  Values are cached
    per string.
    """

    def __init__(self, state: Statevector, shots: int = 0, rng=None):
        self._state = state
        self._shots = shots
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._cache: dict[PauliString, float] = {}

    def value(self, factors: PauliString) -> float:
        if not factors:
            return 1.0
        if factors in self._cache:
            return self._cache[factors]
        if self._shots == 0:
            result = self._exact(factors)
        else:
            result = self._sampled(factors)
        self._cache[factors] = result
        return result

    def _exact(self, factors: PauliString) -> float:
        amps = self._state.amplitudes
        shifted = apply_pauli_string(amps, factors, self._state.num_qubits)
        return float(np.vdot(amps, shifted).real)

    def _sampled(self, factors: PauliString) -> float:
        n = self._state.num_qubits
        amps = self._state.amplitudes
        for site, axis in factors:
            if axis == "x":
                amps = apply_gate(amps, ir.h(site - 1), n)
            elif axis == "y":
                amps = apply_gate(amps, ir.rx(math.pi / 2, site - 1), n)
        probs = np.clip(np.abs(amps) ** 2, 0.0, None)
        probs /= probs.sum()
        draws = self._rng.multinomial(self._shots, probs)
        indices = np.arange(len(probs))
        parity = np.ones(len(probs))
        for site, _ in factors:
            bit_position = n - site
            parity *= 1.0 - 2.0 * ((indices >> bit_position) & 1)
        return float(np.dot(draws, parity) / self._shots)


def pauli_rotation_gates(factors: PauliString, angle: float) -> list[Gate]:
    """Circuit for exp(-i angle sigma_P): basis change, CNOT ladder, RZ."""
    qubits = [site - 1 for site, _ in factors]
    enter: list[Gate] = []
    leave: list[Gate] = []
    for (site, axis), q in zip(factors, qubits):
        if axis == "x":
            enter.append(ir.h(q))
            leave.append(ir.h(q))
        elif axis == "y":
            enter.append(ir.rx(math.pi / 2, q))
            leave.append(ir.rx(-math.pi / 2, q))
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
    basis: Sequence[PauliString],
    terms: Sequence[PauliTerm],
    params: QiteParams,
    rng=None,
) -> TermFit:
    """Fit the step unitary for h = sum of ``terms`` over ``basis``."""
    n = state.num_qubits
    estimate = PauliExpectations(state, params.shots, rng).value

    energy = 0.0
    second_moment = 0.0
    for t1 in terms:
        energy += t1.coefficient * estimate(t1.factors)
        for t2 in terms:
            phase, product = pauli_string_product(t1.factors, t2.factors)
            # imaginary parts cancel over the symmetric (t1, t2) sum
            if phase.real != 0.0:
                second_moment += (
                    t1.coefficient * t2.coefficient * phase.real * estimate(product)
                )
    c = 1.0 - 2.0 * params.dbeta * energy + params.dbeta**2 * second_moment
    if c <= 1e-12:
        raise SingularSystemError(
            f"step normalization collapsed (c = {c:.3e}); reduce dbeta"
        )
    sqrt_c = math.sqrt(c)

    m = len(basis)
    s_matrix = np.empty((m, m))
    b_vector = np.zeros(m)
    for i, left in enumerate(basis):
        for j in range(i, m):
            phase, product = pauli_string_product(left, basis[j])
            entry = phase.real * estimate(product) if phase.real != 0.0 else 0.0
            s_matrix[i, j] = entry
            s_matrix[j, i] = entry
        for term in terms:
            phase, product = pauli_string_product(left, term.factors)
            if phase.imag != 0.0:
                b_vector[i] += (
                    term.coefficient * phase.imag * estimate(product) / sqrt_c
                )

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
    for a_i, string in zip(a, basis):
        gates.extend(pauli_rotation_gates(string, params.dbeta * float(a_i)))
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
    window = domain_window(term, params.domain_radius, state.num_qubits)
    return _fit_unitary(state, pauli_basis(window), [term], params, rng)


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
        program_gates = list(initial_state.gates)
    else:
        if len(initial_state) != n:
            raise ValueError("initial state length does not match the chain")
        program_gates = list(state_preparation_gates(initial_state))
    terms = snapshot(hamiltonian, 0.0)
    rng = np.random.default_rng(params.seed)

    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    for gate in program_gates:
        amps = apply_gate(amps, gate, n)

    def measured_energy() -> tuple[float, float | None]:
        # energy and its standard error; each Pauli string is sampled with
        # its own shots, so sigma^2 = sum_i c_i^2 (1 - <P_i>^2) / shots
        state = Statevector(n, amps)
        if params.shots == 0:
            return expectation(state, terms), None
        estimate = PauliExpectations(state, params.shots, rng).value
        values = [estimate(t.factors) for t in terms]
        energy = sum(t.coefficient * v for t, v in zip(terms, values))
        variance = sum(t.coefficient**2 * (1.0 - v * v) for t, v in zip(terms, values))
        return energy, math.sqrt(variance / params.shots)

    reports = [
        QiteStepReport(
            0, *measured_energy(), (), 0.0, 1.0, Program(n, tuple(program_gates))
        )
    ]
    basis = hamiltonian_basis(terms, params.domain_radius, n)
    for step in range(1, params.num_steps + 1):
        fit = _fit_unitary(Statevector(n, amps), basis, terms, params, rng)
        for gate in fit.program.gates:
            amps = apply_gate(amps, gate, n)
        program_gates.extend(fit.program.gates)
        reports.append(
            QiteStepReport(
                step,
                *measured_energy(),
                fit.coefficients,
                fit.residual,
                fit.normalization,
                Program(n, tuple(program_gates)),
            )
        )
    return reports
