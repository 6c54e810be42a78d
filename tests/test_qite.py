"""Imaginary-time evolution: fitting, windows, and convergence."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import embedded_pauli, matrix_exponential, random_state
import spinsim
from spinsim import backend, ir, qite
from spinsim.backend import (
    ReadPlan,
    _measurement_groups,
    expectation,
    pauli_factors,
    pauli_masks,
    pauli_rotations,
    product_state,
    run_statevector,
    sample_counts,
)
from spinsim.config import ConstantSchedule, LinearRampSchedule
from spinsim.errors import SingularSystemError, UnsupportedFeatureError
from spinsim.hamiltonian import HeisenbergHamiltonian, PauliTerm, snapshot
from spinsim.ir import Program
from spinsim.oracle import ground_state
from spinsim.qite import (
    REGULARIZATION,
    QiteParams,
    domain_window,
    fit_step_unitary,
    fitting_basis,
    hamiltonian_basis,
    odd_y,
    pauli_rotation_gates,
    pauli_string_product,
    run_qite,
)
from spinsim.trotter import state_preparation_gates


def tfim(num_spins: int, j_z: float = 1.0, h_x: float = 1.0) -> HeisenbergHamiltonian:
    bonds = {("z", i): ConstantSchedule(j_z) for i in range(1, num_spins)}
    fields = {("x", i): ConstantSchedule(h_x) for i in range(1, num_spins + 1)}
    return HeisenbergHamiltonian(num_spins, bonds, fields)


def random_field_tfim(num_spins: int) -> HeisenbergHamiltonian:
    """The TFIM with unit bonds and x fields drawn from U(0.8, 1.2), seed 4."""
    h_x = np.random.default_rng(4).uniform(0.8, 1.2, num_spins)
    bonds = {("z", i): ConstantSchedule(1.0) for i in range(1, num_spins)}
    fields = {("x", i): ConstantSchedule(float(v)) for i, v in enumerate(h_x, 1)}
    return HeisenbergHamiltonian(num_spins, bonds, fields)


def single_field(axis: str, coefficient: float = 1.0) -> HeisenbergHamiltonian:
    return HeisenbergHamiltonian(1, {}, {(axis, 1): ConstantSchedule(coefficient)})


def test_every_exported_name_resolves():
    for name in spinsim.__all__:
        assert hasattr(spinsim, name), name
    assert "fit_step_unitary" in spinsim.__all__
    assert spinsim.fit_step_unitary is fit_step_unitary


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            QiteParams(dbeta=0.0, num_steps=1)
        with pytest.raises(ValueError):
            QiteParams(dbeta=0.1, num_steps=0)
        with pytest.raises(ValueError):
            QiteParams(dbeta=0.1, num_steps=1, domain_radius=-1)

    def test_defaults(self):
        params = QiteParams(dbeta=0.1, num_steps=5)
        assert params.domain_radius == 0
        assert REGULARIZATION == 1e-6
        assert params.shots == 0


class TestDomainWindow:
    def test_interior_site_widened_both_sides(self):
        term = PauliTerm(1.0, ((3, "z"),))
        assert domain_window(term, 1, 5) == (2, 3, 4)

    def test_zero_radius_is_support(self):
        term = PauliTerm(1.0, ((2, "x"), (3, "x")))
        assert domain_window(term, 0, 5) == (2, 3)

    def test_left_edge_slides_inward(self):
        term = PauliTerm(1.0, ((1, "z"),))
        assert domain_window(term, 1, 5) == (1, 2, 3)

    def test_right_edge_slides_inward(self):
        term = PauliTerm(1.0, ((5, "z"),))
        assert domain_window(term, 1, 5) == (3, 4, 5)

    def test_window_capped_at_chain(self):
        term = PauliTerm(1.0, ((2, "z"),))
        assert domain_window(term, 4, 3) == (1, 2, 3)

    def test_width_is_size_preserving_everywhere(self):
        n, radius = 7, 2
        widths = {
            len(domain_window(PauliTerm(1.0, ((s, "z"),)), radius, n))
            for s in range(1, n + 1)
        }
        assert widths == {1 + 2 * radius}


def factor_basis(terms, radius, num_spins):
    """The basis as factor tuples: each window's strings in product order, first wins."""
    strings = []
    for term in terms:
        window = domain_window(term, radius, num_spins)
        for combo in itertools.product(("i", "x", "y", "z"), repeat=len(window)):
            factors = tuple((site, axis) for site, axis in zip(window, combo) if axis != "i")
            if factors and factors not in strings:
                strings.append(factors)
    return strings


class TestPauliBasis:
    def test_sizes_follow_four_to_the_k(self):
        for width, size in ((1, 3), (2, 15), (3, 63)):
            term = PauliTerm(1.0, tuple((s, "z") for s in range(1, width + 1)))
            assert len(hamiltonian_basis([term], 0, width)) == size

    def test_strings_are_unique_and_nonempty(self):
        basis = hamiltonian_basis([PauliTerm(1.0, ((2, "x"), (3, "y")))], 0, 4)
        assert len(set(basis)) == len(basis)
        assert (0, 0) not in basis

    def test_hamiltonian_basis_unions_windows(self):
        terms = [PauliTerm(1.0, ((1, "z"),)), PauliTerm(1.0, ((2, "z"),))]
        joint = hamiltonian_basis(terms, 0, 2)
        assert set(joint) == set(hamiltonian_basis(terms[:1], 0, 2)) | set(
            hamiltonian_basis(terms[1:], 0, 2)
        )

    def test_hamiltonian_basis_deduplicates(self):
        terms = [PauliTerm(1.0, ((1, "z"),)), PauliTerm(0.5, ((1, "x"),))]
        joint = hamiltonian_basis(terms, 0, 1)
        assert len(joint) == 3

    @pytest.mark.parametrize("seed", range(16))
    @pytest.mark.parametrize("radius", [0, 1])
    def test_order_matches_factor_tuples(self, seed, radius):
        # S's layout and the bit-equal fit depend on this order
        state, _, terms, _ = random_fit_problem(seed)
        n = state.num_qubits
        want = [pauli_masks(string, n) for string in factor_basis(terms, radius, n)]
        assert hamiltonian_basis(terms, radius, n) == want

    def test_three_site_window_order(self):
        # windows (2, 3, 4) and (3, 4, 5) share the 15 strings on sites 3 and 4
        terms = [PauliTerm(1.0, ((3, "x"),)), PauliTerm(0.5, ((4, "z"),))]
        want = [pauli_masks(string, 5) for string in factor_basis(terms, 1, 5)]
        assert len(want) == 63 + 63 - 15
        assert hamiltonian_basis(terms, 1, 5) == want


def product(first, second, n=3):
    """pauli_string_product on factor tuples: (phase, product factors)."""
    phase, masks = pauli_string_product(pauli_masks(first, n), pauli_masks(second, n))
    return phase, pauli_factors(masks, n)


class TestPauliAlgebra:
    def test_xy_gives_iz(self):
        phase, string = product(((1, "x"),), ((1, "y"),))
        assert phase == 1j
        assert string == ((1, "z"),)

    def test_square_is_identity(self):
        phase, string = product(((2, "y"),), ((2, "y"),))
        assert phase == 1.0
        assert string == ()

    def test_disjoint_supports_merge_sorted(self):
        phase, string = product(((3, "z"),), ((1, "x"),))
        assert phase == 1.0
        assert string == ((1, "x"), (3, "z"))

    def test_order_flips_sign_of_phase(self):
        forward, _ = product(((1, "x"),), ((1, "z"),))
        backward, _ = product(((1, "z"),), ((1, "x"),))
        assert forward == -backward

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_dense_multiplication(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        axes = ["i", "x", "y", "z"]
        first = tuple(
            (s, a) for s in range(1, n + 1) if (a := axes[rng.integers(4)]) != "i"
        )
        second = tuple(
            (s, a) for s in range(1, n + 1) if (a := axes[rng.integers(4)]) != "i"
        )
        phase, string = product(first, second, n)
        want = embedded_pauli(first, n) @ embedded_pauli(second, n)
        got = phase * embedded_pauli(string, n)
        np.testing.assert_allclose(got, want, atol=1e-12)


    @given(
        masks=st.lists(st.tuples(*[st.integers(0, 2**32 - 1)] * 4), min_size=1, max_size=20)
    )
    @settings(max_examples=50, deadline=None)
    def test_array_form_matches_int_form(self, masks):
        x1, z1, x2, z2 = np.array(masks, dtype=np.int64).T
        phases, (x, z) = pauli_string_product((x1, z1), (x2, z2))
        for k, (a, b, c, d) in enumerate(masks):
            phase, (x_k, z_k) = pauli_string_product((a, b), (c, d))
            assert (phase, (x_k, z_k)) == scalar_product((a, b), (c, d))
            assert phases[k] == phase
            assert (x[k], z[k]) == (x_k, z_k)


def scalar_product(first, second):
    """The product rule on int masks with ``int.bit_count``, one pair at a time."""
    (x1, z1), (x2, z2) = first, second
    x, z = x1 ^ x2, z1 ^ z2
    k = (x1 & z1).bit_count() + (x2 & z2).bit_count() - (x & z).bit_count()
    return (1.0 + 0.0j, 1j, -1.0 + 0.0j, -1j)[(k + 2 * (z1 & x2).bit_count()) % 4], (x, z)


def scalar_fit(state, basis, terms, params):
    """The exact fit as one scalar loop over mask pairs, with one cached value per string.

    A frozen reference for ``qite.fit_step_unitary``: strings are multiplied
    one pair at a time, values come from one exact ``ReadPlan`` over the
    strings the fit reads (a string's value does not depend on the other
    strings of the plan), and every sum runs term by term.
    """
    n = state.num_qubits
    strings = read_strings(basis, terms, n)
    cache = dict(zip(strings, ReadPlan(strings, n).values(state).tolist()))
    cache[0, 0] = 1.0

    def estimate(masks):
        return cache[masks]

    h = [(t.coefficient, pauli_masks(t.factors, n)) for t in terms]
    energy = 0.0
    second_moment = 0.0
    for c1, masks1 in h:
        energy += c1 * estimate(masks1)
        for c2, masks2 in h:
            phase, masks = scalar_product(masks1, masks2)
            if phase.real != 0.0:
                second_moment += c1 * c2 * phase.real * estimate(masks)
    c = 1.0 - 2.0 * params.dbeta * energy + params.dbeta**2 * second_moment
    sqrt_c = math.sqrt(c)
    m = len(basis)
    s_matrix = np.empty((m, m))
    b_vector = np.zeros(m)
    for i, left in enumerate(basis):
        for j in range(i, m):
            phase, masks = scalar_product(left, basis[j])
            entry = phase.real * estimate(masks) if phase.real != 0.0 else 0.0
            s_matrix[i, j] = entry
            s_matrix[j, i] = entry
        for coefficient, term_masks in h:
            phase, masks = scalar_product(left, term_masks)
            if phase.imag != 0.0:
                b_vector[i] += coefficient * phase.imag * estimate(masks) / sqrt_c
    a = np.linalg.solve(s_matrix + REGULARIZATION * np.eye(m), b_vector)
    residual = float(np.linalg.norm(s_matrix @ a - b_vector))
    return tuple(float(v) for v in a), residual, c


def random_fit_problem(seed):
    """A random complex state, 1-11 random terms on adjacent sites, and their basis."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    radius = int(rng.integers(2))
    terms = []
    for _ in range(int(rng.integers(1, 12))):
        first = int(rng.integers(1, n + 1))
        sites = range(first, min(first + int(rng.integers(1, 3)), n + 1))
        factors = tuple((s, str(rng.choice(["x", "y", "z"]))) for s in sites)
        terms.append(PauliTerm(float(rng.normal()), factors))
    return random_state(rng, n), hamiltonian_basis(terms, radius, n), terms, radius


class TestFitAgainstScalarLoop:
    @pytest.mark.parametrize("seed", range(16))
    def test_exact_fit_is_bit_equal(self, seed):
        state, basis, terms, radius = random_fit_problem(seed)
        params = QiteParams(dbeta=0.2, num_steps=1, domain_radius=radius)
        fit = fit_step_unitary(state, basis, terms, params, 0)
        assert fit == scalar_fit(state, basis, terms, params)

    def test_both_radii_and_every_axis_are_covered(self):
        problems = [random_fit_problem(seed) for seed in range(16)]
        assert {radius for *_, radius in problems} == {0, 1}
        assert {axis for _, _, terms, _ in problems for t in terms for _, axis in t.factors} == {
            "x",
            "y",
            "z",
        }
        assert max(state.num_qubits for state, *_ in problems) == 5


def read_strings(basis, terms, n):
    """The distinct non-identity strings one fit reads, in key order (x << n | z)."""
    h = [pauli_masks(t.factors, n) for t in terms]
    strings = set(h)
    for pairs, part in (
        (itertools.product(h, h), "real"),
        (itertools.combinations_with_replacement(basis, 2), "real"),
        (itertools.product(basis, h), "imag"),
    ):
        for first, second in pairs:
            phase, masks = scalar_product(first, second)
            if getattr(phase, part) != 0.0:
                strings.add(masks)
    strings.discard((0, 0))
    return sorted(strings, key=lambda masks: masks[0] << n | masks[1])


class TestSampledFit:
    @pytest.mark.parametrize("seed", range(4))
    def test_one_draw_per_measurement_group(self, seed, monkeypatch):
        state, basis, terms, radius = random_fit_problem(seed)
        params = QiteParams(dbeta=0.2, num_steps=1, domain_radius=radius, shots=64)
        draws = []

        def counting(state, shots, seed):
            draws.append(shots)
            return sample_counts(state, shots, seed)

        monkeypatch.setattr(backend, "sample_counts", counting)
        fit_step_unitary(state, basis, terms, params, np.random.default_rng(seed))
        strings = read_strings(basis, terms, state.num_qubits)
        groups = _measurement_groups(strings)
        assert draws == [64] * len(groups)
        assert len(groups) < len(strings)

    def test_equal_generators_give_equal_fits(self):
        state, basis, terms, radius = random_fit_problem(5)
        params = QiteParams(dbeta=0.2, num_steps=1, domain_radius=radius, shots=64)
        first = fit_step_unitary(state, basis, terms, params, np.random.default_rng(8))
        second = fit_step_unitary(state, basis, terms, params, np.random.default_rng(8))
        assert first == second


class TestReadPlan:
    """run_qite plans its fits once: string products and measurement groups."""

    @staticmethod
    def counted(monkeypatch):
        calls = {"products": 0, "groups": 0}
        product, grouping = qite.pauli_string_product, backend._measurement_groups

        def counting_product(*args):
            calls["products"] += 1
            return product(*args)

        def counting_groups(masks):
            calls["groups"] += 1
            return grouping(masks)

        monkeypatch.setattr(qite, "pauli_string_product", counting_product)
        monkeypatch.setattr(backend, "_measurement_groups", counting_groups)
        return calls

    @pytest.mark.parametrize("shots", [0, 64])
    def test_the_plan_does_not_grow_with_the_steps(self, shots, monkeypatch):
        calls = self.counted(monkeypatch)
        counts = []
        for num_steps in (1, 4):
            calls.update(products=0, groups=0)
            params = QiteParams(dbeta=0.2, num_steps=num_steps, domain_radius=1, shots=shots)
            run_qite(random_field_tfim(4), params, ["up"] * 4)
            counts.append(dict(calls))
        # three products (hh, S, b); the reads' groups and the terms' groups
        assert counts == [{"products": 3, "groups": 2 if shots else 0}] * 2

    def test_every_sampled_step_draws_once_per_measurement_group(self, monkeypatch):
        hamiltonian, spins = random_field_tfim(4), ["up", "down", "up", "up"]
        params = QiteParams(dbeta=0.2, num_steps=3, domain_radius=1, shots=64, seed=5)
        draws = []

        def counting(state, shots, seed):
            draws.append(shots)
            return sample_counts(state, shots, seed)

        monkeypatch.setattr(backend, "sample_counts", counting)
        run_qite(hamiltonian, params, spins)
        terms = snapshot(hamiltonian, 0.0)
        basis = fitting_basis(terms, 1, product_state(spins))
        fit_groups = _measurement_groups(read_strings(basis, terms, 4))
        term_groups = _measurement_groups([pauli_masks(t.factors, 4) for t in terms])
        per_step = len(term_groups) + len(fit_groups)
        assert draws == [64] * (params.num_steps * per_step + len(term_groups))


class TestRotationGates:
    @pytest.mark.parametrize(
        "factors",
        [
            ((1, "z"),),
            ((1, "x"),),
            ((2, "y"),),
            ((1, "x"), (2, "y")),
            ((1, "z"), (3, "z")),
            ((1, "x"), (2, "y"), (3, "z")),
        ],
    )
    def test_matches_exponential(self, factors):
        angle = 0.37
        n = max(s for s, _ in factors)
        program = Program(n, tuple(pauli_rotation_gates(factors, angle)))
        want = matrix_exponential(-1j * angle * embedded_pauli(factors, n))
        np.testing.assert_allclose(ir.unitary_of(program), want, atol=1e-12)

    def test_uses_only_native_kinds(self):
        gates = pauli_rotation_gates(((1, "x"), (2, "y"), (3, "z")), 0.5)
        assert {g.kind for g in gates} <= {"h", "rx", "rz", "cnot"}


def fit_one_term(state, term, params):
    """fit_step_unitary for h = term over the term's own window, exact mode."""
    basis = hamiltonian_basis([term], params.domain_radius, state.num_qubits)
    return fit_step_unitary(state, basis, [term], params, 0)


def fitted_gates(coefficients, basis, params, num_qubits):
    """The circuit of a fit: each string's rotation by dbeta a_I, in basis order."""
    gates = []
    for a, masks in zip(coefficients, basis, strict=True):
        gates += pauli_rotation_gates(pauli_factors(masks, num_qubits), params.dbeta * a)
    return tuple(gates)


class TestSingleStepFit:
    def test_plus_state_magnetization_after_one_step(self):
        # against a z field the exact flow gives <sigma_z> = -tanh(2 dbeta)
        params = QiteParams(dbeta=0.1, num_steps=1)
        plus = run_statevector(Program(1, (ir.h(0),)))
        term = PauliTerm(1.0, ((1, "z"),))
        coefficients, _, _ = fit_one_term(plus, term, params)
        gates = fitted_gates(coefficients, hamiltonian_basis([term], 0, 1), params, 1)
        after = run_statevector(Program(1, gates), initial=plus)
        got = expectation(after, [term])
        assert abs(got - (-math.tanh(0.2))) <= 5e-3

    def test_normalization_tracks_second_moment(self):
        # at <h> = 0 the factor reduces to 1 + dbeta^2 <h^2>
        params = QiteParams(dbeta=0.1, num_steps=1)
        plus = run_statevector(Program(1, (ir.h(0),)))
        *_, normalization = fit_one_term(plus, PauliTerm(1.0, ((1, "z"),)), params)
        assert normalization == pytest.approx(1.01, abs=1e-9)

    def test_residual_small_in_exact_mode(self):
        params = QiteParams(dbeta=0.1, num_steps=1)
        plus = run_statevector(Program(1, (ir.h(0),)))
        _, residual, _ = fit_one_term(plus, PauliTerm(1.0, ((1, "z"),)), params)
        assert residual <= 1e-6

    def test_vanishing_evolution_rate_raises(self):
        # dbeta = 1 against a z field on |0> makes the normalization
        # factor 1 - 2<h> + <h^2> collapse to zero
        params = QiteParams(dbeta=1.0, num_steps=1)
        with pytest.raises(SingularSystemError):
            fit_one_term(product_state(["up"]), PauliTerm(1.0, ((1, "z"),)), params)


class TestRunQite:
    def test_report_structure(self):
        params = QiteParams(dbeta=0.2, num_steps=4)
        reports = run_qite(tfim(2), params, ["up", "up"])
        assert [r.step for r in reports] == [0, 1, 2, 3, 4]
        assert reports[0].coefficients == ()
        assert reports[0].normalization == 1.0

    def test_energies_strictly_decrease_from_generic_state(self):
        params = QiteParams(dbeta=0.3, num_steps=8)
        reports = run_qite(tfim(3), params, ["up", "up", "up"])
        energies = [r.energy for r in reports]
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_converges_to_ground_energy(self):
        exact, _ = ground_state(
            [
                PauliTerm(1.0, ((1, "z"), (2, "z"))),
                PauliTerm(1.0, ((2, "z"), (3, "z"))),
                PauliTerm(1.0, ((1, "x"),)),
                PauliTerm(1.0, ((2, "x"),)),
                PauliTerm(1.0, ((3, "x"),)),
            ],
            3,
        )
        params = QiteParams(dbeta=0.3, num_steps=25)
        reports = run_qite(tfim(3), params, ["up", "up", "up"])
        assert abs(reports[-1].energy - exact) / abs(exact) <= 1e-3

    def test_variational_bound_respected(self):
        exact, _ = ground_state(
            [
                PauliTerm(1.0, ((1, "z"), (2, "z"))),
                PauliTerm(1.0, ((1, "x"),)),
                PauliTerm(1.0, ((2, "x"),)),
            ],
            2,
        )
        params = QiteParams(dbeta=0.3, num_steps=30)
        reports = run_qite(tfim(2), params, ["up", "up"])
        assert all(r.energy >= exact - 1e-9 for r in reports)

    def test_smaller_dbeta_lands_closer(self):
        exact, _ = ground_state(
            [
                PauliTerm(1.0, ((1, "z"), (2, "z"))),
                PauliTerm(1.0, ((1, "x"),)),
                PauliTerm(1.0, ((2, "x"),)),
            ],
            2,
        )
        beta_total = 3.0
        errors = []
        for steps in (10, 20):
            params = QiteParams(dbeta=beta_total / steps, num_steps=steps)
            reports = run_qite(tfim(2), params, ["up", "up"])
            errors.append(abs(reports[-1].energy - exact))
        assert errors[1] < errors[0]

    def test_eigenstate_is_stationary(self):
        # |+> is an eigenstate of a pure x field; the fit must return
        # all-zero coefficients and leave the energy fixed
        params = QiteParams(dbeta=0.2, num_steps=3)
        prep = Program(1, (ir.h(0),))
        reports = run_qite(single_field("x"), params, prep)
        assert reports[0].energy == pytest.approx(1.0)
        for report in reports[1:]:
            assert report.energy == pytest.approx(1.0, abs=1e-9)
            assert np.abs(report.coefficients).max() <= 1e-9

    def test_each_report_holds_only_its_own_step(self):
        params = QiteParams(dbeta=0.3, num_steps=4)
        hamiltonian = tfim(2)
        reports = run_qite(hamiltonian, params, ["down", "up"])
        preparation = state_preparation_gates(["down", "up"])
        assert preparation
        assert reports[0].program == Program(2, preparation)
        prepared = run_statevector(reports[0].program)
        basis = fitting_basis(snapshot(hamiltonian, 0.0), params.domain_radius, prepared)
        for report in reports[1:]:
            rebuilt = []
            for a, masks in zip(report.coefficients, basis, strict=True):
                rebuilt += pauli_rotation_gates(pauli_factors(masks, 2), params.dbeta * a)
            assert report.program == Program(2, tuple(rebuilt)), report.step

    def test_spins_and_their_preparation_circuit_give_equal_reports(self):
        # spins start from product_state, a circuit runs through run_statevector
        spins = ["down", "up", "down"]
        params = QiteParams(dbeta=0.3, num_steps=3)
        from_spins = run_qite(tfim(3), params, spins)
        preparation = Program(3, state_preparation_gates(spins))
        assert from_spins == run_qite(tfim(3), params, preparation)

    def test_cumulative_program_reproduces_energy(self):
        params = QiteParams(dbeta=0.3, num_steps=5)
        hamiltonian = tfim(2)
        reports = run_qite(hamiltonian, params, ["down", "up"])
        terms = [
            PauliTerm(1.0, ((1, "z"), (2, "z"))),
            PauliTerm(1.0, ((1, "x"),)),
            PauliTerm(1.0, ((2, "x"),)),
        ]
        # the preparation, then each step's own program in turn
        state, applied = None, 0
        for report in reports:
            state = run_statevector(report.program, initial=state)
            applied += len(report.program.gates)
            assert expectation(state, terms) == pytest.approx(report.energy, abs=1e-9)
            assert abs(state.norm() - 1.0) <= 1e-12 * max(applied, 1)

    def test_exported_circuits_replay_the_reported_energies(self):
        # the state follows rotations on masks; the gates must be the same rotations
        hamiltonian = random_field_tfim(7)
        terms = snapshot(hamiltonian, 0.0)
        reports = run_qite(hamiltonian, QiteParams(dbeta=0.3, num_steps=12), ["up"] * 7)
        state = None
        for report in reports:
            state = run_statevector(report.program, initial=state)
            assert abs(expectation(state, terms) - report.energy) <= 1e-12, report.step

    def test_preparation_program_width_checked(self):
        params = QiteParams(dbeta=0.1, num_steps=1)
        with pytest.raises(ValueError):
            run_qite(tfim(2), params, Program(3, ()))

    def test_initial_spins_length_checked(self):
        params = QiteParams(dbeta=0.1, num_steps=1)
        with pytest.raises(ValueError):
            run_qite(tfim(2), params, ["up"])

    def test_time_dependent_hamiltonian_rejected(self):
        fields = {("x", 1): LinearRampSchedule(0.0, 1.0, 1.0)}
        hamiltonian = HeisenbergHamiltonian(1, {}, fields)
        params = QiteParams(dbeta=0.1, num_steps=1)
        with pytest.raises(UnsupportedFeatureError):
            run_qite(hamiltonian, params, ["up"])

    def test_shot_mode_is_reproducible(self):
        params = QiteParams(dbeta=0.3, num_steps=3, shots=512, seed=7)
        a = run_qite(tfim(2), params, ["up", "up"])
        b = run_qite(tfim(2), params, ["up", "up"])
        assert [r.energy for r in a] == [r.energy for r in b]

    def test_shot_mode_measures_initial_energy(self):
        # the solve amplifies sampling noise over steps, but the energy
        # estimator itself must be statistically consistent
        exact_run = run_qite(tfim(2), QiteParams(dbeta=0.3, num_steps=1), ["up", "up"])
        shot_params = QiteParams(dbeta=0.3, num_steps=1, shots=200_000, seed=3)
        shot_run = run_qite(tfim(2), shot_params, ["up", "up"])
        assert abs(shot_run[0].energy - exact_run[0].energy) <= 0.02

    def test_domain_radius_grows_coefficient_vector(self):
        narrow = QiteParams(dbeta=0.3, num_steps=1, domain_radius=0)
        wide = QiteParams(dbeta=0.3, num_steps=1, domain_radius=1)
        reports_narrow = run_qite(tfim(3), narrow, ["up", "up", "up"])
        reports_wide = run_qite(tfim(3), wide, ["up", "up", "up"])
        assert len(reports_wide[1].coefficients) > len(reports_narrow[1].coefficients)


class TestSymmetryBasis:
    @pytest.mark.parametrize(
        "factors, want",
        [
            (((1, "y"),), True),
            (((1, "x"), (2, "z")), False),
            (((1, "y"), (2, "y")), False),
            (((1, "y"), (2, "x"), (3, "y"), (4, "y")), True),
        ],
    )
    def test_odd_y_counts_y_factors(self, factors, want):
        masks = pauli_masks(factors, 4)
        assert odd_y(masks) is want
        matrix = embedded_pauli(factors, 4)
        assert not np.any(matrix.real if want else matrix.imag)

    @pytest.mark.parametrize("shots", [0, 1000])
    def test_real_tfim_keeps_a_real_state(self, shots):
        # the even-y coefficients are zero only in exact arithmetic; fitting
        # them amplified float noise into |Im psi| of 1e-11 to 1e-5 by step 12
        n = 7
        h_x = np.random.default_rng(4).uniform(0.8, 1.2, n)
        bonds = {("z", i): ConstantSchedule(1.0) for i in range(1, n)}
        fields = {("x", i): ConstantSchedule(float(v)) for i, v in enumerate(h_x, 1)}
        hamiltonian = HeisenbergHamiltonian(n, bonds, fields)
        params = QiteParams(dbeta=0.3, num_steps=12, shots=shots, seed=5)
        reports = run_qite(hamiltonian, params, ["up"] * n)
        state = run_statevector(reports[0].program)
        basis = fitting_basis(snapshot(hamiltonian, 0.0), 0, state)
        assert len(basis) == 31
        assert all(odd_y(masks) for masks in basis)
        for report in reports[1:]:
            assert len(report.coefficients) == len(basis)
            state = run_statevector(report.program, initial=state)
            assert np.abs(state.amplitudes.imag).max() <= 1e-12, report.step

    @pytest.mark.parametrize("shots", [0, 1000])
    def test_the_evolved_state_is_exactly_real(self, shots, monkeypatch):
        # an odd-y rotation on masks multiplies by real numbers only
        states = []

        def recording(*args):
            states.append(pauli_rotations(*args))
            return states[-1]

        monkeypatch.setattr(qite, "pauli_rotations", recording)
        params = QiteParams(dbeta=0.3, num_steps=12, shots=shots, seed=5)
        reports = run_qite(random_field_tfim(7), params, ["up"] * 7)
        assert len(states) == len(reports) - 1 == 12
        for step, state in enumerate(states, 1):
            assert not state.amplitudes.imag.any(), step

    @pytest.mark.parametrize(
        "y_field, preparation, size",
        [
            (0.0, ["up", "down", "up"], 11),
            (0.4, ["up", "up", "up"], 27),
            (0.0, Program(3, (ir.rx(0.3, 0),)), 27),
        ],
        ids=["real", "y-field", "complex-preparation"],
    )
    def test_only_a_real_problem_cuts_the_basis(self, y_field, preparation, size):
        plain = tfim(3)
        fields = {**plain.field_coefficients, ("y", 2): ConstantSchedule(y_field)}
        hamiltonian = HeisenbergHamiltonian(3, plain.bond_coefficients, fields)
        reports = run_qite(hamiltonian, QiteParams(dbeta=0.3, num_steps=2), preparation)
        assert [len(r.coefficients) for r in reports[1:]] == [size, size]
