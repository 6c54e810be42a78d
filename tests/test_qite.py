"""Imaginary-time evolution: fitting, windows, and convergence."""

import math

import numpy as np
import pytest

from helpers import embedded_pauli, matrix_exponential
from spinsim import ir
from spinsim.backend import (
    expectation,
    pauli_factors,
    pauli_masks,
    product_state,
    run_statevector,
)
from spinsim.config import ConstantSchedule, LinearRampSchedule
from spinsim.errors import SingularSystemError, UnsupportedFeatureError
from spinsim.hamiltonian import HeisenbergHamiltonian, PauliTerm
from spinsim.ir import Program
from spinsim.oracle import ground_state
from spinsim.qite import (
    QiteParams,
    domain_window,
    fit_step_unitary,
    hamiltonian_basis,
    pauli_basis,
    pauli_rotation_gates,
    pauli_string_product,
    run_qite,
)


def tfim(num_spins: int, j_z: float = 1.0, h_x: float = 1.0) -> HeisenbergHamiltonian:
    bonds = {("z", i): ConstantSchedule(j_z) for i in range(1, num_spins)}
    fields = {("x", i): ConstantSchedule(h_x) for i in range(1, num_spins + 1)}
    return HeisenbergHamiltonian(num_spins, bonds, fields)


def single_field(axis: str, coefficient: float = 1.0) -> HeisenbergHamiltonian:
    return HeisenbergHamiltonian(1, {}, {(axis, 1): ConstantSchedule(coefficient)})


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
        assert params.regularization == 1e-6
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


class TestPauliBasis:
    def test_sizes_follow_four_to_the_k(self):
        assert len(pauli_basis((1,))) == 3
        assert len(pauli_basis((1, 2))) == 15
        assert len(pauli_basis((1, 2, 3))) == 63

    def test_strings_are_unique_and_nonempty(self):
        basis = pauli_basis((2, 3))
        assert len(set(basis)) == len(basis)
        assert all(basis)

    def test_hamiltonian_basis_unions_windows(self):
        terms = [PauliTerm(1.0, ((1, "z"),)), PauliTerm(1.0, ((2, "z"),))]
        joint = hamiltonian_basis(terms, 0, 2)
        assert set(joint) == set(pauli_basis((1,))) | set(pauli_basis((2,)))

    def test_hamiltonian_basis_deduplicates(self):
        terms = [PauliTerm(1.0, ((1, "z"),)), PauliTerm(0.5, ((1, "x"),))]
        joint = hamiltonian_basis(terms, 0, 1)
        assert len(joint) == 3


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


class TestSingleStepFit:
    def test_plus_state_magnetization_after_one_step(self):
        # against a z field the exact flow gives <sigma_z> = -tanh(2 dbeta)
        params = QiteParams(dbeta=0.1, num_steps=1)
        plus = run_statevector(Program(1, (ir.h(0),)))
        term = PauliTerm(1.0, ((1, "z"),))
        fit = fit_step_unitary(plus, term, params)
        after = run_statevector(Program(1, tuple(fit.program.gates)), initial=plus)
        got = expectation(after, [term])
        assert abs(got - (-math.tanh(0.2))) <= 5e-3

    def test_normalization_tracks_second_moment(self):
        # at <h> = 0 the factor reduces to 1 + dbeta^2 <h^2>
        params = QiteParams(dbeta=0.1, num_steps=1)
        plus = run_statevector(Program(1, (ir.h(0),)))
        fit = fit_step_unitary(plus, PauliTerm(1.0, ((1, "z"),)), params)
        assert fit.normalization == pytest.approx(1.01, abs=1e-9)

    def test_residual_small_in_exact_mode(self):
        params = QiteParams(dbeta=0.1, num_steps=1)
        plus = run_statevector(Program(1, (ir.h(0),)))
        fit = fit_step_unitary(plus, PauliTerm(1.0, ((1, "z"),)), params)
        assert fit.residual <= 1e-6

    def test_vanishing_evolution_rate_raises(self):
        # dbeta = 1 against a z field on |0> makes the normalization
        # factor 1 - 2<h> + <h^2> collapse to zero
        params = QiteParams(dbeta=1.0, num_steps=1)
        with pytest.raises(SingularSystemError):
            fit_step_unitary(
                product_state(["up"]), PauliTerm(1.0, ((1, "z"),)), params
            )


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

    def test_cumulative_program_reproduces_energy(self):
        params = QiteParams(dbeta=0.3, num_steps=5)
        hamiltonian = tfim(2)
        reports = run_qite(hamiltonian, params, ["down", "up"])
        terms = [
            PauliTerm(1.0, ((1, "z"), (2, "z"))),
            PauliTerm(1.0, ((1, "x"),)),
            PauliTerm(1.0, ((2, "x"),)),
        ]
        for report in reports:
            state = run_statevector(report.program)
            assert expectation(state, terms) == pytest.approx(report.energy, abs=1e-9)
            assert abs(state.norm() - 1.0) <= 1e-12 * max(len(report.program.gates), 1)

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
