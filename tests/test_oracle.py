"""Dense-diagonalization references: exact spectra and exact flows."""

import math

import numpy as np
import pytest

from helpers import random_state
from spinsim import backend
from spinsim.backend import Statevector, expectation, product_state
from spinsim.config import ConstantSchedule, LinearRampSchedule
from spinsim.errors import TooLargeError, ZeroOverlapError
from spinsim.hamiltonian import HeisenbergHamiltonian, PauliTerm
from spinsim.oracle import evolve_exact, evolve_imaginary_exact, ground_state


def tfim_terms(num_spins: int) -> list[PauliTerm]:
    terms = [
        PauliTerm(1.0, ((i, "z"), (i + 1, "z"))) for i in range(1, num_spins)
    ]
    terms += [PauliTerm(1.0, ((i, "x"),)) for i in range(1, num_spins + 1)]
    return terms


class TestGroundState:
    def test_z_field(self):
        energy, state = ground_state([PauliTerm(1.0, ((1, "z"),))], 1)
        assert energy == pytest.approx(-1.0)
        assert abs(state.amplitudes[1]) == pytest.approx(1.0)

    def test_x_field(self):
        energy, state = ground_state([PauliTerm(1.0, ((1, "x"),))], 1)
        assert energy == pytest.approx(-1.0)
        np.testing.assert_allclose(
            np.abs(state.amplitudes), [1, 1] / np.sqrt(2), atol=1e-12
        )

    def test_three_site_transverse_chain_reference(self):
        energy, state = ground_state(tfim_terms(3), 3)
        assert energy == pytest.approx(-3.493959207434935, abs=1e-12)
        assert expectation(state, tfim_terms(3)) == pytest.approx(energy, abs=1e-10)

    def test_matches_power_iteration(self):
        # independent route: inverse-shifted power iteration on the
        # dense matrix, no eigh involved
        from spinsim.hamiltonian import dense_matrix

        terms = tfim_terms(3)
        matrix = dense_matrix(terms, 3)
        shift = 10.0
        shifted = shift * np.eye(8) - matrix
        rng = np.random.default_rng(0)
        vector = rng.normal(size=8).astype(complex)
        vector /= np.linalg.norm(vector)
        for _ in range(600):
            vector = shifted @ vector
            vector /= np.linalg.norm(vector)
        rayleigh = float(np.vdot(vector, matrix @ vector).real)
        energy, _ = ground_state(terms, 3)
        assert energy == pytest.approx(rayleigh, abs=1e-9)

    def test_size_guard(self):
        with pytest.raises(TooLargeError):
            ground_state([PauliTerm(1.0, ((1, "z"),))], 11)


class TestEvolveExact:
    def test_time_zero_is_identity(self):
        rng = np.random.default_rng(1)
        state = random_state(rng, 2)
        hamiltonian = HeisenbergHamiltonian(
            2, {("z", 1): ConstantSchedule(1.0)}, {}
        )
        [out] = evolve_exact(hamiltonian, [0.0], state)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes)

    def test_rabi_oscillation(self):
        h = 0.7
        hamiltonian = HeisenbergHamiltonian(
            1, {}, {("x", 1): ConstantSchedule(h)}
        )
        z_term = [PauliTerm(1.0, ((1, "z"),))]
        times = (0.0, 0.3, 1.1, 2.5)
        for t, state in zip(times, evolve_exact(hamiltonian, times, product_state(["up"]))):
            assert expectation(state, z_term) == pytest.approx(
                math.cos(2.0 * h * t), abs=1e-12
            )

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        state = random_state(rng, 3)
        hamiltonian = HeisenbergHamiltonian(
            3,
            {("x", i): ConstantSchedule(0.8) for i in (1, 2)},
            {("z", i): ConstantSchedule(0.5) for i in (1, 2, 3)},
        )
        [out] = evolve_exact(hamiltonian, [2.0], state)
        assert math.sqrt(backend._real_dot(out.amplitudes, out.amplitudes)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_grid_is_bit_equal_to_single_point_calls(self):
        rng = np.random.default_rng(4)
        initial = random_state(rng, 3)
        hamiltonian = HeisenbergHamiltonian(
            3,
            {("x", i): ConstantSchedule(0.8) for i in (1, 2)},
            {("z", i): ConstantSchedule(0.5 * i) for i in (1, 2, 3)},
        )
        times = (0.0, 0.4, 1.3, 2.0, 0.0)
        for t, state in zip(times, evolve_exact(hamiltonian, times, initial), strict=True):
            [single] = evolve_exact(hamiltonian, [t], initial)
            assert np.array_equal(state.amplitudes, single.amplitudes), t

    def test_width_mismatch_rejected(self):
        hamiltonian = HeisenbergHamiltonian(
            2, {("z", 1): ConstantSchedule(1.0)}, {}
        )
        with pytest.raises(ValueError):
            evolve_exact(hamiltonian, [1.0], product_state(["up"]))

    def test_substep_refinement_converges_like_second_order(self):
        # midpoint slicing should show ~4x error drop per halving of
        # the slice width; the static z field keeps successive
        # snapshots from commuting
        fields = {
            ("x", 1): LinearRampSchedule(0.0, 2.0, 1.0),
            ("z", 1): ConstantSchedule(1.0),
        }
        hamiltonian = HeisenbergHamiltonian(1, {}, fields)
        initial = product_state(["up"])
        [reference] = evolve_exact(hamiltonian, [1.0], initial, substeps=4096)
        errors = []
        for substeps in (8, 16, 32):
            [state] = evolve_exact(hamiltonian, [1.0], initial, substeps=substeps)
            errors.append(np.abs(state.amplitudes - reference.amplitudes).max())
        ratios = [errors[0] / errors[1], errors[1] / errors[2]]
        assert all(3.0 <= r <= 5.0 for r in ratios)

    def test_bad_substeps_rejected(self):
        fields = {("x", 1): LinearRampSchedule(0.0, 2.0, 1.0)}
        hamiltonian = HeisenbergHamiltonian(1, {}, fields)
        with pytest.raises(ValueError):
            evolve_exact(hamiltonian, [1.0], product_state(["up"]), substeps=0)

    def test_size_guard(self):
        hamiltonian = HeisenbergHamiltonian(
            11, {("z", 1): ConstantSchedule(1.0)}, {}
        )
        rng = np.random.default_rng(0)
        with pytest.raises(TooLargeError):
            evolve_exact(hamiltonian, [1.0], random_state(rng, 11))


class TestEvolveImaginaryExact:
    def test_beta_zero_returns_initial(self):
        rng = np.random.default_rng(2)
        initial = random_state(rng, 2)
        [(state, energy)] = evolve_imaginary_exact(tfim_terms(2), [0.0], initial)
        np.testing.assert_allclose(
            np.abs(state.amplitudes), np.abs(initial.amplitudes), atol=1e-12
        )
        assert energy == pytest.approx(expectation(initial, tfim_terms(2)))

    def test_grid_is_bit_equal_to_single_point_calls(self):
        initial = product_state(["up", "down", "up"])
        betas = (0.0, 0.3, 1.0, 4.0)
        grid = evolve_imaginary_exact(tfim_terms(3), betas, initial)
        for beta, (state, energy) in zip(betas, grid, strict=True):
            [(single, single_energy)] = evolve_imaginary_exact(tfim_terms(3), [beta], initial)
            assert np.array_equal(state.amplitudes, single.amplitudes), beta
            assert energy == single_energy, beta

    def test_large_beta_projects_to_ground_state(self):
        exact_energy, _ = ground_state(tfim_terms(3), 3)
        initial = product_state(["up"] * 3)
        [(state, energy)] = evolve_imaginary_exact(tfim_terms(3), [50.0], initial)
        assert abs(energy - exact_energy) <= 1e-8

    def test_single_spin_follows_tanh(self):
        terms = [PauliTerm(1.0, ((1, "z"),))]
        plus = Statevector(1, np.array([1.0, 1.0]) / np.sqrt(2.0))
        betas = (0.1, 0.5, 2.0)
        for beta, (_, energy) in zip(betas, evolve_imaginary_exact(terms, betas, plus)):
            assert energy == pytest.approx(-math.tanh(2.0 * beta), abs=1e-12)

    def test_energy_monotone_in_beta(self):
        initial = product_state(["up", "up"])
        betas = (0.0, 0.5, 1.0, 2.0, 4.0)
        energies = [energy for _, energy in evolve_imaginary_exact(tfim_terms(2), betas, initial)]
        assert all(b < a + 1e-12 for a, b in zip(energies, energies[1:]))

    def test_variational_bound(self):
        exact_energy, _ = ground_state(tfim_terms(2), 2)
        rng = np.random.default_rng(9)
        for _ in range(10):
            state = random_state(rng, 2)
            [(_, energy)] = evolve_imaginary_exact(tfim_terms(2), [1.5], state)
            assert energy >= exact_energy - 1e-9

    def test_orthogonal_start_raises_at_huge_beta(self):
        # |0> has no overlap with the decayed sector once everything
        # but the ground state is suppressed below float range
        terms = [PauliTerm(1.0, ((1, "z"),))]
        with pytest.raises(ZeroOverlapError):
            evolve_imaginary_exact(terms, [400.0], product_state(["up"]))

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            evolve_imaginary_exact(tfim_terms(2), [-0.1], product_state(["up", "up"]))

    def test_size_guard(self):
        rng = np.random.default_rng(0)
        with pytest.raises(TooLargeError):
            evolve_imaginary_exact(
                [PauliTerm(1.0, ((1, "z"),))], [1.0], random_state(rng, 11)
            )
