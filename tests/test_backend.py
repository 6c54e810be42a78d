"""Statevector execution, sampling, and sampled estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import embedded_pauli, random_program, random_state
from spinsim import ir
from spinsim import backend
from spinsim.backend import (
    STATEVECTOR_QUBIT_LIMIT,
    Statevector,
    apply_pauli,
    expectation,
    estimate_with_sigma,
    pauli_factors,
    pauli_masks,
    product_state,
    run_statevector,
    sample_counts,
)
from spinsim.config import ConstantSchedule
from spinsim.errors import TooLargeError
from spinsim.hamiltonian import HeisenbergHamiltonian, PauliTerm, snapshot


def program_of(num_qubits, gates):
    return ir.Program(num_qubits=num_qubits, gates=tuple(gates))


class TestExecution:
    def test_empty_program_is_identity(self):
        state = run_statevector(program_of(2, []))
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0])

    def test_x_flips_qubit_zero(self):
        program = program_of(2, [ir.Gate("x", (0,))])
        state = run_statevector(program)
        np.testing.assert_allclose(state.amplitudes, [0, 0, 1, 0])

    def test_h_makes_uniform_superposition(self):
        program = program_of(1, [ir.Gate("h", (0,))])
        state = run_statevector(program)
        np.testing.assert_allclose(state.amplitudes, [1, 1] / np.sqrt(2))

    def test_bell_state(self):
        program = program_of(2, [ir.Gate("h", (0,)), ir.Gate("cnot", (0, 1))])
        state = run_statevector(program)
        np.testing.assert_allclose(
            state.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)]
        )

    def test_initial_state_respected(self):
        initial = product_state(["down", "up"])
        program = program_of(2, [ir.Gate("cnot", (0, 1))])
        state = run_statevector(program, initial=initial)
        np.testing.assert_allclose(state.amplitudes, [0, 0, 0, 1])

    def test_size_guard_uses_max_qubits(self):
        # raises before the 2^n amplitudes are allocated
        program = program_of(STATEVECTOR_QUBIT_LIMIT + 1, [])
        with pytest.raises(TooLargeError):
            run_statevector(program)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_unitary(self, seed):
        rng = np.random.default_rng(seed)
        program = random_program(rng, max_qubits=5, max_gates=25)
        initial = random_state(rng, program.num_qubits)
        got = run_statevector(program, initial=initial).amplitudes
        want = ir.unitary_of(program) @ initial.amplitudes
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_norm_drift_stays_below_budget(self):
        rng = np.random.default_rng(5)
        program = random_program(rng, max_qubits=6, max_gates=400, min_qubits=6)
        state = run_statevector(program)
        drift = abs(np.linalg.norm(state.amplitudes) - 1.0)
        assert drift <= 1e-12 * max(len(program.gates), 1)


class TestProductState:
    def test_all_up_is_zero_index(self):
        state = product_state(["up", "up", "up"])
        assert state.amplitudes[0] == 1.0

    def test_site_one_is_most_significant_bit(self):
        state = product_state(["down", "up", "up"])
        assert state.amplitudes[4] == 1.0

    def test_last_site_is_least_significant_bit(self):
        state = product_state(["up", "up", "down"])
        assert state.amplitudes[1] == 1.0


class TestPauliMasks:
    def test_site_one_is_most_significant_bit_and_y_sets_both(self):
        assert pauli_masks(((1, "x"),), 3) == (0b100, 0)
        assert pauli_masks(((3, "z"),), 3) == (0, 0b001)
        assert pauli_masks(((1, "x"), (2, "y"), (3, "z")), 3) == (0b110, 0b011)

    def test_factors_round_trip_in_site_order(self):
        factors = ((1, "x"), (2, "y"), (4, "z"))
        assert pauli_factors(pauli_masks(factors, 4), 4) == factors
        assert pauli_factors((0, 0), 4) == ()


class TestExpectation:
    def test_z_on_ground_and_flipped(self):
        term = [PauliTerm(1.0, ((1, "z"),))]
        assert expectation(product_state(["up"]), term) == pytest.approx(1.0)
        assert expectation(product_state(["down"]), term) == pytest.approx(-1.0)

    def test_identity_offset_term(self):
        term = [PauliTerm(2.5, ())]
        assert expectation(product_state(["up", "up"]), term) == pytest.approx(2.5)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        state = random_state(rng, n)
        terms = []
        for _ in range(int(rng.integers(1, 5))):
            support = sorted(
                rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n + 1)), replace=False)
            )
            factors = tuple((int(s), str(rng.choice(["x", "y", "z"]))) for s in support)
            terms.append(PauliTerm(float(rng.normal()), factors))
        dense = sum(t.coefficient * embedded_pauli(t.factors, n) for t in terms)
        want = np.vdot(state.amplitudes, dense @ state.amplitudes).real
        assert expectation(state, terms) == pytest.approx(want, abs=1e-10)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_pauli_action_is_an_exact_involution(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        masks = (int(rng.integers(2**n)), int(rng.integers(2**n)))
        amps = random_state(rng, n).amplitudes
        once = apply_pauli(amps, masks, n)
        dense = embedded_pauli(pauli_factors(masks, n), n)
        np.testing.assert_allclose(once, dense @ amps, atol=1e-12)
        assert np.array_equal(apply_pauli(once, masks, n), amps)


class TestSampling:
    def test_deterministic_outcome(self):
        state = product_state(["down"])
        counts = sample_counts(state, shots=100, seed=0)
        np.testing.assert_array_equal(counts, [0, 100])

    def test_same_seed_same_counts(self):
        rng = np.random.default_rng(2)
        state = random_state(rng, 3)
        a = sample_counts(state, shots=500, seed=42)
        b = sample_counts(state, shots=500, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_generator_seed_draws_like_its_int_seed(self):
        rng = np.random.default_rng(2)
        state = random_state(rng, 3)
        a = sample_counts(state, shots=500, seed=42)
        b = sample_counts(state, shots=500, seed=np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_different_seed_usually_differs(self):
        rng = np.random.default_rng(2)
        state = random_state(rng, 3)
        a = sample_counts(state, shots=500, seed=1)
        b = sample_counts(state, shots=500, seed=2)
        assert not np.array_equal(a, b)

    def test_total_equals_shots(self):
        rng = np.random.default_rng(7)
        state = random_state(rng, 4)
        counts = sample_counts(state, shots=1234, seed=3)
        assert counts.sum() == 1234

    def test_nonpositive_shots_rejected(self):
        with pytest.raises(ValueError):
            sample_counts(product_state(["up"]), shots=0, seed=0)

    def test_frequencies_within_five_sigma(self):
        shots = 100_000
        program = program_of(1, [ir.Gate("h", (0,))])
        state = run_statevector(program)
        counts = sample_counts(state, shots=shots, seed=11)
        p = 0.5
        sigma = np.sqrt(p * (1 - p) * shots)
        assert abs(counts[0] - p * shots) <= 5 * sigma


class TestCountsEstimation:
    def test_sign_convention_from_one_hot_counts(self):
        term = [PauliTerm(1.0, ((1, "z"),))]
        assert estimate_with_sigma(product_state(["up"]), term, 10, 0) == (1.0, 0.0)
        assert estimate_with_sigma(product_state(["down"]), term, 10, 0) == (-1.0, 0.0)

    def test_multi_site_parity_from_one_hot_counts(self):
        term = [PauliTerm(2.0, ((1, "z"), (3, "z")))]
        both_down = product_state(["down", "up", "down"])
        one_down = product_state(["down", "up", "up"])
        assert estimate_with_sigma(both_down, term, 10, 0) == (2.0, 0.0)
        assert estimate_with_sigma(one_down, term, 10, 0) == (-2.0, 0.0)
        # sites 1 and 18 of 18 are bits 17 and 0 of the outcome index
        far = [PauliTerm(1.0, ((1, "z"), (18, "z")))]
        ends_down = product_state(["down"] + ["up"] * 16 + ["down"])
        assert estimate_with_sigma(ends_down, far, 10, 0) == (1.0, 0.0)

    def test_estimate_averages_counts(self):
        state = run_statevector(program_of(1, [ir.Gate("rx", (0,), np.pi / 3)]))
        counts = sample_counts(state, shots=100, seed=5)
        mean, _ = estimate_with_sigma(state, [PauliTerm(1.0, ((1, "z"),))], 100, 5)
        assert mean == pytest.approx((counts[0] - counts[1]) / 100)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            estimate_with_sigma(product_state(["up"]), [PauliTerm(1.0, ((1, "z"),))], 0, 0)

    def test_sigma_zero_for_deterministic_outcomes(self):
        mean, sigma = estimate_with_sigma(
            product_state(["up", "up"]), [PauliTerm(1.0, ((1, "z"),))], 100, 0
        )
        assert mean == 1.0
        assert sigma == 0.0

    def test_sigma_zero_on_an_eigenstate(self):
        # |+>|down> is an eigenstate of every term; one basis measures all three
        state = run_statevector(program_of(2, [ir.h(0), ir.x(1)]))
        terms = [
            PauliTerm(1.0, ((1, "x"),)),
            PauliTerm(0.5, ((2, "z"),)),
            PauliTerm(-2.0, ((1, "x"), (2, "z"))),
        ]
        mean, sigma = estimate_with_sigma(state, terms, 100, 0)
        assert mean == 2.5
        assert sigma == 0.0

    def test_sigma_matches_binomial(self):
        shots = 100
        state = run_statevector(program_of(1, [ir.h(0)]))
        mean, sigma = estimate_with_sigma(state, [PauliTerm(1.0, ((1, "z"),))], shots, 4)
        assert sigma == pytest.approx(np.sqrt((1.0 - mean**2) / shots))

    def test_estimate_converges_to_expectation(self):
        shots = 100_000
        rng = np.random.default_rng(13)
        state = random_state(rng, 3)
        terms = [PauliTerm(1.0, ((1, "z"),)), PauliTerm(0.5, ((2, "z"), (3, "z")))]
        mean, sigma = estimate_with_sigma(state, terms, shots, 21)
        exact = expectation(state, terms)
        assert abs(mean - exact) <= 5 * max(sigma, 1e-12)

    def test_mixed_axis_term_within_five_sigma(self):
        shots = 100_000
        rng = np.random.default_rng(17)
        state = random_state(rng, 3)
        terms = [
            PauliTerm(0.75, ()),
            PauliTerm(1.0, ((1, "x"), (2, "z"))),
            PauliTerm(-0.5, ((2, "z"), (3, "y"))),
        ]
        mean, sigma = estimate_with_sigma(state, terms, shots, 23)
        assert sigma > 0.0
        assert abs(mean - expectation(state, terms)) <= 5 * sigma

    def test_xyz_chain_energy_uses_three_groups(self, monkeypatch):
        n = 4
        bonds = {
            (axis, i): ConstantSchedule(j)
            for axis, j in (("x", 1.0), ("y", 0.7), ("z", 0.4))
            for i in range(1, n)
        }
        fields = {("z", i): ConstantSchedule(0.3) for i in range(1, n + 1)}
        terms = snapshot(HeisenbergHamiltonian(n, bonds, fields), 0.0)
        draws = []

        def counting(state, shots, seed):
            draws.append(shots)
            return sample_counts(state, shots, seed)

        monkeypatch.setattr(backend, "sample_counts", counting)
        shots = 50_000
        state = random_state(np.random.default_rng(19), n)
        mean, sigma = estimate_with_sigma(state, terms, shots, 29)
        assert draws == [shots] * 3
        assert abs(mean - expectation(state, terms)) <= 5 * sigma


class TestStatevectorValidation:
    def test_length_must_match_qubit_count(self):
        with pytest.raises(ValueError):
            Statevector(2, np.array([1.0, 0.0], dtype=complex))

    def test_norm_reports_drift(self):
        state = Statevector(1, np.array([1.0, 1.0], dtype=complex))
        assert state.norm() == pytest.approx(np.sqrt(2.0))
