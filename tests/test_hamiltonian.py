"""Pauli-term snapshots and dense matrix embedding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import embedded_pauli
from spinsim.config import ConstantSchedule, GaussianPulseSchedule, LinearRampSchedule
from spinsim.errors import TooLargeError
from spinsim.hamiltonian import HeisenbergHamiltonian, PauliTerm, dense_matrix, snapshot


def tfim(num_spins: int, j_z: float = 1.0, h_x: float = 1.0) -> HeisenbergHamiltonian:
    bonds = {("z", i): ConstantSchedule(j_z) for i in range(1, num_spins)}
    fields = {("x", i): ConstantSchedule(h_x) for i in range(1, num_spins + 1)}
    return HeisenbergHamiltonian(num_spins, bonds, fields)


class TestPauliTerm:
    def test_sites_must_be_in_range(self):
        term = PauliTerm(1.0, ((1, "z"), (2, "z")))
        assert term.factors == ((1, "z"), (2, "z"))
        with pytest.raises(ValueError):
            PauliTerm(1.0, ((0, "z"),))

    def test_sites_strictly_increasing(self):
        with pytest.raises(ValueError):
            PauliTerm(1.0, ((2, "z"), (2, "x")))

    def test_axis_validated(self):
        with pytest.raises(ValueError):
            PauliTerm(1.0, ((1, "w"),))


class TestSnapshot:
    def test_tfim_terms_and_order(self):
        terms = snapshot(tfim(3), t=0.0)
        assert [(t.coefficient, t.factors) for t in terms] == [
            (1.0, ((1, "z"), (2, "z"))),
            (1.0, ((2, "z"), (3, "z"))),
            (1.0, ((1, "x"),)),
            (1.0, ((2, "x"),)),
            (1.0, ((3, "x"),)),
        ]

    def test_ramp_midpoint(self):
        fields = {("x", 1): LinearRampSchedule(0.0, 2.0, 1.0)}
        hamiltonian = HeisenbergHamiltonian(1, {}, fields)
        (term,) = snapshot(hamiltonian, 0.5)
        assert term.coefficient == pytest.approx(1.0)

    def test_zero_hamiltonian_has_no_terms(self):
        hamiltonian = HeisenbergHamiltonian(3, {}, {})
        assert snapshot(hamiltonian, 0.0) == []

    def test_zero_coefficients_dropped(self):
        fields = {("x", 1): GaussianPulseSchedule(1.0, 0.5, 0.01)}
        hamiltonian = HeisenbergHamiltonian(1, {}, fields)
        assert snapshot(hamiltonian, 0.5)
        assert snapshot(hamiltonian, 500.0) == []

    def test_time_independent_snapshots_agree(self):
        h = tfim(4, j_z=0.7, h_x=-0.3)
        assert snapshot(h, 0.0) == snapshot(h, 17.5)

    def test_term_count_formula(self):
        n = 5
        bonds = {(a, i): ConstantSchedule(0.5) for a in "xy" for i in range(1, n)}
        fields = {("z", i): ConstantSchedule(2.0) for i in range(1, n + 1)}
        h = HeisenbergHamiltonian(n, bonds, fields)
        assert len(snapshot(h, 1.0)) == 2 * (n - 1) + n

    def test_snapshot_is_linear(self):
        bonds = {("z", 1): ConstantSchedule(1.0)}
        fields = {("x", 1): ConstantSchedule(0.5)}
        joint = HeisenbergHamiltonian(2, bonds, fields)
        bonds_only = HeisenbergHamiltonian(2, bonds, {})
        fields_only = HeisenbergHamiltonian(2, {}, fields)
        assert snapshot(joint, 0.3) == snapshot(bonds_only, 0.3) + snapshot(
            fields_only, 0.3
        )


class TestDenseMatrix:
    def test_single_z(self):
        matrix = dense_matrix([PauliTerm(1.0, ((1, "z"),))], 1)
        np.testing.assert_allclose(matrix, np.diag([1.0, -1.0]))

    def test_xx_antidiagonal(self):
        matrix = dense_matrix([PauliTerm(1.0, ((1, "x"), (2, "x")))], 2)
        np.testing.assert_allclose(matrix, np.fliplr(np.eye(4)))

    def test_site_one_is_most_significant(self):
        matrix = dense_matrix([PauliTerm(1.0, ((1, "z"),))], 2)
        np.testing.assert_allclose(np.diag(matrix), [1, 1, -1, -1])

    def test_two_site_tfim_eigenvalues(self):
        terms = snapshot(tfim(2), 0.0)
        matrix = dense_matrix(terms, 2)
        # independent construction from explicit kron products
        reference = sum(t.coefficient * embedded_pauli(t.factors, 2) for t in terms)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(matrix), np.linalg.eigvalsh(reference), atol=1e-12
        )

    def test_too_large_guarded(self):
        with pytest.raises(TooLargeError):
            dense_matrix([PauliTerm(1.0, ((1, "z"),))], 13)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_bytes_equal_the_site_by_site_kron_chain(self, n):
        # terms of 0-4 factors on sites in any pattern (gaps included),
        # an identity term among them; the reference sums each term's
        # kron chain over every site, the embedding builds none of it
        rng = np.random.default_rng(n)
        for _ in range(8):
            terms = [PauliTerm(float(rng.normal()), ())]
            for _ in range(rng.integers(1, 7)):
                size = rng.integers(0, min(n, 4) + 1)
                sites = sorted(int(s) for s in rng.choice(np.arange(1, n + 1), size, replace=False))
                factors = tuple((s, str(rng.choice(["x", "y", "z"]))) for s in sites)
                terms.append(PauliTerm(float(rng.normal()), factors))
            rng.shuffle(terms)
            reference = np.zeros((2**n, 2**n), dtype=complex)
            for term in terms:
                reference += term.coefficient * embedded_pauli(term.factors, n)
            assert dense_matrix(terms, n).tobytes() == reference.tobytes()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_hermitian_for_random_terms(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        terms = []
        for _ in range(rng.integers(1, 6)):
            support = sorted(
                rng.choice(np.arange(1, n + 1), size=rng.integers(1, n + 1), replace=False)
            )
            factors = tuple(
                (int(s), str(rng.choice(["x", "y", "z"]))) for s in support
            )
            terms.append(PauliTerm(float(rng.normal()), factors))
        matrix = dense_matrix(terms, n)
        assert np.abs(matrix - matrix.conj().T).max() <= 1e-12


class TestCoefficients:
    def test_constant(self):
        assert ConstantSchedule(2.5).at(13.0) == 2.5
        assert not ConstantSchedule(2.5).is_time_dependent

    def test_ramp_endpoints(self):
        ramp = LinearRampSchedule(1.0, 3.0, 2.0)
        assert ramp.at(0.0) == pytest.approx(1.0)
        assert ramp.at(2.0) == pytest.approx(3.0)
        assert ramp.is_time_dependent

    def test_pulse_peak(self):
        pulse = GaussianPulseSchedule(2.0, 1.0, 0.25)
        assert pulse.at(1.0) == pytest.approx(2.0)
        assert pulse.at(0.0) < 0.01
