"""Statevector execution, sampling, and sampled estimation."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    apply_pauli,
    embedded_pauli,
    random_program,
    random_state,
    run_gates,
    unsliced_fold,
)
from spinsim import ir
from spinsim import backend
from spinsim.backend import (
    STATEVECTOR_QUBIT_LIMIT,
    ReadPlan,
    Statevector,
    _measurement_groups,
    expectation,
    estimate_with_sigma,
    pauli_factors,
    pauli_masks,
    pauli_rotations,
    product_state,
    run_statevector,
    sample_counts,
)
from spinsim.config import ConstantSchedule, build_hamiltonian, parse_input
from spinsim.errors import NormDriftError, TooLargeError
from spinsim.hamiltonian import HeisenbergHamiltonian, PauliTerm, snapshot
from spinsim.observables import (
    energy_observable,
    excitation_displacement_observable,
    site_magnetization_observable,
)
from spinsim.optimizer import optimize
from spinsim.qite import pauli_rotation_gates
from spinsim.trotter import trotter_step
from spinsim.value import set_field


def program_of(num_qubits, gates):
    return ir.Program(num_qubits=num_qubits, gates=tuple(gates))


def plan_values(state, x, z, shots=0, rng=None):
    """A one-shot :class:`ReadPlan`'s values of the strings (x[i], z[i])."""
    masks = list(zip(np.asarray(x).tolist(), np.asarray(z).tolist()))
    return ReadPlan(masks, state.num_qubits, shots).values([state], [rng])[0]


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

    def test_product_state_has_the_same_size_guard(self):
        with pytest.raises(TooLargeError):
            product_state(["up"] * (STATEVECTOR_QUBIT_LIMIT + 1))

    def test_product_state_equals_its_preparation_gates(self):
        spins = ["down", "up", "down", "down"]
        prepared = program_of(4, [ir.x(q) for q, spin in enumerate(spins) if spin == "down"])
        want = run_statevector(prepared).amplitudes
        assert product_state(spins).amplitudes.tobytes() == want.tobytes()

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

    def test_the_norm_drift_guard(self):
        state = random_state(np.random.default_rng(6), 6)
        drift = backend.checked_norm_drift(state)
        assert drift == abs(1.0 - np.sqrt(backend._real_dot(state.amplitudes, state.amplitudes)))
        assert drift <= 1e-15
        scaled = Statevector(6, state.amplitudes * (1.0 + 2 * backend.NORM_DRIFT_BUDGET))
        with pytest.raises(NormDriftError, match="norm drifted from 1 by 2.000e-09"):
            backend.checked_norm_drift(scaled)


def gate_cases(n, rng):
    """Every kind of ir.GATE_ARITY on every qubit; two-qubit kinds on
    neighbours and across the chain, in both operand orders."""
    pairs = [
        (a, b)
        for a in range(n)
        for b in range(n)
        if a != b and (abs(a - b) == 1 or {a, b} == {0, n - 1})
    ]
    for kind, arity in ir.GATE_ARITY.items():
        for qubits in [(q,) for q in range(n)] if arity == 1 else pairs:
            theta = float(rng.uniform(-7, 7)) if kind in ir.PARAMETRIC_KINDS else None
            yield ir.Gate(kind, qubits, theta)


def permuted(amps, gate, n):
    """x or cnot as the permutation of basis indices it is."""
    index = np.arange(2**n)
    target = 1 << (n - 1 - gate.qubits[-1])
    if gate.kind == "x":
        return amps[index ^ target]
    control = index >> (n - 1 - gate.qubits[0]) & 1
    return amps[index ^ control * target]


def embedded_gate(gate, n):
    """The gate's 2^n x 2^n matrix, embedded as ``ir.unitary_of`` does, not by ``apply_gate``."""
    return ir.embed(ir.gate_matrix(gate), gate.qubits, n)


class TestApplyGate:
    """``apply_gate`` against the dense unitary of each gate."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_kind_on_every_qubit_matches_dense_unitary(self, n):
        rng = np.random.default_rng(n)
        for gate in gate_cases(n, rng):
            amps = random_state(rng, n).amplitudes
            want = embedded_gate(gate, n) @ amps
            work = amps.copy()
            assert backend.apply_gate(work, gate, n) is work
            np.testing.assert_allclose(work, want, rtol=0, atol=1e-14, err_msg=str(gate))
            if gate.kind in ("x", "cnot"):
                assert np.array_equal(work, permuted(amps, gate, n)), gate

    @pytest.mark.parametrize("n", [6, 12])
    def test_initial_state_is_left_bit_unchanged(self, n):
        # gate by gate at 6 qubits, fused at 12
        rng = np.random.default_rng(23)
        program = ir.lower_to_native(random_program(rng, max_qubits=n, max_gates=40, min_qubits=n))
        initial = random_state(rng, n)
        before = initial.amplitudes.tobytes()
        state = run_statevector(program, initial=initial)
        assert initial.amplitudes.tobytes() == before
        assert not np.shares_memory(state.amplitudes, initial.amplitudes)


def fusion_program(rng, num_qubits, length):
    """Random gates of every kind; two-qubit operands mostly lie within one
    block's width of each other, sometimes anywhere on the chain."""
    kinds = sorted(k for k, arity in ir.GATE_ARITY.items() if arity <= num_qubits)
    gates = []
    for _ in range(length):
        kind = kinds[rng.integers(len(kinds))]
        theta = float(rng.uniform(-7, 7)) if kind in ir.PARAMETRIC_KINDS else None
        qubits = (int(rng.integers(num_qubits)),)
        if ir.GATE_ARITY[kind] == 2:
            a = qubits[0]
            reach = backend.FUSED_QUBITS if rng.random() < 0.8 else num_qubits
            others = [b for b in range(a - reach + 1, a + reach) if 0 <= b < num_qubits and b != a]
            qubits = (a, int(rng.choice(others)))
        gates.append(ir.Gate(kind, qubits, theta))
    return program_of(num_qubits, gates)


def block_span(entry):
    if isinstance(entry, backend.FusedBlock):
        return entry.lo, entry.lo + len(entry.matrix).bit_length() - 2
    return min(entry.qubits), max(entry.qubits)


class TestFusion:
    # unitary_of costs 8^n per gate: fewer gates on the widest programs
    MAX_GATES = {8: 12, 9: 6, 10: 3}

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 10),
        chunk=st.sampled_from([backend._CHUNK, 2**backend.FUSED_QUBITS, 64]),
    )
    @settings(max_examples=40, deadline=None)
    def test_plan_matches_dense_unitary(self, seed, n, chunk):
        rng = np.random.default_rng(seed)
        program = fusion_program(rng, n, int(rng.integers(0, self.MAX_GATES.get(n, 40) + 1)))
        initial = random_state(rng, n)
        before = initial.amplitudes.copy()
        plan = backend.fuse(program)
        with mock.patch.object(backend, "_CHUNK", chunk):
            got = backend.run_fused(plan, initial).amplitudes
        np.testing.assert_array_equal(initial.amplitudes, before)
        want = ir.unitary_of(program) @ before
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for entry in plan:
            lo, hi = block_span(entry)
            assert 0 <= lo <= hi < n
            if isinstance(entry, backend.FusedBlock):
                # a block within one window, or a tail block that runs on to the last qubit
                assert hi - lo < backend.FUSED_QUBITS or hi == n - 1
                assert hi - lo < backend.FUSED_QUBITS + 2
                assert hi == n - 1 or 2 ** (n - 1 - hi) > backend._KRON_REST
            else:
                assert hi - lo >= backend.FUSED_QUBITS

    # (n, lo, width, chunk): rest = 2^(n - lo - width) amplitudes below the
    # block, more than _KRON_REST for np.matmul on the (2^lo, 2^m, rest)
    # view, at most that for one product with kron(U^T, I_rest)
    @pytest.mark.parametrize(
        "n, lo, width, chunk",
        [
            (10, 0, 4, 2**16),  # matmul, lo = 0, one chunk
            (10, 0, 4, 16),  # matmul, lo = 0, a row split into column chunks
            (10, 3, 3, 64),  # matmul, lo > 0, rows and columns chunked
            (10, 2, 2, 2**16),  # matmul, lo > 0, two-qubit block
            (4, 0, 4, 2**16),  # kron, lo = 0, rest = 1
            (10, 6, 4, 2**16),  # kron, lo > 0, rest = 1
            (10, 4, 4, 16),  # kron, rest = 4, one row per chunk
            (10, 7, 1, 16),  # kron, rest = 4, one-qubit block, several rows per chunk
            (10, 2, 5, 2**16),  # matmul, five-qubit block, rest = 8
            (10, 2, 5, 64),  # matmul, five-qubit block, rows and columns chunked
            (5, 0, 5, 2**16),  # kron, five-qubit block on the whole state
            # kron, five-qubit block, at every rest up to _KRON_REST
            *[(10, 5 - k, 5, 2**16) for k in range(backend._KRON_REST.bit_length())],
            (10, 3, 5, 64),  # kron, five-qubit block, rest = 4, one row per chunk
            (10, 3, 7, 2**16),  # kron, rest = 1, a tail block's largest width
            (10, 3, 7, 64),  # kron, rest = 1, seven-qubit block, one row per chunk
        ],
    )
    def test_every_apply_branch_matches_the_embedded_matrix(self, n, lo, width, chunk):
        rng = np.random.default_rng(n * 100 + lo * 10 + width)
        dim = 2**width
        matrix, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        initial = random_state(rng, n)
        embedded = np.kron(np.kron(np.eye(2**lo), matrix), np.eye(2 ** (n - lo - width)))
        with mock.patch.object(backend, "_CHUNK", chunk):
            got = backend.run_fused([backend.FusedBlock(lo, matrix, n)], initial).amplitudes
        np.testing.assert_allclose(got, embedded @ initial.amplitudes, rtol=0, atol=1e-13)

    def test_kron_products_are_built_with_the_plan_not_per_application(self):
        n = 7
        program = program_of(n, [ir.h(6), ir.cnot(5, 6), ir.rx(0.4, 1), ir.rzz(0.3, 0, 1)])
        plan = backend.fuse(program)
        # the window on qubits 0-4 takes rx and rzz (32 amplitudes below their
        # span, matmul); the one on 2-6 takes h and cnot (none below, a tail
        # block, kron)
        assert [entry.product is None for entry in plan] == [True, False]
        initial = random_state(np.random.default_rng(5), n)
        want = backend.run_fused(plan, initial).amplitudes
        with mock.patch.object(np, "kron", side_effect=AssertionError("kron per application")):
            got = backend.run_fused(plan, backend.run_fused(plan, initial)).amplitudes
        np.testing.assert_allclose(got, ir.unitary_of(program) @ want, rtol=0, atol=1e-13)

    def test_plan_width_must_match_the_state(self):
        plan = backend.fuse(program_of(3, [ir.h(0)]))
        with pytest.raises(ValueError):
            backend.run_fused(plan, random_state(np.random.default_rng(0), 4))

    def test_gate_joins_the_newest_block_on_its_wires(self):
        # cnot(1, 4) follows cnot(4, 5) on wire 4, which the window on qubits
        # 0-4 leaves behind: it must wait for the window on 1-5, although the
        # block of h(0) and cnot(0, 1) would fit it too.  That block ends at
        # qubit 5, one above the last, so it is a tail block on 1-6
        gates = [ir.h(0), ir.h(5), ir.cnot(0, 1), ir.cnot(4, 5), ir.cnot(1, 4)]
        program = program_of(7, gates)
        plan = backend.fuse(program)
        assert [block_span(entry) for entry in plan] == [(0, 1), (1, 6)]
        initial = random_state(np.random.default_rng(3), 7)
        want = ir.unitary_of(program) @ initial.amplitudes
        got = backend.run_fused(plan, initial).amplitudes
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_a_window_starts_at_the_lowest_pending_qubit(self):
        # a window starting at qubit 0 would take h(3) alone, and the rest
        # would split into (3, 4) and (4, 6)
        gates = [ir.h(3), ir.rx(0.5, 6), ir.cnot(3, 4), ir.cnot(5, 6), ir.rzz(0.8, 4, 5)]
        program = program_of(10, gates)
        plan = backend.fuse(program)
        assert [block_span(entry) for entry in plan] == [(3, 6)]
        initial = random_state(np.random.default_rng(6), 10)
        want = run_gates(program, initial=initial).amplitudes
        got = backend.run_fused(plan, initial).amplitudes
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_a_wide_gate_that_left_holds_back_no_window(self):
        # once cnot(0, 11) has left, qubit 6 is the lowest pending one, so one
        # window takes h(6) and cnot(6, 7) together
        gates = [ir.cnot(0, 11), ir.h(6), ir.cnot(6, 7)]
        plan = backend.fuse(program_of(12, gates))
        assert [entry if isinstance(entry, ir.Gate) else block_span(entry) for entry in plan] == [
            gates[0],
            (6, 7),
        ]

    def test_wide_gates_run_unfused_and_end_the_blocks_on_their_wires(self):
        n = 12
        gates = [
            ir.h(0),
            ir.rx(0.3, 1),
            ir.cnot(0, n - 1),
            ir.rz(0.2, 0),
            ir.rxx(0.7, 0, n - 1),
            ir.h(n - 1),
            ir.cnot(1, 0),
        ]
        program = program_of(n, gates)
        plan = backend.fuse(program)
        # each sweep's first window takes what precedes a wide gate on its
        # wires; the wide gate then heads the list and leaves it at once
        assert [entry if isinstance(entry, ir.Gate) else block_span(entry) for entry in plan] == [
            (0, 1),
            gates[2],
            (0, 0),
            gates[4],
            (n - 1, n - 1),
            (0, 1),
        ]
        initial = random_state(np.random.default_rng(4), n)
        want = run_gates(program, initial=initial).amplitudes
        got = backend.run_fused(plan, initial).amplitudes
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    COUPLING_KEYS = [(kind, axis) for kind in "Jh" for axis in "xyz"]

    @pytest.mark.parametrize("n", range(5, 13))
    @pytest.mark.parametrize("optimized", [False, True])
    def test_a_chain_step_fuses_into_one_block_per_window(self, n, optimized):
        # every nonempty set of input keys: the bonds run in chain order axis
        # by axis, then the fields, and one sweep takes all of them.  Each
        # bond axis leaves one more qubit of a window behind, so the windows
        # advance FUSED_QUBITS minus the number of bond axes per block, up
        # to the last window at n - FUSED_QUBITS.  A window's block spans the
        # whole window; the first block that leaves at most _KRON_REST
        # amplitudes below it (from the window at n - FUSED_QUBITS - 2 or
        # later) is the tail, and the later windows' blocks join it
        rng = np.random.default_rng(n)
        below = backend._KRON_REST.bit_length() - 1  # qubits below a tail's block, at most
        for r in range(1, len(self.COUPLING_KEYS) + 1):
            for keys in itertools.combinations(self.COUPLING_KEYS, r):
                advance = backend.FUSED_QUBITS - sum(k == "J" for k, _ in keys)
                draw = lambda: ConstantSchedule(float(rng.uniform(0.5, 1.5)))
                bonds = {(a, i): draw() for k, a in keys if k == "J" for i in range(1, n)}
                fields = {(a, i): draw() for k, a in keys if k == "h" for i in range(1, n + 1)}
                step = trotter_step(HeisenbergHamiltonian(n, bonds, fields), 0.0, 0.1)
                block = ir.lower_to_native(step)
                if optimized:
                    block = optimize(block)
                plan = backend.fuse(block)
                windows = range(0, n - backend.FUSED_QUBITS - below, advance)
                assert len(plan) == len(windows) + 1, keys
                assert all(isinstance(entry, backend.FusedBlock) for entry in plan)
                assert [block_span(entry) for entry in plan[:-1]] == [
                    (lo, lo + backend.FUSED_QUBITS - 1) for lo in windows
                ]
                # the tail starts at the lowest qubit the windows before it left
                tail_lo = windows[-1] + advance if windows else 0
                assert block_span(plan[-1]) == (tail_lo, n - 1)
        initial = random_state(rng, n)
        want = run_gates(block, initial=initial).amplitudes
        got = backend.run_fused(plan, initial).amplitudes
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(5, 13))
    def test_a_tail_block_equals_its_unmerged_entries(self, n):
        # with _KRON_REST = 0 no block is a tail, so each window's block keeps
        # its own tight span; applied one after another, those entries give
        # what the plan with tail blocks gives
        rng = np.random.default_rng(4300 + n)
        programs = [fusion_program(rng, n, 60) for _ in range(6)]
        for program in [*programs, chain_step(n)]:
            plan = backend.fuse(program)
            with mock.patch.object(backend, "_KRON_REST", 0):
                unmerged = backend.fuse(program)
            assert len(plan) <= len(unmerged)
            initial = random_state(rng, n)
            got = backend.run_fused(plan, initial).amplitudes
            want = initial
            for entry in unmerged:
                want = backend.run_fused([entry], want)
            np.testing.assert_allclose(got, want.amplitudes, rtol=0, atol=1e-12)
        # a chain step: from 6 spins on, the last window's block joins the tail
        assert len(plan) == len(unmerged) - (n > backend.FUSED_QUBITS)

    @pytest.mark.parametrize(
        "width, lo", [(w, lo) for w in range(1, backend.FUSED_QUBITS + 1) for lo in range(11 - w)]
    )
    def test_one_block_at_every_position_matches_gate_by_gate(self, width, lo):
        # a fused block against its gates applied one by one
        n = 10
        rng = np.random.default_rng(width * 100 + lo)
        local = [ir.h(0), ir.rx(0.7, width - 1), *fusion_program(rng, width, 24).gates]
        (block,) = backend.fuse(program_of(width, local))
        assert block_span(block) == (0, width - 1)
        plan = [backend.FusedBlock(lo, block.matrix, n)]
        shifted = [ir.Gate(g.kind, tuple(q + lo for q in g.qubits), g.theta) for g in local]
        program = program_of(n, shifted)
        initial = random_state(rng, n)
        want = run_gates(program, initial=initial).amplitudes
        for chunk in (backend._CHUNK, 64):
            with mock.patch.object(backend, "_CHUNK", chunk):
                got = backend.run_fused(plan, initial).amplitudes
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def random_unitary(rng, dim):
    matrix, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return matrix


def chain_step(n):
    """The compiled step of an n-spin XXZ chain with an x ramp and random z
    fields, the 20-spin benchmark chain's step at n = 20."""
    cfg = parse_input(
        f"num_spins: {n}\nJ_x: 1.0\nJ_y: 1.0\nJ_z: 0.5\n"
        "h_x: linear-ramp(0, 0.6)\nh_z: random-uniform(-1, 1)\nrng_seed: 2\n"
    )
    step = trotter_step(build_hamiltonian(cfg), 0.5, 1.0)
    return optimize(ir.lower_to_native(step))


def chain_step_plan(n):
    return backend.fuse(chain_step(n))


class TestOneDriver:
    """run_statevector fuses programs from 2 FUSED_QUBITS + 2 qubits up and
    runs their gates one by one below that, through run_fused either way."""

    FUSING_WIDTH = 2 * backend.FUSED_QUBITS + 2

    @pytest.mark.parametrize("n", range(1, 17))
    def test_equals_the_gate_by_gate_reference(self, n):
        rng = np.random.default_rng(3100 + n)
        gates = random_program(rng, n, 40, min_qubits=n).gates
        wide = [ir.rxx(0.9, 0, n - 1)] if n > 1 else []  # wider than a block from n = 6
        mixed = program_of(n, [*gates[:20], *wide, *gates[20:]])
        states = [None, random_state(rng, n), random_state(rng, n)]
        for program, initial in zip([mixed, mixed, chain_step(n)], states):
            with mock.patch.object(backend, "fuse", wraps=backend.fuse) as fuse:
                got = run_statevector(program, initial).amplitudes
            want = run_gates(program, initial).amplitudes
            assert fuse.call_count == (n >= self.FUSING_WIDTH)
            if n < self.FUSING_WIDTH:
                assert got.tobytes() == want.tobytes()
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def chain_spins(n, initial):
    if initial == "flip-first":
        return ["down"] + ["up"] * (n - 1)
    return [("up", "down")[site % 2] for site in range(n)]  # Neel


class TestBasisStart:
    """run_fused from a state that carries its basis index multiplies only the live
    range of qubits and gives what run_fused of the whole state gives, bit for bit."""

    @staticmethod
    def assert_bitwise(plan, initial):
        before = initial.amplitudes.tobytes()
        whole = Statevector(initial.num_qubits, initial.amplitudes)  # no index
        want = backend.run_fused(plan, whole).amplitudes
        got = backend.run_fused(plan, initial).amplitudes
        assert got.tobytes() == want.tobytes(), initial.basis
        assert initial.amplitudes.tobytes() == before

    @staticmethod
    def basis_state(n, index, amplitude=1.0):
        """A state that carries its index, as product_state's do, with any amplitude."""
        amps = np.zeros(2**n, dtype=complex)
        amps[index] = amplitude
        state = Statevector(n, amps)
        set_field(state, "basis", index)
        return state

    @staticmethod
    def block_sizes(run, *args):
        """``run(*args)`` and the length of each region that _apply_block multiplies in it."""
        sizes = []
        apply = backend._apply_block

        def counted(region, *rest):
            sizes.append(len(region))
            apply(region, *rest)

        with mock.patch.object(backend, "_apply_block", counted):
            return run(*args), sizes

    @staticmethod
    def shifted_program(rng, n, skip):
        """A random program on qubits skip .. n - 1 of n."""
        local = random_program(rng, n - skip, 40, min_qubits=n - skip)
        gates = [ir.Gate(g.kind, tuple(q + skip for q in g.qubits), g.theta) for g in local.gates]
        return program_of(n, gates)

    @staticmethod
    def wide_gate_program(rng, n):
        """Random gates on qubits 0-4, a cnot across the register, then more."""
        local = [random_program(rng, 5, 20, min_qubits=5).gates for _ in range(2)]
        return program_of(n, [*local[0], ir.cnot(0, n - 1), *local[1]])

    @pytest.mark.parametrize("n", range(1, 13))
    def test_random_programs(self, n):
        # every index up to n = 4, four random ones beyond; a unit phase on
        # the one amplitude, which the start takes from the state
        rng = np.random.default_rng(4000 + n)
        for _ in range(8):
            plan = backend.fuse(random_program(rng, n, 40, min_qubits=n))
            indices = range(2**n) if n <= 4 else rng.integers(0, 2**n, size=4).tolist()
            for index in indices:
                phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
                self.assert_bitwise(plan, self.basis_state(n, index, phase))

    KINDS = [
        "avoids-qubit-0",
        "last-six-qubits",
        "kron-twice",
        "last-qubit-alone",
        "wide-gate",
        "empty",
    ]

    @pytest.mark.parametrize("n", [6, 9, 12])
    @pytest.mark.parametrize("kind", KINDS)
    def test_special_plans(self, n, kind):
        # kron-twice: a second kron-product block starts at the range's first
        # qubit; a block on the last qubit alone has a 2-column kron product
        rng = np.random.default_rng(4100 + n)
        if kind in ("avoids-qubit-0", "last-six-qubits"):
            skip = 2 if kind == "avoids-qubit-0" else n - 6
            plan = backend.fuse(self.shifted_program(rng, n, skip))
            assert min(block_span(entry)[0] for entry in plan) >= skip
        elif kind == "kron-twice":
            plan = [backend.FusedBlock(n - 3, random_unitary(rng, 8), n) for _ in range(2)]
        elif kind == "last-qubit-alone":
            plan = [backend.FusedBlock(q, random_unitary(rng, 2), n) for q in (1, n - 1)]
        elif kind == "wide-gate":
            plan = backend.fuse(self.wide_gate_program(rng, n))
            assert any(isinstance(entry, ir.Gate) for entry in plan)
        else:
            plan = ()
        for index in rng.integers(0, 2**n, size=8).tolist():
            self.assert_bitwise(plan, self.basis_state(n, index))

    @pytest.mark.parametrize("n", [17, 20])
    @pytest.mark.parametrize("initial", ["flip-first", "neel"])
    def test_a_chain_step(self, n, initial):
        self.assert_bitwise(chain_step_plan(n), product_state(chain_spins(n, initial)))

    def test_the_benchmark_step_multiplies_a_fraction_of_the_state(self):
        # the windows advance two qubits per block from qubit 0; the last one,
        # the tail block on qubits 14-19, applies a kron product, which takes
        # the whole state: one whole-state pass
        n = 20
        state = product_state(chain_spins(n, "flip-first"))
        _, sizes = self.block_sizes(backend.run_fused, chain_step_plan(n), state)
        assert sizes == [2**8, 2**8, 2**9, 2**11, 2**13, 2**15, 2**17, 2**20]

    @pytest.mark.parametrize("n", [12, 13])
    def test_run_statevector_starts_a_product_state_from_its_index(self, n):
        # from 2 FUSED_QUBITS + 2 qubits up run_statevector fuses; the first three
        # blocks of the step from a Neel state multiply a few hundred amplitudes,
        # and only the tail block the whole state
        program, state = chain_step(n), product_state(chain_spins(n, "neel"))
        got, sizes = self.block_sizes(run_statevector, program, state)
        assert sizes[:3] == [2**8, 2**8, 2**9] and sizes[-1] == 2**n
        want = run_statevector(program, Statevector(n, state.amplitudes))
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()

    def test_the_start_holds_no_more_memory_than_the_whole_state(self):
        """The 18-spin chain step: the basis start's tracemalloc peak, a zeroed state
        and its chunked products, is no higher than that of the state's copy and
        its one product of the whole state."""
        n = 18
        plan = chain_step_plan(n)
        spins = chain_spins(n, "flip-first")
        state = product_state(spins)
        peaks = []
        for initial in (Statevector(n, state.amplitudes), state):
            tracemalloc.start()
            try:
                backend.run_fused(plan, initial)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        whole, start = peaks
        assert start <= whole


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

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_basis_index_is_the_one_amplitude(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            spins = [str(rng.choice(["up", "down"])) for _ in range(n)]
            amps = product_state(spins).amplitudes
            assert np.flatnonzero(amps).tolist() == [backend.basis_index(spins)]


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

    def test_a_constant_term_adds_exactly_its_coefficient(self):
        # a norm away from 1 would scale a read of |psi|^2
        state = Statevector(2, 1.1 * random_state(np.random.default_rng(2), 2).amplitudes)
        z = PauliTerm(1.0, ((2, "z"),))
        assert expectation(state, [PauliTerm(2.5, ())]) == 2.5
        assert expectation(state, [PauliTerm(2.5, ()), z]) == 2.5 + expectation(state, [z])
        assert plan_values(state, [0], [0])[0] == 1.0

    @staticmethod
    def diagonal_terms(rng, n):
        """Single-site, nearest-neighbour and spread-out z strings, in no head order."""
        supports = [(s,) for s in range(1, n + 1)]
        supports += [(s, s + 1) for s in range(1, n)]
        for _ in range(n):
            size = int(rng.integers(1, n + 1))
            supports.append(tuple(sorted(rng.choice(np.arange(1, n + 1), size, replace=False))))
        if n > 1:
            supports.append((1, n))
        if n > 3:  # a gap, then a run that ends at the last qubit
            supports += [(1, n - 1, n), (2, n - 1, n)]
        rng.shuffle(supports)
        return [PauliTerm(float(rng.normal()), tuple((int(s), "z") for s in f)) for f in supports]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_diagonal_reads_match_the_dense_diagonal(self, n):
        rng = np.random.default_rng(40 + n)
        state = random_state(rng, n)
        bits = np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1) & 1  # column q: qubit q
        for term in self.diagonal_terms(rng, n):
            support = [site - 1 for site, _ in term.factors]
            diagonal = 1 - 2 * (bits[:, support].sum(axis=1) % 2)
            want = np.vdot(state.amplitudes, diagonal * state.amplitudes).real
            alone = PauliTerm(1.0, term.factors)
            assert abs(expectation(state, [alone]) - want) <= 1e-13, term.factors

    @staticmethod
    def read_alone(state, factors, route):
        """The string's value read by itself on the route its group took."""
        n = state.num_qubits
        x, z = pauli_masks(factors, n)
        if route == "tables" and z and not x:
            batch = [state.amplitudes]
            [[value]] = backend._transform_reads(batch, n, np.array([0]), np.array([z]))
            return value
        return expectation(state, [PauliTerm(1.0, factors)])

    @pytest.mark.parametrize("n", range(1, 13))
    def test_a_diagonal_read_is_the_same_alone_and_among_other_terms(self, n):
        """A value depends on its route and the state only.  The first 2n - 1
        z strings stay on the fold; all of them take the tables."""
        rng = np.random.default_rng(60 + n)
        state = random_state(rng, n)
        diagonal = self.diagonal_terms(rng, n)
        routes = set()
        for count in (2 * n - 1, len(diagonal)):
            terms = [PauliTerm(0.7, ()), *diagonal[:count]]
            if n > 1:
                terms.insert(3, PauliTerm(-0.4, ((1, "x"), (2, "y"))))
            route = ReadPlan([pauli_masks(t.factors, n) for t in terms], n).routes[0]
            routes.add(route)
            total = 0.0
            for term in terms:
                total += term.coefficient * self.read_alone(state, term.factors, route)
            assert expectation(state, terms) == total
        assert routes == {"fold", "tables"}

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


class TestReadPlanReads:
    """Exact :class:`ReadPlan` reads on every route against vdot of the applied string."""

    @staticmethod
    def reference(amps, x, z, n):
        return np.array(
            [np.vdot(amps, apply_pauli(amps, (xi, zi), n)).real for xi, zi in zip(x, z)]
        )

    @staticmethod
    def check(state, x, z):
        got = plan_values(state, x, z)
        identity = (np.array(x) == 0) & (np.array(z) == 0)
        want = TestReadPlanReads.reference(state.amplitudes, x, z, state.num_qubits)
        np.testing.assert_allclose(got[~identity], want[~identity], rtol=0, atol=1e-12)
        assert np.all(got[identity] == 1.0)

    @staticmethod
    def read_only(state):
        amps = state.amplitudes.copy()
        amps.flags.writeable = False
        return Statevector(state.num_qubits, amps)

    @staticmethod
    def real_dots(amps, x, z, n):
        """:func:`backend._real_dot` of psi and each applied string (x[i], z[i])."""
        return np.array(
            [backend._real_dot(amps, apply_pauli(amps, (xi, zi), n)) for xi, zi in zip(x, z)]
        )

    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_vdot_of_the_applied_string(self, n):
        """Up to 1e-12: the transform route sums in another order than vdot."""
        rng = np.random.default_rng(100 + n)
        state = random_state(rng, n)
        full = 2**n - 1
        if n <= 3:
            pairs = [(x, z) for x in range(full + 1) for z in range(full + 1)]
        else:
            # a few x masks (all flips and none among them), many z masks each
            x_masks = [0, full, 1, 1 << (n - 1)] + [int(v) for v in rng.integers(full, size=4)]
            pairs = {(0, 0), (full, full), (full, 0)}
            for _ in range(150):
                pairs.add((x_masks[rng.integers(len(x_masks))], int(rng.integers(full + 1))))
            pairs = sorted(pairs)
        x, z = map(list, zip(*pairs))
        self.check(state, x, z)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_half_tables_read_every_z_of_a_mask(self, n):
        """Every z of a few x masks, 0 among them, against :func:`backend._real_dot`
        of the applied string, within 2 n eps.  Such a group spans the state, so
        from 3 qubits on it takes the tables (on 1 and 2, the window).  From 11
        qubits on, groups of one, two and n strings on random masks join them."""
        rng = np.random.default_rng(700 + n)
        state = random_state(rng, n)
        x_masks = sorted({0, 2**n - 1, 1 << (n - 1), int(rng.integers(1, 2**n))})
        x = np.repeat(x_masks, 2**n)
        z = np.tile(np.arange(2**n), len(x_masks))
        if n >= 11:
            small_x, small_z = self.grouped_strings(rng, n, [1, 2, n])
            x, z = np.concatenate([x, small_x]), np.concatenate([z, small_z])
        got = plan_values(state, x, z)
        want = self.real_dots(state.amplitudes, x.tolist(), z.tolist(), n)
        identity = (x == 0) & (z == 0)
        assert np.all(got[identity] == 1.0)
        atol = 2 * n * np.finfo(float).eps
        np.testing.assert_allclose(got[~identity], want[~identity], rtol=0, atol=atol)

    def test_masks_in_the_third_byte(self):
        n = 18
        state = random_state(np.random.default_rng(18), n)
        full = 2**n - 1
        x = [1 << 17, 1 << 17, 3 << 16 | 1, full, 0, 0x2A5A5]
        z = [1 << 16, 3 << 16 | 0x101, 1 << 17, full, 1 << 17 | 1 << 8 | 1, 0x3C3C3]
        self.check(state, x, z)

    @staticmethod
    def grouped_strings(rng, n, sizes):
        """Strings on distinct random x masks, sizes[i] of them on the i-th."""
        x_masks = rng.permutation(2**n)[: len(sizes)]
        x = np.repeat(x_masks, sizes)
        return rng.permutation(x), rng.integers(2**n, size=len(x))

    @pytest.mark.parametrize("n", [3, 7, 12])
    def test_a_group_reads_the_same_alone_and_in_a_batch(self, n):
        """A value depends on its own x mask's group, not on the other groups."""
        rng = np.random.default_rng(200 + n)
        state = random_state(rng, n)
        # groups on both sides of the fold's size limit, and z strings
        x, z = self.grouped_strings(rng, n, [1, 2, n, n + 1, 3 * n, 1, 5])
        x[:10] = 0
        batch = plan_values(state, x, z)
        alone = np.empty(len(x))
        for x_mask in set(x.tolist()):
            group = x == x_mask
            alone[group] = plan_values(state, x[group], z[group])
        assert batch.tolist() == alone.tolist()
        assert plan_values(state, x[::-1], z[::-1]).tolist() == alone[::-1].tolist()

    @pytest.mark.parametrize("n", [11, 12, 17, 18, 20])
    def test_small_wide_groups_fold_as_the_applied_string(self, n):
        """A few random z strings, one on the first and one on the last qubit among
        them, take the fold and agree with :func:`backend._real_dot` of the applied
        string within 2 n eps.  (Bond and site strings on other masks take the
        window: :class:`TestWindowReads`.)"""
        rng = np.random.default_rng(400 + n)
        state = random_state(rng, n)
        z = rng.integers(1, 2**n, size=6)
        z[:2] = 1 << (n - 1), 1
        x = np.zeros_like(z)
        with mock.patch.object(backend, "_transform_reads", side_effect=AssertionError):
            got = plan_values(state, x, z)
        want = self.real_dots(state.amplitudes, x.tolist(), z.tolist(), n)
        np.testing.assert_allclose(got, want, rtol=0, atol=2 * n * np.finfo(float).eps)

    @pytest.mark.parametrize("n", [11, 17, 20])
    @pytest.mark.parametrize("site", [1, 4, 10])
    def test_a_z_free_string_reads_the_same_beside_its_partner(self, n, site):
        """A bond's xx (z = 0) reads the same bits alone and beside its yy, and a
        site's x beside its y: its value is the sum of its window's Re e_i, whatever
        else its group reads."""
        state = random_state(np.random.default_rng(450 + n), n)
        for axes in ("xx", "yy"), ("x", "y"):
            lone, partner = (
                pauli_masks(tuple((site + i, a) for i, a in enumerate(axis)), n) for axis in axes
            )
            assert lone[0] == partner[0] and lone[1] == 0 and partner[1] == partner[0]
            plan = ReadPlan([lone, partner], n)
            assert plan.routes == {lone[0]: "window"}
            [alone] = ReadPlan([lone], n).values([state])[0]
            assert plan.values([state])[0][0] == alone
            assert ReadPlan([partner, lone], n).values([state])[0][1] == alone

    @pytest.mark.parametrize("n, size", [(10, 1), (11, 3), (11, 12), (12, 13), (18, 19)])
    def test_other_groups_take_the_transform(self, n, size):
        rng = np.random.default_rng(500 + n)
        state = random_state(rng, n)
        x, z = self.grouped_strings(rng, n, [size])
        assert x[0] != 0
        with mock.patch.object(backend, "_fold_reads", side_effect=AssertionError), \
                mock.patch.object(backend, "_window_reads", side_effect=AssertionError):
            got = plan_values(state, x, z)
        want = self.reference(state.amplitudes, x, z, n)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 4, 9, 12, 18])
    def test_the_two_routes_agree(self, n):
        """The window and the tables on one bond's or one site's x mask, every z on
        its window, within 1e-12, at any width."""
        rng = np.random.default_rng(600 + n)
        amps = random_state(rng, n).amplitudes
        lo = int(rng.integers(max(1, n - 1)))
        for width in {1, min(2, n)}:
            below = n - lo - width
            x_mask = int(rng.integers(1, 2**width)) << below
            z = np.arange(2**width) << below
            by_window = backend._window_reads([amps], n, x_mask, z)
            by_transform = backend._transform_reads([amps], n, np.full(len(z), x_mask), z)
            np.testing.assert_allclose(by_transform, by_window, rtol=0, atol=1e-12)

    def test_a_read_covers_more_masks_than_one_chunk(self):
        n = 10
        rng = np.random.default_rng(12)
        state = random_state(rng, n)
        x = rng.permutation(2**n)[:300]
        z = rng.integers(2**n, size=300)
        plan = ReadPlan(list(zip(x.tolist(), z.tolist())), n)
        assert len(np.unique(plan.tables[1])) > backend._WALSH_CHUNK >> n
        self.check(state, x.tolist(), z.tolist())

    @pytest.mark.parametrize("n", [1, 5, 10, 12])
    def test_the_state_is_never_written(self, n):
        rng = np.random.default_rng(300 + n)
        state = random_state(rng, n)
        before = state.amplitudes.copy()
        frozen = self.read_only(state)
        # both routes on the wide states: single strings and one group of 2n;
        # z strings on the fold, and a sampled read
        x, z = self.grouped_strings(rng, n, [1] * min(20, 2**n - 1) + [2 * n])
        x[:3] = 0
        assert np.array_equal(plan_values(frozen, x, z), plan_values(state, x, z))
        sampled = [plan_values(s, x, z, 50, 7) for s in (frozen, state)]
        assert np.array_equal(*sampled)
        assert np.array_equal(state.amplitudes, before)

    def test_identity_is_exactly_one(self):
        state = Statevector(2, np.full(4, 0.5 + 1e-9, dtype=complex))
        assert plan_values(state, np.array([0]), np.array([0]))[0] == 1.0
        assert plan_values(state, [0, 1], [0, 1], 10, 0)[0] == 1.0


class TestBatchedReads:
    """A batch of states reads each state as if it were alone, bit for bit.

    Series of ``count`` states at widths where one plan batch holds all of
    them (n = 4), several (n = 14: 16 of 20) and one (n = 18)."""

    SERIES = [(4, 12, 1), (14, 20, 2), (18, 3, 3)]  # (n, count, batches)

    @staticmethod
    def strings(rng, n, z_strings):
        """The identity, ``z_strings`` z strings, three single strings on their own
        x masks, three x masks of n + 1 strings each, and the xx, yy, xy and yx of
        the bond between the last two sites."""
        x, z = TestReadPlanReads.grouped_strings(rng, n, [1, 1, 1, n + 1, n + 1, n + 1])
        masks = [(0, 0), *((0, int(v)) for v in rng.integers(1, 2**n, size=z_strings))]
        bond = [pauli_masks(((n - 1, a), (n, b)), n) for a, b in ("xx", "yy", "xy", "yx")]
        return masks + list(zip(x.tolist(), z.tolist())) + bond

    @staticmethod
    def in_batches(read, plan, states, *per_state):
        """``read`` over consecutive batches of ``plan.batch`` states, concatenated."""
        out = []
        for a in range(0, len(states), plan.batch):
            batch = slice(a, a + plan.batch)
            out += list(read(states[batch], *(p[batch] for p in per_state)))
        return out

    @pytest.mark.parametrize("n, count, batches", SERIES)
    @pytest.mark.parametrize("z_strings", ["fold", "tables"])
    def test_exact_reads_equal_one_state_reads(self, n, count, batches, z_strings):
        rng = np.random.default_rng(900 + n)
        states = [random_state(rng, n) for _ in range(count)]
        plan = ReadPlan(self.strings(rng, n, 2 * n - 1 if z_strings == "fold" else 2 * n), n)
        assert len(range(0, count, plan.batch)) == batches
        routes = {"fold", "window", "tables"} if z_strings == "fold" else {"window", "tables"}
        assert set(plan.routes.values()) == routes
        alone = [plan.values([state])[0].tolist() for state in states]
        assert [row.tolist() for row in self.in_batches(plan.values, plan, states)] == alone
        assert plan.values(states).tolist() == alone
        coefficients = rng.normal(size=(count, len(plan.masks)))
        coefficients[rng.random(coefficients.shape) < 0.3] = 0.0
        want = [plan.estimates([s], [c])[0] for s, c in zip(states, coefficients)]
        assert self.in_batches(plan.estimates, plan, states, coefficients) == want

    @pytest.mark.parametrize("n, count, batches", SERIES)
    def test_sampled_reads_equal_one_state_reads(self, n, count, batches):
        """Each state draws from its own seed, over its groups in order."""
        rng = np.random.default_rng(950 + n)
        states = [random_state(rng, n) for _ in range(count)]
        # xx, yy and zz bonds on sites 1 to 3, a mixed string and a z field: four groups
        factors = [((i, a), (i + 1, a)) for a in "xyz" for i in (1, 2)]
        factors += [((1, "x"), (2, "z")), ((n, "z"),)]
        plan = ReadPlan([(0, 0), *(pauli_masks(f, n) for f in factors)], n, shots=64)
        assert len(plan.groups) == 4
        assert len(range(0, count, plan.batch)) == batches
        seeds = list(range(100, 100 + count))
        alone = [plan.values([s], [seed])[0].tolist() for s, seed in zip(states, seeds)]
        batched = self.in_batches(plan.values, plan, states, seeds)
        assert [row.tolist() for row in batched] == alone
        coefficients = rng.normal(size=(count, len(plan.masks)))
        # state 0 has no string of group 0, so it does not draw that group
        coefficients[0, plan.groups[0][0]] = 0.0
        want = [
            plan.estimates([s], [c], [seed])[0] for s, c, seed in zip(states, coefficients, seeds)
        ]
        assert self.in_batches(plan.estimates, plan, states, coefficients, seeds) == want

    def test_a_one_state_batch_copies_nothing(self):
        """The z reads of a wide state (as the 20-spin benchmark chain's) work on
        |amplitude|^2 rows taken from the state itself: the read's peak stays below
        the state's own size."""
        n = 18
        state = random_state(np.random.default_rng(18), n)
        plan = ReadPlan([pauli_masks(((site, "z"),), n) for site in range(1, n + 1)], n)
        assert plan.routes == {0: "fold"} and plan.batch == 1
        tracemalloc.start()
        try:
            plan.estimates([state], [[1.0 / n] * n])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < state.amplitudes.nbytes

    def test_a_batch_through_the_tables_holds_one_states_table(self):
        """61 10-spin states (a 60-step series) read through the tables need
        no more memory than one state but the returned values and a slack of
        64 KiB, which holds the few other (61, 10) arrays of the read: the
        tables' values and the entries they read.  17.3 KB over one state
        seen, 6.1 MB when a table held every (state, x mask) column of the
        batch."""
        n, count, slack = 10, 61, 64 * 1024
        rng = np.random.default_rng(61)
        states = [random_state(rng, n) for _ in range(count)]
        # ten x masks, each string x on a site and z three sites on, around the
        # chain: no string fits the window's two adjacent qubits
        strings = [((site, "x"), ((site + 2) % n + 1, "z")) for site in range(1, n + 1)]
        plan = ReadPlan([pauli_masks(f, n) for f in strings], n)
        assert set(plan.routes.values()) == {"tables"} and plan.batch >= count
        peaks = []
        for batch in (states[:1], states):
            tracemalloc.start()
            try:
                values = plan.values(batch)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= values.nbytes + slack


class TestWindowReads:
    """Groups on an x mask whose strings' x and z lie on at most two adjacent qubits,
    a bond's or a site's, read from their window's pair products."""

    @staticmethod
    def window_strings(n, site):
        """Every string on an x mask whose x and z lie on sites ``site`` and ``site`` + 1:
        the bond's xx, yy, xy and yx, and on each of the two sites x and y, alone and
        times z on the other site: three x masks, one window."""
        a, b = site, site + 1
        factors = [((a, p), (b, q)) for p, q in ("xx", "yy", "xy", "yx")]
        factors += [((a, p),) for p in "xy"] + [((a, p), (b, "z")) for p in "xy"]
        factors += [((b, p),) for p in "xy"] + [((a, "z"), (b, p)) for p in "xy"]
        return [pauli_masks(f, n) for f in factors]

    @pytest.mark.parametrize("n", [2, 3, 11, 17, 20])
    def test_reads_equal_the_applied_string(self, n):
        """At every bond and site, both chain ends included, within 2 n eps of
        :func:`backend._real_dot` of the applied string (0.25 n eps seen); |x & z|
        is even for x, xx and x times z, and odd for y, xy and y times z."""
        state = random_state(np.random.default_rng(2000 + n), n)
        for site in range(1, n):
            masks = self.window_strings(n, site)
            plan = ReadPlan(masks, n)
            assert list(plan.routes.values()) == ["window"] * 3
            got = plan.values([state])[0]
            x, z = map(list, zip(*masks))
            want = TestReadPlanReads.real_dots(state.amplitudes, x, z, n)
            np.testing.assert_allclose(got, want, rtol=0, atol=2 * n * np.finfo(float).eps)

    @pytest.mark.parametrize("n", [3, 17])
    def test_a_state_reads_the_same_alone_and_in_a_batch(self, n):
        """A chain's xx and yy bonds and x and y fields, on read-only states, two
        per batch at n = 17: each state's products come from its own amplitudes,
        which are only read."""
        rng = np.random.default_rng(650 + n)
        states = [TestReadPlanReads.read_only(random_state(rng, n)) for _ in range(3)]
        before = [state.amplitudes.copy() for state in states]
        factors = [((s, a), (s + 1, a)) for s in range(1, n) for a in "xy"]
        factors += [((s, a),) for s in range(1, n + 1) for a in "xy"]
        plan = ReadPlan([pauli_masks(f, n) for f in factors], n)
        assert set(plan.routes.values()) == {"window"} and plan.batch == max(1, 2**18 >> n)
        alone = [plan.values([state])[0].tolist() for state in states]
        assert plan.values(states).tolist() == alone
        batched = TestBatchedReads.in_batches(plan.values, plan, states)
        assert [row.tolist() for row in batched] == alone
        assert all(np.array_equal(s.amplitudes, b) for s, b in zip(states, before))

    def test_a_read_copies_no_amplitude(self):
        """A bond's four strings and a site's x and y at n = 18 peak below 64 KiB
        traced (5.1 KB seen), against the state's 4 MiB."""
        n = 18
        state = random_state(np.random.default_rng(18), n)
        masks = self.window_strings(n, n - 1)[:6]
        plan = ReadPlan(masks, n)
        tracemalloc.start()
        try:
            plan.values([state])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestSlicedFold:
    """The fold forms |psi|^2 in slices of backend._CHUNK (2^16) amplitudes: one
    slice below 17 qubits, where it reads as the unsliced fold bit for bit."""

    @staticmethod
    def supports(rng, n):
        """The qubits of TestExpectation.diagonal_terms, sorted by first qubit."""
        terms = TestExpectation.diagonal_terms(rng, n)
        return sorted(([s - 1 for s, _ in t.factors] for t in terms), key=lambda s: s[0])

    @pytest.mark.parametrize("n", [1, 2, 7, 12, 15, 16])
    def test_one_slice_reads_as_the_unsliced_fold(self, n):
        rng = np.random.default_rng(1600 + n)
        states = [random_state(rng, n) for _ in range(3)]
        supports = self.supports(rng, n)
        batch = [state.amplitudes for state in states]
        got = backend._fold_reads(batch, n, supports)
        assert got.tobytes() == unsliced_fold(states, supports).tobytes()

    @pytest.mark.parametrize("n", [17, 18, 19, 20])
    def test_slices_agree_with_the_unsliced_fold(self, n):
        rng = np.random.default_rng(1700 + n)
        state = random_state(rng, n)
        supports = self.supports(rng, n)
        # strings on the leading qubits alone, across them and past them
        lead = n - 16
        assert {s[-1] < lead for s in supports} == {True, False}
        assert any(s[0] < lead <= s[-1] for s in supports)
        got = backend._fold_reads([state.amplitudes], n, supports)
        want = unsliced_fold([state], supports)
        assert np.abs(got - want).max() <= 4 * n * np.finfo(float).eps

    @pytest.mark.parametrize("n", [17, 18])
    def test_a_state_reads_the_same_alone_and_in_a_batch(self, n):
        rng = np.random.default_rng(1800 + n)
        states = [random_state(rng, n) for _ in range(3)]
        masks = [pauli_masks(((s, "z"), (s + 1, "z")), n) for s in range(1, n)]
        masks += [pauli_masks(((s, "z"),), n) for s in range(n, 0, -1)]
        plan = ReadPlan(masks, n)
        assert plan.routes == {0: "fold"} and plan.batch == max(1, 2**18 >> n)
        alone = [plan.values([state])[0].tolist() for state in states]
        assert plan.values(states).tolist() == alone
        batched = TestBatchedReads.in_batches(plan.values, plan, states)
        assert [row.tolist() for row in batched] == alone

    def test_a_20_spin_read_holds_no_whole_probability_row(self):
        """A one-state read of a chain energy's 39 z strings peaks at a few slices
        (the unsliced fold took one 8 MiB row)."""
        n = 20
        state = random_state(np.random.default_rng(20), n)
        masks = [pauli_masks(((s, "z"), (s + 1, "z")), n) for s in range(1, n)]
        masks += [pauli_masks(((s, "z"),), n) for s in range(1, n + 1)]
        plan = ReadPlan(masks, n)
        assert plan.routes == {0: "fold"}
        tracemalloc.start()
        try:
            plan.values([state])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestPauliRotations:
    @staticmethod
    def rotation_strings(rng, n, count):
        """``count`` random non-identity (x, z) masks; the first three hold an x, a y and a z."""
        factors = [((1, axis),) for axis in "xyz"] + [
            tuple((s, str(rng.choice(["x", "y", "z"]))) for s in range(1, n + 1) if rng.random() < 0.6)
            for _ in range(count - 3)
        ]
        masks = [pauli_masks(f, n) for f in factors if f]
        return np.array(masks, dtype=np.int64).T

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_dense_unitary_of_the_rotation_gates(self, n):
        rng = np.random.default_rng(700 + n)
        x, z = self.rotation_strings(rng, n, 12)
        angles = [0.0, np.pi / 2, -np.pi / 2, *rng.uniform(-np.pi, np.pi, len(x) - 3)]
        gates = []
        for masks, angle in zip(zip(x.tolist(), z.tolist()), angles):
            gates += pauli_rotation_gates(pauli_factors(masks, n), angle)
        unitary = ir.unitary_of(program_of(n, gates))
        state = random_state(rng, n)
        before = state.amplitudes.copy()
        [got] = pauli_rotations([state], x, z, angles)
        np.testing.assert_allclose(got.amplitudes, unitary @ before, rtol=0, atol=1e-12)
        assert np.array_equal(state.amplitudes, before)

    @pytest.mark.parametrize("n", [1, 3])
    def test_no_strings_give_an_equal_copy(self, n):
        state = random_state(np.random.default_rng(n), n)
        [got] = pauli_rotations([state], [], [], [])
        assert got.num_qubits == n
        assert np.array_equal(got.amplitudes, state.amplitudes)
        assert not np.shares_memory(got.amplitudes, state.amplitudes)

    @pytest.mark.parametrize(
        "x, z, angles",
        [
            ([1, 2, 4], [0, 0, 0], [0.3]),  # fewer angles than strings
            ([1, 2, 4], [0], [0.3, 0.2, 0.1]),  # one z mask would broadcast
            ([1], [0, 1], [0.3]),  # more z masks than x masks
        ],
    )
    def test_lengths_that_disagree_are_refused(self, x, z, angles):
        state = random_state(np.random.default_rng(9), 3)
        with pytest.raises(ValueError):
            pauli_rotations([state], x, z, angles)


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
            estimate_with_sigma(product_state(["up"]), [PauliTerm(1.0, ((1, "z"),))], -1, 0)

    def test_zero_shots_reads_the_exact_expectation(self):
        state = random_state(np.random.default_rng(8), 3)
        terms = [
            PauliTerm(0.7, ((1, "x"), (2, "x"))),
            PauliTerm(-0.4, ((2, "y"), (3, "z"))),
            PauliTerm(1.3, ((3, "z"),)),
            PauliTerm(0.25, ()),
        ]
        rng = np.random.default_rng(5)
        assert estimate_with_sigma(state, terms, 0, rng) == (expectation(state, terms), None)
        # exact mode leaves the generator untouched
        assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state

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


    @pytest.mark.parametrize("seed", range(12))
    def test_turned_probabilities_match_the_basis_change_unitary(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        state = random_state(rng, n)
        x = rng.integers(2**n, size=10)
        z = rng.integers(2**n, size=10)
        masks = list(zip(x.tolist(), z.tolist()))
        drawn = []

        def recording(turned, shots, seed):
            drawn.append(turned.amplitudes)
            return sample_counts(turned, shots, seed)

        monkeypatch.setattr(backend, "sample_counts", recording)
        plan_values(state, x, z, 10, 0)
        groups = _measurement_groups(masks)
        assert len(drawn) == len(groups)
        for (gx, gz, _), turned in zip(groups, drawn):
            # the reference is ir's dense unitary of the H / RX(pi/2) circuit
            axes = [
                (q, "y" if gz >> (n - 1 - q) & 1 else "x")
                for q in range(n)
                if gx >> (n - 1 - q) & 1
            ]
            unitary = ir.unitary_of(program_of(n, ir.basis_change(axes)))
            want = np.abs(unitary @ state.amplitudes) ** 2
            assert np.max(np.abs(np.abs(turned) ** 2 - want)) <= 1e-14

    def test_sampled_reads_run_no_gate(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a sampled read ran a gate")

        monkeypatch.setattr(backend, "apply_gate", refuse)
        monkeypatch.setattr(backend, "run_statevector", refuse)
        state = random_state(np.random.default_rng(3), 3)
        terms = [PauliTerm(1.0, ((3, "x"),)), PauliTerm(1.0, ((1, "y"), (2, "x")))]
        mean, sigma = estimate_with_sigma(state, terms, 1000, 0)
        assert abs(mean - expectation(state, terms)) <= 5 * sigma
        x, z = np.array([0b001, 0b110, 0b011]), np.array([0, 0b100, 0b010])
        values = plan_values(state, x, z, 1000, 0)
        assert np.all(np.abs(values - plan_values(state, x, z)) <= 0.2)


@st.composite
def mask_lists(draw):
    n = draw(st.integers(1, 8))
    mask = st.integers(0, 2**n - 1)
    return draw(st.lists(st.tuples(mask, mask), max_size=40))


class TestMeasurementGroups:
    @given(masks=mask_lists())
    @settings(max_examples=200, deadline=None)
    def test_groups_partition_the_strings_and_share_axes(self, masks):
        groups = _measurement_groups(masks)
        members = sorted(i for _, _, group in groups for i in group)
        assert members == [i for i, (x, z) in enumerate(masks) if x | z]
        for gx, gz, group in groups:
            for i in group:
                x, z = masks[i]
                assert (gx & (x | z), gz & (x | z)) == (x, z)
            assert gx == np.bitwise_or.reduce([masks[i][0] for i in group])
            assert gz == np.bitwise_or.reduce([masks[i][1] for i in group])

    def test_string_joins_the_first_group_that_fits(self):
        # x1 opens a group, z1 a second; x1 x2 joins the first, z2 only fits the second
        masks = [(0b10, 0), (0, 0b10), (0b11, 0), (0, 0b01), (0, 0)]
        assert _measurement_groups(masks) == [[0b11, 0, [0, 2]], [0, 0b11, [1, 3]]]


class TestReadPlanValues:
    def test_exact_mode_is_one_read_plan_per_string(self):
        # an exact plan reads each string as a one-shot read of it alone, and leaves rng alone
        state = random_state(np.random.default_rng(4), 3)
        masks = [(0, 0), (1, 1), (5, 4), (7, 0), (2, 6), (0, 3)]
        rng = np.random.default_rng(5)
        [got] = ReadPlan(masks, 3).values([state], [rng])
        want = [expectation(state, [PauliTerm(1.0, pauli_factors(m, 3))]) for m in masks]
        assert got.tolist() == want
        assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state

    @pytest.mark.parametrize("seed", range(8))
    def test_sampled_values_within_five_sigma(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        state = random_state(rng, n)
        x = rng.integers(2**n, size=12)
        z = rng.integers(2**n, size=12)
        # a y factor, and the identity
        x[0] = z[0] = 1 << int(rng.integers(n))
        x[1] = z[1] = 0
        shots = 20_000
        got = plan_values(state, x, z, shots, rng)
        exact = plan_values(state, x, z)
        sigma = np.sqrt((1.0 - exact**2) / shots)
        assert np.all(np.abs(got - exact) <= 5 * sigma + 1e-12)
        assert got[1] == 1.0

    def test_z_strings_on_a_basis_state_are_exact(self):
        state = product_state(["down", "up", "down"])
        z = np.arange(8)
        got = plan_values(state, np.zeros(8, dtype=np.int64), z, 5, 0)
        want = [(-1.0) ** ((k & 0b101).bit_count()) for k in z]
        assert got.tolist() == want


def chain_strings(n):
    """(x, z) masks of the z, x and y magnetizations, the energy and the excitation
    displacement of an n-spin XYZ chain with fields on every axis."""
    cfg = parse_input(
        f"num_spins: {n}\nJ_x: 1.0\nJ_y: 0.8\nJ_z: 0.5\nh_x: 0.3\nh_y: 0.2\n"
        "h_z: random-uniform(-1, 1)\nrng_seed: 7\n"
    )
    observables = {
        **{axis: site_magnetization_observable(n, axis) for axis in "zxy"},
        "energy": energy_observable(build_hamiltonian(cfg), 0.0),
        "displacement": excitation_displacement_observable(n),
    }
    return {name: [pauli_masks(t.factors, n) for t in terms] for name, terms in observables.items()}


def fold_values(amps, n, masks):
    """Every z string of ``masks`` read by the fold, as a 1-D array (1.0 for the others)."""
    values = np.ones(len(masks))
    members = [i for i, (x, z) in enumerate(masks) if z and not x]
    supports = {i: [q for q in range(n) if masks[i][1] >> (n - 1 - q) & 1] for i in members}
    members.sort(key=lambda i: supports[i][0])
    values[members] = backend._fold_reads([amps], n, [supports[i] for i in members])[0]
    return values


def window_values(amps, n, masks):
    """Every string of ``masks`` on an x mask read by the window, one x mask at a time,
    as a 1-D array (1.0 for the others)."""
    values = np.ones(len(masks))
    by_x = {}
    for i, (x, _) in enumerate(masks):
        if x:
            by_x.setdefault(x, []).append(i)
    for x, members in by_x.items():
        z = [masks[i][1] for i in members]
        values[members] = backend._window_reads([amps], n, x, z)[0]
    return values


def table_values(amps, n, masks):
    """Every string of ``masks`` read through the Walsh-Hadamard tables, as a 1-D array."""
    values = np.ones(len(masks))
    read = [i for i, (x, z) in enumerate(masks) if x | z]
    x, z = np.array([masks[i] for i in read], dtype=np.int64).reshape(-1, 2).T
    values[read] = backend._transform_reads([amps], n, x, z)[0]
    return values


class TestBasisReads:
    """An exact ReadPlan reads a batch of product states from their indices."""

    @pytest.mark.parametrize("n", [1, 3, 5, 11, 17, 20])
    def test_the_closed_form_equals_both_routes_bit_for_bit(self, n):
        # every route: the fold, the window and the tables, signed zeros included:
        # a string on an x mask reads -0.0 where |x & z| mod 4 is 2 or 3, as a yy
        # bond does
        rng = np.random.default_rng(5100 + n)
        strings = chain_strings(n)
        union = sorted(set().union(*strings.values()))
        # from 17 spins on, each x mask's table is 2^16 or more entries: the
        # tables read the strings on the first, a middle and the last site's x masks
        x_masks = {x for x, _ in union}
        if n >= 17:
            x_masks = {0, *(x for x in x_masks if x & (2 ** (n - 1) | 2 ** (n // 2) | 1))}
        tabled = [i for i, (x, _) in enumerate(union) if x in x_masks]
        indices = [int(rng.integers(0, 2**n))]
        if n < 17:
            indices += [0, 2**n - 1, int(rng.integers(0, 2**n))]
        for index in indices:
            spins = ["down" if index >> (n - 1 - q) & 1 else "up" for q in range(n)]
            state = product_state(spins)
            assert state.basis == index
            closed = {}
            with mock.patch.object(backend, "_fold_reads", side_effect=AssertionError), \
                    mock.patch.object(backend, "_window_reads", side_effect=AssertionError), \
                    mock.patch.object(backend, "_transform_reads", side_effect=AssertionError):
                for name, masks in [*strings.items(), ("union", union)]:
                    [closed[name]] = ReadPlan(masks, n).values([state])
                    signs = [np.signbit(v) for v, (x, _) in zip(closed[name], masks) if x]
                    assert any(signs) == (name in ("energy", "union") and n > 1), name
            got = closed["union"]
            for name, masks in strings.items():
                want = got[[union.index(m) for m in masks]]
                assert closed[name].tobytes() == want.tobytes(), name
            # the same amplitudes without the index take the fold and the window
            plan = ReadPlan(union, n)
            assert set(plan.routes.values()) == {"fold", "window"}
            routed = plan.values([Statevector(n, state.amplitudes)])[0]
            assert got.tobytes() == routed.tobytes(), index
            on_x = np.array([x != 0 for x, _ in union])
            folded = fold_values(state.amplitudes, n, union)
            assert got[~on_x].tobytes() == folded[~on_x].tobytes()
            windowed = window_values(state.amplitudes, n, union)
            assert got[on_x].tobytes() == windowed[on_x].tobytes()
            tables = table_values(state.amplitudes, n, [union[i] for i in tabled])
            assert got[tabled].tobytes() == tables.tobytes()

    def test_a_batch_with_any_other_state_takes_the_routes(self):
        n = 6
        masks = chain_strings(n)["energy"]
        states = [product_state(["up", "down"] * 3), random_state(np.random.default_rng(9), n)]
        plan = ReadPlan(masks, n)
        with mock.patch.object(backend, "_fold_reads", wraps=backend._fold_reads) as fold, \
                mock.patch.object(backend, "_window_reads", wraps=backend._window_reads) as window:
            got = plan.values(states)
        # n - 1 bonds and n sites on x masks, each read through its own window
        assert fold.call_count == 1 and window.call_count == len(plan.windows) == 2 * n - 1
        want = [plan.values([Statevector(n, s.amplitudes)])[0] for s in states]
        assert got.tobytes() == np.array(want).tobytes()

    def test_a_sampled_plan_draws_from_the_amplitudes(self):
        # a product state draws as its amplitudes without the index do, and
        # leaves its generator in the same state
        n = 8
        masks = chain_strings(n)["energy"]
        state = product_state(["up", "down"] * 4)
        plan = ReadPlan(masks, n, shots=500)
        rngs = [np.random.default_rng(3) for _ in range(2)]
        got = plan.values([state], [rngs[0]])
        want = plan.values([Statevector(n, state.amplitudes)], [rngs[1]])
        assert got.tobytes() == want.tobytes()
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        assert rngs[0].random() == rngs[1].random()

    def test_only_product_states_carry_an_index(self):
        n = 5
        state = product_state(["down", "up", "up", "down", "up"])
        assert state.basis == 0b10010
        assert Statevector(n, state.amplitudes).basis is None
        plan = backend.fuse(chain_step(12))
        start = product_state(["up"] * 12)
        got = backend.run_fused(plan, start)
        assert got.basis is None
        want = backend.run_fused(plan, Statevector(12, start.amplitudes))
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
        assert pauli_rotations([state], [1], [0], [0.0])[0].basis is None


class TestStatevectorValidation:
    def test_length_must_match_qubit_count(self):
        with pytest.raises(ValueError):
            Statevector(2, np.array([1.0, 0.0], dtype=complex))

    def test_norm_reports_drift(self):
        state = Statevector(1, np.array([1.0, 1.0], dtype=complex))
        with pytest.raises(NormDriftError, match="norm drifted from 1 by 4.142e-01"):
            backend.checked_norm_drift(state)
