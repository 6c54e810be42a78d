"""Input-file parsing, validation errors, and round-trips."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_config
from spinsim.config import (
    INPUT_KEYS,
    SPIN_LIMIT,
    ConstantSchedule,
    GaussianPulseSchedule,
    LinearRampSchedule,
    RandomUniformSchedule,
    SimulationConfig,
    build_hamiltonian,
    derived_seed,
    parse_input,
    serialize,
    with_overrides,
)
from spinsim.errors import (
    ConfigError,
    ConflictingKeysError,
    MissingRequiredKeyError,
    TooLargeError,
    UnknownKeyError,
    ValueOutOfRangeError,
)
from spinsim.hamiltonian import snapshot


def parse_lines(*lines: str) -> SimulationConfig:
    return parse_input("\n".join(lines) + "\n")


class TestDefaults:
    def test_minimal_input(self):
        cfg = parse_lines("num_spins: 3")
        assert cfg.num_spins == 3
        assert cfg.mode == "real-time"
        assert cfg.total_time == 1.0
        assert cfg.num_steps == 10
        assert cfg.initial_state == ("up", "up", "up")
        assert cfg.backend_mode == "QS"
        assert cfg.shots == 0
        assert cfg.observable == "site-magnetization(z)"
        assert cfg.optimizer_level == "peephole"
        assert cfg.constant_depth is False
        assert cfg.rng_seed is None
        assert cfg.output_dir == "results"

    def test_comments_and_blank_lines_skipped(self):
        cfg = parse_lines("# chain size", "", "num_spins: 2", "   ", "# done")
        assert cfg.num_spins == 2

    def test_crlf_line_endings(self):
        cfg = parse_input("num_spins: 2\r\nmode: imaginary-time\r\n")
        assert cfg.mode == "imaginary-time"

    def test_whitespace_around_key_and_value(self):
        cfg = parse_lines("  num_spins :  4  ")
        assert cfg.num_spins == 4


class TestErrors:
    def test_missing_num_spins(self):
        with pytest.raises(MissingRequiredKeyError):
            parse_lines("mode: real-time")

    def test_unknown_key_carries_line_number(self):
        with pytest.raises(UnknownKeyError) as excinfo:
            parse_lines("num_spins: 2", "coupling: 3")
        assert excinfo.value.line == 2
        assert "coupling" in str(excinfo.value)

    def test_duplicate_key_reports_both_lines(self):
        with pytest.raises(ConflictingKeysError) as excinfo:
            parse_lines("num_spins: 2", "shots: 5", "shots: 7")
        assert excinfo.value.line == 3
        assert "line 2" in str(excinfo.value)

    def test_missing_colon(self):
        with pytest.raises(ValueOutOfRangeError) as excinfo:
            parse_lines("num_spins 2")
        assert excinfo.value.line == 1

    def test_nonpositive_num_spins(self):
        with pytest.raises(ValueOutOfRangeError):
            parse_lines("num_spins: 0")

    def test_bad_mode(self):
        with pytest.raises(ValueOutOfRangeError):
            parse_lines("num_spins: 2", "mode: euclidean")

    def test_hardware_backend_rejected_with_hint(self):
        with pytest.raises(ValueOutOfRangeError) as excinfo:
            parse_lines("num_spins: 2", "QCQS: QC")
        assert "hardware" in str(excinfo.value)

    def test_negative_shots(self):
        with pytest.raises(ValueOutOfRangeError):
            parse_lines("num_spins: 2", "shots: -1")

    def test_bad_observable(self):
        with pytest.raises(ValueOutOfRangeError):
            parse_lines("num_spins: 2", "observable: entropy")

    def test_bad_number(self):
        with pytest.raises(ValueOutOfRangeError) as excinfo:
            parse_lines("num_spins: 2", "total_time: fast")
        assert excinfo.value.line == 2

    def test_schedule_list_length_mismatch(self):
        with pytest.raises(ConflictingKeysError):
            parse_lines("num_spins: 3", "J_z: 1.0, 2.0, 3.0")

    def test_initial_state_length_mismatch(self):
        with pytest.raises(ConflictingKeysError):
            parse_lines("num_spins: 3", "initial_state: up,down")

    def test_initial_state_bad_token(self):
        with pytest.raises(ValueOutOfRangeError):
            parse_lines("num_spins: 2", "initial_state: up,sideways")

    def test_reversed_random_bounds(self):
        with pytest.raises(ValueOutOfRangeError):
            parse_lines("num_spins: 2", "h_z: random-uniform(2, -2)")

    @pytest.mark.parametrize(
        "lines, error, line",
        [
            (("num_spins: 3", "J_z: 1.0, 2.0, 3.0"), ConflictingKeysError, 2),
            (("initial_state: up,down", "num_spins: 3"), ConflictingKeysError, 1),
            (("num_spins: 2", "h_x: gaussian-pulse(1, 0, 0)"), ValueOutOfRangeError, 2),
            (("num_spins: 2", "h_z: random-uniform(2, -2)"), ValueOutOfRangeError, 2),
            (("num_spins: 2", "mode: imaginary-time", "h_z: linear-ramp(0, 1)"),
             ConflictingKeysError, 3),
            (("num_spins: 2", "num_steps: 0"), ValueOutOfRangeError, 2),
            (("num_spins: 2", "QCQS: QC"), ValueOutOfRangeError, 2),
        ],
    )
    def test_validation_errors_carry_the_key_line(self, lines, error, line):
        with pytest.raises(error) as excinfo:
            parse_lines(*lines)
        assert excinfo.value.line == line

    def test_all_errors_are_config_errors(self):
        for text in ("", "num_spins: -3", "num_spins: 2\nmode: x", "num_spins: 2\nfoo: 1"):
            with pytest.raises(ConfigError):
                parse_input(text)


class TestNumericLimits:
    @pytest.mark.parametrize(
        "lines, line",
        [
            (("num_spins: 2", "mode: imaginary-time", "total_time: 0"), 3),
            (("num_spins: 2", "J_z: 1e400"), 2),
            (("num_spins: 2", "total_time: 1e308", "J_z: 10"), 2),
            (("num_spins: 1", "mode: imaginary-time", "h_x: 1e200"), 3),
            (("num_spins: 2", "mode: imaginary-time", "total_time: 1e308", "J_z: 1"), 3),
            (("num_spins: 2", "num_steps: 1" + "0" * 400), 2),
            (("num_spins: 2", "J_z: 1", f"shots: {2**63}"), 3),
        ],
        ids=[
            "imaginary-zero-time",
            "infinite-coupling",
            "angle-overflow",
            "qite-angle-overflow",
            "qite-dbeta-overflow",
            "num-steps-beyond-float",
            "shots-beyond-int64",
        ],
    )
    def test_rejected_with_line_number(self, lines, line):
        with pytest.raises(ValueOutOfRangeError) as excinfo:
            parse_lines(*lines)
        assert excinfo.value.line == line

    def test_chain_length_capped_before_any_site_is_built(self):
        assert len(parse_lines(f"num_spins: {SPIN_LIMIT}").initial_state) == SPIN_LIMIT
        # the named initial states would build a tuple of num_spins entries
        for lines in (("initial_state: all-up",), ("initial_state: flip-first",), ()):
            with pytest.raises(TooLargeError):
                parse_lines("num_spins: 1000000000000", *lines)
        with pytest.raises(TooLargeError):
            SimulationConfig(num_spins=SPIN_LIMIT + 1)

    def test_large_but_representable_values_accepted(self):
        cfg = parse_lines("num_spins: 2", "total_time: 1e100", "J_z: 1e-90", "h_x: 1e50")
        assert cfg.total_time == 1e100


class TestSchedules:
    def test_scalar_constant(self):
        cfg = parse_lines("num_spins: 2", "J_z: 1.5")
        assert cfg.j_z == ConstantSchedule(1.5)

    def test_constant_function_form(self):
        cfg = parse_lines("num_spins: 2", "J_z: constant(1.5)")
        assert cfg.j_z == ConstantSchedule(1.5)

    def test_per_site_list(self):
        cfg = parse_lines("num_spins: 3", "h_x: 0.1, 0.2, 0.3")
        assert cfg.h_x == ConstantSchedule((0.1, 0.2, 0.3))

    def test_linear_ramp(self):
        cfg = parse_lines("num_spins: 2", "h_z: linear-ramp(0, 2)")
        assert cfg.h_z == LinearRampSchedule(0.0, 2.0)

    def test_gaussian_pulse(self):
        cfg = parse_lines("num_spins: 2", "h_x: gaussian-pulse(1.0, 0.5, 0.1)")
        assert cfg.h_x == GaussianPulseSchedule(1.0, 0.5, 0.1)

    def test_random_uniform_with_seed(self):
        cfg = parse_lines("num_spins: 2", "h_z: random-uniform(-3, 3, 17)")
        assert cfg.h_z == RandomUniformSchedule(-3.0, 3.0, 17)

    def test_random_uniform_draws_within_bounds(self):
        cfg = parse_lines("num_spins: 6", "h_z: random-uniform(-3, 3)", "rng_seed: 1")
        terms = snapshot(build_hamiltonian(cfg), 0.0)
        values = [t.coefficient for t in terms]
        assert len(values) == 6
        assert all(-3.0 <= v <= 3.0 for v in values)

    def test_random_uniform_deterministic_per_seed(self):
        text = "num_spins: 4\nh_z: random-uniform(-1, 1)\nrng_seed: 9\n"
        a = snapshot(build_hamiltonian(parse_input(text)), 0.0)
        b = snapshot(build_hamiltonian(parse_input(text)), 0.0)
        assert a == b

    def test_random_uniform_keys_get_independent_draws(self):
        cfg = parse_lines(
            "num_spins: 4",
            "h_x: random-uniform(-1, 1)",
            "h_z: random-uniform(-1, 1)",
            "rng_seed: 3",
        )
        terms = snapshot(build_hamiltonian(cfg), 0.0)
        x_values = [t.coefficient for t in terms if t.factors[0][1] == "x"]
        z_values = [t.coefficient for t in terms if t.factors[0][1] == "z"]
        assert x_values != z_values

    def test_explicit_schedule_seed_wins_over_config_seed(self):
        base = "num_spins: 4\nh_z: random-uniform(-1, 1, 42)\nrng_seed: {seed}\n"
        a = snapshot(build_hamiltonian(parse_input(base.format(seed=1))), 0.0)
        b = snapshot(build_hamiltonian(parse_input(base.format(seed=2))), 0.0)
        assert a == b


STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 10**30]


class TestNumpyStreams:
    """Coefficients draw numpy's SeedSequence and PCG64 streams without numpy.random."""

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_derived_seed_is_seed_sequence_state(self, seed):
        for salt in range(6):  # J_x..h_z
            expected = int(np.random.SeedSequence([seed, salt]).generate_state(1)[0])
            assert derived_seed(seed, salt) == expected

    def test_negative_entropy_is_rejected_as_numpy_does(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence([-1, 0])
        with pytest.raises(ValueError):
            derived_seed(-1, 0)

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize(
        "low, high",
        [(0.7, 0.7), (0.0, 0.0), (5e-324, 1e-320), (-2.5, 0.75)],
        ids=["equal", "zero", "subnormal", "mixed-signs"],
    )
    def test_draws_are_generator_uniform_bit_for_bit(self, seed, low, high):
        for count in range(1, 41):
            resolved = RandomUniformSchedule(low, high, seed).resolve(count, 0.0, None)
            draws = np.array([schedule.values for schedule in resolved])
            expected = np.random.default_rng(seed).uniform(low, high, size=count)
            assert draws.tobytes() == expected.tobytes()


class TestBuildHamiltonian:
    def test_bond_and_field_counts(self):
        cfg = parse_lines(
            "num_spins: 5",
            "J_x: 1.0",
            "J_y: 1.0",
            "h_z: random-uniform(-3, 3)",
            "rng_seed: 0",
        )
        terms = snapshot(build_hamiltonian(cfg), 0.0)
        bonds = [t for t in terms if len(t.factors) == 2]
        fields = [t for t in terms if len(t.factors) == 1]
        assert len(bonds) == 8
        assert len(fields) == 5

    def test_transverse_field_chain_counts(self):
        cfg = parse_lines("num_spins: 3", "J_z: 1.0", "h_x: 1.0")
        terms = snapshot(build_hamiltonian(cfg), 0.0)
        bonds = [t for t in terms if len(t.factors) == 2]
        fields = [t for t in terms if len(t.factors) == 1]
        assert len(bonds) == 2
        assert len(fields) == 3

    def test_zero_schedules_produce_no_terms(self):
        cfg = parse_lines("num_spins: 4")
        assert snapshot(build_hamiltonian(cfg), 0.0) == []

    def test_single_spin_has_no_bonds(self):
        cfg = parse_lines("num_spins: 1", "J_z: 1.0", "h_x: 0.5")
        terms = snapshot(build_hamiltonian(cfg), 0.0)
        assert [t.factors for t in terms] == [((1, "x"),)]

    def test_ramp_evaluated_at_time(self):
        cfg = parse_lines(
            "num_spins: 1", "total_time: 2.0", "h_x: linear-ramp(0, 2)"
        )
        hamiltonian = build_hamiltonian(cfg)
        (term,) = snapshot(hamiltonian, 1.0)
        assert term.coefficient == pytest.approx(1.0)


class TestRoundTrip:
    def test_serialize_then_parse_is_identity(self):
        cfg = parse_lines(
            "num_spins: 4",
            "total_time: 2.5",
            "num_steps: 25",
            "J_z: 1.0",
            "h_x: linear-ramp(0.5, 1.5)",
            "h_z: random-uniform(-3, 3, 7)",
            "initial_state: down,up,up,down",
            "shots: 1024",
            "observable: energy",
            "optimizer_level: none",
            "rng_seed: 11",
            "output_dir: results/demo",
        )
        assert parse_input(serialize(cfg)) == cfg

    def test_serialized_text_is_stable(self):
        cfg = parse_lines("num_spins: 2")
        assert serialize(cfg) == serialize(parse_input(serialize(cfg)))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_fuzzed_configs_round_trip(self, seed):
        cfg = random_config(np.random.default_rng(seed))
        assert parse_input(serialize(cfg)) == cfg


class TestKeyTable:
    def test_readme_lists_exactly_the_input_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Input format")[1].split("\n## ")[0]
        listed = set()
        for row in section.splitlines():
            if row.startswith("| `"):
                listed.update(row.split("|")[1].strip().strip("`").split())
        assert listed == set(INPUT_KEYS)


class TestOverrides:
    def test_override_replaces_seed_shots_output(self):
        cfg = parse_lines("num_spins: 2", "shots: 10", "rng_seed: 1")
        out = with_overrides(cfg, seed=5, shots=0)
        assert out.rng_seed == 5
        assert out.shots == 0

    def test_invalid_override_rejected_without_line(self):
        with pytest.raises(ValueOutOfRangeError) as excinfo:
            with_overrides(parse_lines("num_spins: 2"), shots=-1)
        assert excinfo.value.line is None

    def test_no_overrides_returns_same_config(self):
        cfg = parse_lines("num_spins: 2")
        assert with_overrides(cfg) is cfg
