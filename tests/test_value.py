"""The contract every spinsim value type keeps (spinsim/value.py)."""

import copy
import pickle

import numpy as np
import pytest

from spinsim.backend import FusedBlock, Statevector
from spinsim.config import (
    ConstantSchedule,
    GaussianPulseSchedule,
    InputKey,
    LinearRampSchedule,
    RandomUniformSchedule,
    SimulationConfig,
    with_overrides,
)
from spinsim.errors import ConfigError
from spinsim.hamiltonian import HeisenbergHamiltonian, PauliTerm
from spinsim.ir import Gate, Program
from spinsim.observables import ResultSeries
from spinsim.qite import QiteParams, QiteStepReport
from spinsim.trotter import TrotterParams

_CONFIG_REPR = (
    "SimulationConfig(num_spins=2, mode='real-time', total_time=1.0, num_steps=10, "
    "j_x=ConstantSchedule(values=0.0), j_y=ConstantSchedule(values=0.0), "
    "j_z=ConstantSchedule(values=0.0), h_x=ConstantSchedule(values=0.0), "
    "h_y=ConstantSchedule(values=0.0), h_z=ConstantSchedule(values=0.0), "
    "initial_state=('up', 'up'), backend_mode='QS', shots=10, "
    "observable='site-magnetization(z)', optimizer_level='peephole', constant_depth=False, "
    "rng_seed=None, output_dir='results')"
)

# (a builder of one instance, its repr as the frozen dataclasses printed it)
VALUES = {
    "ConstantSchedule": (lambda: ConstantSchedule((0.5,)), "ConstantSchedule(values=0.5)"),
    "LinearRampSchedule": (
        lambda: LinearRampSchedule(0.0, 1.0),
        "LinearRampSchedule(start=0.0, stop=1.0, total_time=None)",
    ),
    "GaussianPulseSchedule": (
        lambda: GaussianPulseSchedule(1.0, 0.5, 0.2),
        "GaussianPulseSchedule(amplitude=1.0, center=0.5, width=0.2)",
    ),
    "RandomUniformSchedule": (
        lambda: RandomUniformSchedule(-1.0, 1.0, 7),
        "RandomUniformSchedule(low=-1.0, high=1.0, seed=7)",
    ),
    "SimulationConfig": (lambda: SimulationConfig(2, shots=10), _CONFIG_REPR),
    "InputKey": (
        lambda: InputKey("shots", int, minimum=0),
        "InputKey(field='shots', parse=<class 'int'>, render=<class 'str'>, choices=(), minimum=0)",
    ),
    "PauliTerm": (
        lambda: PauliTerm(0.5, ((1, "x"), (2, "x"))),
        "PauliTerm(coefficient=0.5, factors=((1, 'x'), (2, 'x')))",
    ),
    "HeisenbergHamiltonian": (
        lambda: HeisenbergHamiltonian(2, {("z", 1): ConstantSchedule(1.0)}, {}),
        "HeisenbergHamiltonian(num_spins=2, bond_coefficients={('z', 1): "
        "ConstantSchedule(values=1.0)}, field_coefficients={})",
    ),
    "Gate": (lambda: Gate("rz", (3,), 0.5), "Gate(kind='rz', qubits=(3,), theta=0.5)"),
    "Program": (
        lambda: Program(4, (Gate("cnot", (0, 1)),)),
        "Program(num_qubits=4, gates=(Gate(kind='cnot', qubits=(0, 1), theta=None),), "
        "measured=False)",
    ),
    "ResultSeries": (
        lambda: ResultSeries("t", ((0.0, 1.0, None),), {"observable": "energy"}),
        "ResultSeries(axis_label='t', points=((0.0, 1.0, None),), "
        "metadata={'observable': 'energy'})",
    ),
    "QiteParams": (
        lambda: QiteParams(0.1, 3),
        "QiteParams(dbeta=0.1, num_steps=3, domain_radius=0, shots=0, seed=0)",
    ),
    "QiteStepReport": (
        lambda: QiteStepReport(0, -1.0, None, (), 0.0, 1.0, Program(2)),
        "QiteStepReport(step=0, energy=-1.0, sigma=None, coefficients=(), residual=0.0, "
        "normalization=1.0, program=Program(num_qubits=2, gates=(), measured=False), "
        "norm_drift=None)",
    ),
    "TrotterParams": (
        lambda: TrotterParams(1.0, 4),
        "TrotterParams(total_time=1.0, num_steps=4)",
    ),
}

# the two types that hold arrays, which compare by identity
ARRAY_VALUES = {
    "Statevector": lambda: Statevector(1, np.array([1, 0], dtype=complex)),
    "FusedBlock": lambda: FusedBlock(0, np.eye(2, dtype=complex), 1),
}

# the types whose fields include a dict, which no hash takes
UNHASHABLE = {"HeisenbergHamiltonian", "ResultSeries"}

EVERY_VALUE = {name: build for name, (build, _) in VALUES.items()} | ARRAY_VALUES


@pytest.mark.parametrize("name", EVERY_VALUE)
def test_fields_cannot_be_assigned_or_deleted(name):
    value = EVERY_VALUE[name]()
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.unknown = 1


@pytest.mark.parametrize("name", EVERY_VALUE)
def test_keywords_build_what_positions_build(name):
    value = EVERY_VALUE[name]()
    fields = {field: getattr(value, field) for field in value._fields}
    by_position = type(value)(*fields.values())
    by_keyword = type(value)(**fields)
    assert repr(by_position) == repr(by_keyword) == repr(value)


@pytest.mark.parametrize("name", VALUES)
def test_equal_fields_give_equal_values_and_hashes(name):
    build, _ = VALUES[name]
    first, second = build(), build()
    assert first is not second
    assert first == second
    assert not first != second
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)


@pytest.mark.parametrize("name", EVERY_VALUE)
def test_copies_and_pickles_keep_the_fields(name):
    value = EVERY_VALUE[name]()
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value)
        assert repr(copied) == repr(value)


@pytest.mark.parametrize("name", VALUES)
def test_a_value_differs_from_a_tuple_of_its_fields(name):
    value = VALUES[name][0]()
    fields = tuple(getattr(value, field) for field in value._fields)
    assert value != fields
    assert fields != value


@pytest.mark.parametrize("name", VALUES)
def test_repr_is_the_dataclass_format(name):
    build, expected = VALUES[name]
    assert repr(build()) == expected


def test_array_reprs_leave_out_derived_fields():
    amplitudes = np.array([1, 0], dtype=complex)
    expected = f"Statevector(num_qubits=1, amplitudes={amplitudes!r})"
    assert repr(Statevector(1, amplitudes)) == expected
    block = FusedBlock(0, np.eye(2, dtype=complex), 1)
    assert block.product is not None
    assert repr(block) == f"FusedBlock(lo=0, matrix={block.matrix!r}, num_qubits=1)"


@pytest.mark.parametrize("name", ARRAY_VALUES)
def test_array_values_compare_by_identity_and_never_raise(name):
    # two distinct, equal-shaped arrays once made == raise "truth value of
    # an array is ambiguous", and hash() raise TypeError
    first, second = ARRAY_VALUES[name](), ARRAY_VALUES[name]()
    assert (first == second) is False
    assert (first != second) is True
    assert (first == first) is True
    assert hash(first) == hash(first)
    assert len({first, second}) == 2


def test_with_overrides_checks_the_config_again():
    cfg = SimulationConfig(2)
    assert with_overrides(cfg, seed=5) == SimulationConfig(2, rng_seed=5)
    with pytest.raises(ConfigError, match="rng_seed"):
        with_overrides(cfg, seed=-1)


def test_constructor_checks_still_run():
    with pytest.raises(ValueError, match="exceeds register width"):
        Program(2, (Gate("cnot", (1, 2)),))
    with pytest.raises(ValueError, match="strictly increasing"):
        PauliTerm(1.0, ((2, "x"), (1, "q")))
    with pytest.raises(ValueError, match="1-based"):
        PauliTerm(1.0, ((0, "x"), (1, "q")))
    with pytest.raises(ValueError, match="unknown axis"):
        PauliTerm(1.0, ((1, "x"), (2, "q")))
    with pytest.raises(ValueError, match="negative qubit"):
        Gate("cnot", (-1, 2))
    with pytest.raises(ValueError, match="expected 4 amplitudes"):
        Statevector(2, np.zeros(2))
