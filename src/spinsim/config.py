"""Plain-text simulation descriptions: parsing, validation, serialization.

An input file is a sequence of ``key: value`` lines.  Lines whose first
non-blank character is ``#`` are comments, blank lines are skipped, and
both LF and CRLF endings are accepted.  Keys may appear in any order
but at most once, and ``num_spins`` is required.  :data:`INPUT_KEYS` is
the key set: each key's :class:`SimulationConfig` field (whose default
is the key's default), how its text is parsed and rendered, and its
allowed choices or minimum.

Coupling and field values are either a scalar (broadcast over every
bond or site), a comma-separated per-bond/per-site list, or one of the
schedule forms ``constant(v)``, ``linear-ramp(v0, v1)``,
``gaussian-pulse(amplitude, center, width)`` and
``random-uniform(lo, hi[, seed])``.  The ramp runs over [0, total_time]
and random-uniform draws one value per bond or site when the
Hamiltonian is built, reproducibly from its seed (falling back to
rng_seed when none is given inline).  The draws are numpy's
``default_rng(seed).uniform`` stream, replayed in plain integers by
:func:`_uniform_draws`, so building a Hamiltonian never imports
``numpy.random``.  Resolved schedules are the coefficient functions
J^a_i(t) and h^a_i(t) of the Hamiltonian.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Callable

from .errors import (
    ConfigError,
    ConflictingKeysError,
    MissingRequiredKeyError,
    TooLargeError,
    UnknownKeyError,
    ValueOutOfRangeError,
)
from .hamiltonian import HeisenbergHamiltonian
from .ir import format_float
from .value import Value, set_fields


class ConstantSchedule(Value):
    """Scalar broadcast to every index, or an explicit per-index tuple."""

    is_time_dependent = False

    def __init__(self, values: float | tuple[float, ...]):
        # a one-entry list means the same thing as a scalar; normalizing
        # here keeps serialize/parse round-trips exact
        if isinstance(values, tuple) and len(values) == 1:
            values = values[0]
        set_fields(self, values)

    def at(self, t: float) -> float:
        """Value of a scalar schedule; resolve() splits a list into scalars."""
        return self.values

    @property
    def peak(self) -> float:
        """Largest |value| over time and index."""
        values = self.values if isinstance(self.values, tuple) else (self.values,)
        return max(abs(v) for v in values)

    def resolve(self, count: int, total_time: float, fallback_seed: int | None):
        """One schedule per bond or site."""
        if isinstance(self.values, tuple):
            return tuple(ConstantSchedule(v) for v in self.values)
        return (self,) * count

    def __str__(self) -> str:
        if isinstance(self.values, tuple):
            return ", ".join(format_float(v) for v in self.values)
        return format_float(self.values)


class LinearRampSchedule(Value):
    """Interpolates from start at t=0 to stop at t=total_time.

    ``total_time`` is filled in by :meth:`resolve`; while it is unset or
    zero the ramp sits at ``stop``.
    """

    def __init__(self, start: float, stop: float, total_time: float | None = None):
        set_fields(self, start, stop, total_time)

    def at(self, t: float) -> float:
        if not self.total_time:
            return self.stop
        frac = min(max(t / self.total_time, 0.0), 1.0)
        return self.start + (self.stop - self.start) * frac

    @property
    def is_time_dependent(self) -> bool:
        return self.start != self.stop

    @property
    def peak(self) -> float:
        return max(abs(self.start), abs(self.stop))

    def resolve(self, count: int, total_time: float, fallback_seed: int | None):
        return (LinearRampSchedule(self.start, self.stop, total_time),) * count

    def __str__(self) -> str:
        return f"linear-ramp({format_float(self.start)}, {format_float(self.stop)})"


class GaussianPulseSchedule(Value):
    """Envelope amplitude * exp(-(t-center)^2 / (2 width^2))."""

    def __init__(self, amplitude: float, center: float, width: float):
        set_fields(self, amplitude, center, width)

    def at(self, t: float) -> float:
        arg = (t - self.center) / self.width
        return self.amplitude * math.exp(-0.5 * arg * arg)

    @property
    def is_time_dependent(self) -> bool:
        return self.amplitude != 0.0

    @property
    def peak(self) -> float:
        return abs(self.amplitude)

    def resolve(self, count: int, total_time: float, fallback_seed: int | None):
        return (self,) * count

    def __str__(self) -> str:
        parts = (self.amplitude, self.center, self.width)
        return f"gaussian-pulse({', '.join(format_float(v) for v in parts)})"


class RandomUniformSchedule(Value):
    """One uniform draw from [low, high] per index, fixed at build time.

    The draws equal ``numpy.random.default_rng(seed).uniform(low, high,
    size=count)`` bit for bit, without importing ``numpy.random``.  When
    ``seed`` is None the draw is seeded from the config's rng_seed
    together with a stable per-key salt (:func:`derived_seed`), so
    distinct keys get distinct but reproducible values.
    """

    is_time_dependent = False

    def __init__(self, low: float, high: float, seed: int | None = None):
        set_fields(self, low, high, seed)

    @property
    def peak(self) -> float:
        return max(abs(self.low), abs(self.high))

    def resolve(self, count: int, total_time: float, fallback_seed: int | None):
        seed = self.seed if self.seed is not None else fallback_seed
        draws = _uniform_draws(seed, self.low, self.high, count)
        return tuple(ConstantSchedule(v) for v in draws)

    def __str__(self) -> str:
        parts = [format_float(self.low), format_float(self.high)]
        if self.seed is not None:
            parts.append(str(self.seed))
        return f"random-uniform({', '.join(parts)})"


CoefficientSchedule = (
    ConstantSchedule | LinearRampSchedule | GaussianPulseSchedule | RandomUniformSchedule
)

ZERO_SCHEDULE = ConstantSchedule(0.0)


class SimulationConfig(Value):
    """A fully validated simulation description."""

    def __init__(
        self,
        num_spins: int,
        mode: str = "real-time",
        total_time: float = 1.0,
        num_steps: int = 10,
        j_x: CoefficientSchedule = ZERO_SCHEDULE,
        j_y: CoefficientSchedule = ZERO_SCHEDULE,
        j_z: CoefficientSchedule = ZERO_SCHEDULE,
        h_x: CoefficientSchedule = ZERO_SCHEDULE,
        h_y: CoefficientSchedule = ZERO_SCHEDULE,
        h_z: CoefficientSchedule = ZERO_SCHEDULE,
        initial_state: tuple[str, ...] = (),
        backend_mode: str = "QS",
        shots: int = 0,
        observable: str = "site-magnetization(z)",
        optimizer_level: str = "peephole",
        constant_depth: bool = False,
        rng_seed: int | None = None,
        output_dir: str = "results",
    ):
        _check_chain_length(num_spins)
        set_fields(
            self, num_spins, mode, total_time, num_steps, j_x, j_y, j_z, h_x, h_y, h_z,
            initial_state or ("up",) * num_spins, backend_mode, shots, observable,
            optimizer_level, constant_depth, rng_seed, output_dir,
        )
        _validate_config(self)


_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_SCHEDULE_RE = re.compile(r"^(?P<name>[a-z-]+)\s*\(\s*(?P<args>[^()]*)\s*\)$")


# Value parsers take the stripped value text and the chain length; only
# initial_state's named forms use the latter.


def _text(text: str, num_spins: int = 0) -> str:
    return text


def _number(text: str, num_spins: int = 0) -> float:
    value = float(text) if _NUMBER_RE.match(text) else math.nan
    if not math.isfinite(value):
        raise ValueOutOfRangeError(f"expected a finite number, got {text!r}")
    return value


def _integer(text: str, num_spins: int = 0) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueOutOfRangeError(f"expected an integer, got {text!r}") from None


# Longer chains end the run before any per-site value is built; the
# statevector backend stops far earlier, at 24 qubits.
SPIN_LIMIT = 4096


def _check_chain_length(num_spins: int) -> int:
    if num_spins > SPIN_LIMIT:
        raise TooLargeError(f"num_spins is limited to {SPIN_LIMIT}, got {num_spins}")
    return num_spins


def _chain_length(text: str, num_spins: int = 0) -> int:
    return _check_chain_length(_integer(text))


def _boolean(text: str, num_spins: int = 0) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueOutOfRangeError(f"expected True or False, got {text!r}")
    return text.lower() == "true"


def _spins(text: str, num_spins: int) -> tuple[str, ...]:
    if text == "all-up":
        return ("up",) * num_spins
    if text == "flip-first":
        return ("down",) + ("up",) * (num_spins - 1)
    return tuple(p.strip() for p in text.split(","))


# form name -> (schedule class, argument list, accepted argument counts)
_SCHEDULE_FORMS = {
    "constant": (ConstantSchedule, "v", (1,)),
    "linear-ramp": (LinearRampSchedule, "v0, v1", (2,)),
    "gaussian-pulse": (GaussianPulseSchedule, "amplitude, center, width", (3,)),
    "random-uniform": (RandomUniformSchedule, "lo, hi[, seed]", (2, 3)),
}


def _schedule(text: str, num_spins: int = 0) -> CoefficientSchedule:
    m = _SCHEDULE_RE.match(text)
    if m is None:
        return ConstantSchedule(tuple(_number(p.strip()) for p in text.split(",")))
    name = m.group("name")
    if name not in _SCHEDULE_FORMS:
        raise ValueOutOfRangeError(f"unknown schedule form {name!r}")
    cls, usage, counts = _SCHEDULE_FORMS[name]
    args = [a.strip() for a in m.group("args").split(",")]
    if len(args) not in counts:
        expected = " or ".join(map(str, counts))
        raise ValueOutOfRangeError(f"{name}({usage}) takes {expected} arguments")
    if cls is RandomUniformSchedule and len(args) == 3:
        return RandomUniformSchedule(_number(args[0]), _number(args[1]), _integer(args[2]))
    return cls(*(_number(a) for a in args))


class InputKey(Value):
    """How one input key maps onto a :class:`SimulationConfig` field."""

    def __init__(
        self,
        field: str,
        parse: Callable[[str, int], object],
        render: Callable[[object], str] = str,
        choices: tuple[str, ...] = (),
        minimum: int | None = None,
    ):
        set_fields(self, field, parse, render, choices, minimum)


# The input key set, in serialization order.  Fields left None
# (rng_seed) are not serialized.
INPUT_KEYS = {
    "num_spins": InputKey("num_spins", _chain_length, minimum=1),
    "mode": InputKey("mode", _text, choices=("real-time", "imaginary-time")),
    "total_time": InputKey("total_time", _number, format_float, minimum=0),
    "num_steps": InputKey("num_steps", _integer, minimum=1),
    "J_x": InputKey("j_x", _schedule),
    "J_y": InputKey("j_y", _schedule),
    "J_z": InputKey("j_z", _schedule),
    "h_x": InputKey("h_x", _schedule),
    "h_y": InputKey("h_y", _schedule),
    "h_z": InputKey("h_z", _schedule),
    "initial_state": InputKey("initial_state", _spins, ",".join),
    "QCQS": InputKey("backend_mode", _text, choices=("QS", "export-only")),
    "shots": InputKey("shots", _integer, minimum=0),
    "observable": InputKey(
        "observable",
        _text,
        choices=tuple(f"site-magnetization({a})" for a in "xyz")
        + ("excitation-displacement", "energy"),
    ),
    "optimizer_level": InputKey("optimizer_level", _text, choices=("none", "peephole")),
    "constant_depth": InputKey("constant_depth", _boolean),
    "rng_seed": InputKey("rng_seed", _integer, minimum=0),
    "output_dir": InputKey("output_dir", _text),
}


def _schedule_slots(num_spins: int) -> list[tuple[str, int]]:
    """(key, bond or site count) of every schedule key, in table order.

    A key's position here (J_x..h_z = 0..5) salts its random draws.
    """
    return [
        (key, num_spins - 1 if key.startswith("J") else num_spins)
        for key, spec in INPUT_KEYS.items()
        if spec.parse is _schedule
    ]


def _invalid(field: str, message: str, error: type[ConfigError] = ValueOutOfRangeError):
    """A config error tagged with the field whose input line is to blame."""
    exc = error(message)
    exc.field = field
    return exc


def _validate_config(cfg: SimulationConfig) -> None:
    for key, spec in INPUT_KEYS.items():
        value = getattr(cfg, spec.field)
        if spec.choices and value not in spec.choices:
            hint = ""
            if (key, value) == ("QCQS", "QC"):
                hint = " (cloud hardware execution is not part of this package)"
            raise _invalid(spec.field, f"{key} must be one of {spec.choices}, got {value!r}{hint}")
        if spec.minimum is not None and value is not None and value < spec.minimum:
            raise _invalid(spec.field, f"{key} must be >= {spec.minimum}, got {value}")
    if cfg.num_steps >= sys.maxsize:
        raise _invalid("num_steps", f"num_steps must be < sys.maxsize = {sys.maxsize}")
    if cfg.shots >= 2**63:
        raise _invalid("shots", "shots must be < 2**63, the sampler's 64-bit count limit")
    for spin in cfg.initial_state:
        if spin not in ("up", "down"):
            raise _invalid("initial_state", f"initial_state entries are up or down, not {spin!r}")
    if len(cfg.initial_state) != cfg.num_spins:
        raise _invalid(
            "initial_state",
            f"initial_state lists {len(cfg.initial_state)} spins for a chain of {cfg.num_spins}",
            ConflictingKeysError,
        )
    if cfg.mode == "imaginary-time" and cfg.total_time == 0.0:
        raise _invalid("total_time", "imaginary-time evolution needs total_time > 0")

    bounds = {}
    for key, count in _schedule_slots(cfg.num_spins):
        field = INPUT_KEYS[key].field
        spec = getattr(cfg, field)
        if isinstance(spec, ConstantSchedule) and isinstance(spec.values, tuple):
            if len(spec.values) != count:
                raise _invalid(
                    field,
                    f"{key} lists {len(spec.values)} values but the chain has {count} "
                    f"{'bonds' if key.startswith('J') else 'sites'}",
                    ConflictingKeysError,
                )
        if isinstance(spec, GaussianPulseSchedule) and spec.width <= 0.0:
            raise _invalid(field, f"{key}: gaussian-pulse width must be positive")
        if isinstance(spec, RandomUniformSchedule):
            if spec.low > spec.high:
                raise _invalid(field, f"{key}: random-uniform bounds are reversed")
            if spec.seed is not None and spec.seed < 0:
                raise _invalid(field, f"{key}: random-uniform seed must be >= 0")
        if cfg.mode == "imaginary-time" and spec.is_time_dependent:
            raise _invalid(
                field,
                f"{key} is time dependent but imaginary-time evolution needs a static Hamiltonian",
                ConflictingKeysError,
            )
        bounds[field] = count * spec.peak

    # With T = total_time and S the summed coefficient bound, (1 + T)(1 + S)
    # exceeds T, S and T*S.  Squared and finite, it keeps every rotation
    # angle 2|c|dt, QITE's dbeta^2 <H^2> and the energy finite.
    total = sum(bounds.values())
    scale = (1.0 + cfg.total_time) * (1.0 + total)
    if not math.isfinite(scale * scale):
        blamed = "total_time" if cfg.total_time >= total else max(bounds, key=bounds.get)
        raise _invalid(
            blamed,
            f"total_time {cfg.total_time:g} with coefficients summing to {total:g} "
            "is too large to simulate",
        )


def parse_input(text: str) -> SimulationConfig:
    """Parse an input description into a validated config.

    Problems raise a :class:`~spinsim.errors.ConfigError` subclass
    carrying the line number of the key to blame where one exists.
    """
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\r").strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ValueOutOfRangeError(f"expected 'key: value', got {line!r}", lineno)
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key not in INPUT_KEYS:
            raise UnknownKeyError(f"unknown key {key!r}", lineno)
        if key in entries:
            raise ConflictingKeysError(
                f"{key!r} already set on line {entries[key][1]}", lineno
            )
        if not value:
            raise ValueOutOfRangeError(f"{key}: empty value", lineno)
        entries[key] = (value, lineno)

    if "num_spins" not in entries:
        raise MissingRequiredKeyError("num_spins is required")
    kwargs = {}
    # num_spins goes first: initial_state's named forms need the chain length
    for key in sorted(entries, key=lambda k: k != "num_spins"):
        value, line = entries[key]
        spec = INPUT_KEYS[key]
        try:
            kwargs[spec.field] = spec.parse(value, kwargs.get("num_spins", 0))
        except ConfigError as exc:
            raise type(exc)(f"{key}: {exc}", line) from None
    try:
        return SimulationConfig(**kwargs)
    except ConfigError as exc:
        line_of = {INPUT_KEYS[key].field: line for key, (_, line) in entries.items()}
        line = line_of.get(getattr(exc, "field", None))
        if line is None:
            raise
        raise type(exc)(str(exc), line) from None


def serialize(cfg: SimulationConfig) -> str:
    """Render a config back to input-file text.

    ``parse_input(serialize(cfg)) == cfg`` for every valid config.
    """
    lines = []
    for key, spec in INPUT_KEYS.items():
        value = getattr(cfg, spec.field)
        if value is not None:
            lines.append(f"{key}: {spec.render(value)}")
    return "\n".join(lines) + "\n"


def build_hamiltonian(cfg: SimulationConfig) -> HeisenbergHamiltonian:
    """Materialize the chain Hamiltonian described by a config.

    Random-uniform schedules are drawn here, once per bond or site, so
    the result is deterministic for a given (config, rng_seed) pair.
    One without a seed of its own takes a :func:`derived_seed`.  Both
    the seeds and the draws replay numpy's streams in plain integers,
    so building never imports ``numpy.random``.
    """
    base_seed = cfg.rng_seed if cfg.rng_seed is not None else 0
    coefficients: dict[str, dict] = {"J": {}, "h": {}}
    for salt, (key, count) in enumerate(_schedule_slots(cfg.num_spins)):
        schedule = getattr(cfg, INPUT_KEYS[key].field)
        fallback = None
        if isinstance(schedule, RandomUniformSchedule) and schedule.seed is None:
            fallback = derived_seed(base_seed, salt)
        resolved = schedule.resolve(count, cfg.total_time, fallback)
        for i, coefficient in enumerate(resolved, start=1):
            coefficients[key[0]][(key[-1], i)] = coefficient
    return HeisenbergHamiltonian(cfg.num_spins, coefficients["J"], coefficients["h"])


def derived_seed(base_seed: int, salt: int) -> int:
    """A stable 32-bit seed per salt, ``SeedSequence([base_seed, salt]).generate_state(1)[0]``.

    The SeedSequence hash keeps the draws of different salts independent.
    It is computed in plain integers (:func:`_seed_state`), so a caller
    that only needs the seed leaves ``numpy.random`` unimported.
    """
    return _seed_state((base_seed, salt), 1)[0]


# numpy's SeedSequence and PCG64, whose streams numpy keeps stable (NEP 19),
# in plain integers: drawing a few coefficients then needs no numpy.random.
_MASK32 = 0xFFFF_FFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL_SIZE = 4


def _seed_state(entropy: tuple[int, ...], n_words: int) -> list[int]:
    """``SeedSequence(entropy).generate_state(n_words)`` (uint32 words) as ints.

    Each entry of ``entropy`` is split into 32-bit words, least significant first.
    """
    words = []
    for value in entropy:
        if value < 0:
            raise ValueError(f"seed entropy must be non-negative, got {value}")
        words.append(value & _MASK32)
        while value := value >> 32:
            words.append(value & _MASK32)
    hash_const = _HASH_INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _HASH_MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _HASH_INIT_B
    state = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _HASH_MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return state


def _uniform_draws(seed: int, low: float, high: float, count: int) -> list[float]:
    """``numpy.random.default_rng(seed).uniform(low, high, size=count)``, bit for bit.

    PCG64 is seeded from four little-endian uint64 words of the seed's
    SeedSequence (state, then increment, high word first); each draw
    steps the 128-bit LCG and takes its XSL-RR output.
    """
    w = _seed_state((seed,), 8)
    initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
    inc = (w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 & _MASK128 | 1
    state = ((inc + initstate) * _PCG64_MULT + inc) & _MASK128
    span = high - low
    draws = []
    for _ in range(count):
        state = (state * _PCG64_MULT + inc) & _MASK128
        rot = state >> 122
        x = (state >> 64 ^ state) & _MASK64
        x = (x >> rot | x << (64 - rot)) & _MASK64
        draws.append(low + span * ((x >> 11) * 2.0**-53))
    return draws


def with_overrides(
    cfg: SimulationConfig,
    seed: int | None = None,
    shots: int | None = None,
) -> SimulationConfig:
    """Apply command-line overrides on top of file values."""
    updates = {"rng_seed": seed, "shots": shots}
    updates = {k: v for k, v in updates.items() if v is not None}
    fields = {name: getattr(cfg, name) for name in cfg._fields}
    return SimulationConfig(**fields | updates) if updates else cfg
