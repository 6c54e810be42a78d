"""The four benchmark workloads: input files, independent references, output checks.

Every workload is generated from the benchmark's workload seed, which becomes
the input file's ``rng_seed``; ``spinsim run`` sees only the generated file.
The references here never import ``spinsim``: they rebuild the Hamiltonian
from the workload description, reproduce the seeded ``random-uniform`` draws,
and apply the product formula term by term with their own Pauli action, so
a defect in ``ir``, ``optimizer`` or ``backend`` cannot hide in its own
reference.  Why each workload is in the set is recorded in README.md.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

AXES = ("x", "y", "z")
# Salts the input format uses to derive one random-uniform stream per key.
KEY_SALT = {"J_x": 0, "J_y": 1, "J_z": 2, "h_x": 3, "h_y": 4, "h_z": 5}

REAL_TIME_TOL = 1e-8
SAMPLED_SIGMAS = 5.0
QITE_ENERGY_FLOOR_TOL = 1e-9
QITE_MIN_GAP_CLOSED = 0.5


@dataclass(frozen=True)
class Workload:
    """One ``spinsim run`` input plus the CLI flags it is run with.

    ``couplings`` maps an input key (``J_x`` ... ``h_z``) to a constant, or to
    a ``("random-uniform", lo, hi)`` or ``("linear-ramp", start, stop)``
    schedule.  ``initial`` is one of ``flip-first``, ``all-up`` or ``neel``.
    """

    name: str
    num_spins: int
    mode: str
    total_time: float
    num_steps: int
    couplings: dict
    initial: str
    observable: str
    shots: int = 0
    flags: tuple[str, ...] = ()
    seed: int = 0
    # Time the host probe's state step too (see hostspeed.py): set where
    # kernels on a large state, not the interpreter, bound the run.
    state_probe: bool = False

    def input_text(self) -> str:
        lines = [
            f"num_spins: {self.num_spins}",
            f"mode: {self.mode}",
            f"total_time: {self.total_time!r}",
            f"num_steps: {self.num_steps}",
        ]
        for key, spec in self.couplings.items():
            if isinstance(spec, tuple):
                lines.append(f"{key}: {spec[0]}({spec[1]!r}, {spec[2]!r})")
            else:
                lines.append(f"{key}: {spec!r}")
        if self.initial == "neel":
            spins = ",".join("up" if q % 2 == 0 else "down" for q in range(self.num_spins))
            lines.append(f"initial_state: {spins}")
        else:
            lines.append(f"initial_state: {self.initial}")
        lines += [
            f"observable: {self.observable}",
            f"shots: {self.shots}",
            f"rng_seed: {self.seed}",
        ]
        return "\n".join(lines) + "\n"

    def initial_state(self) -> np.ndarray:
        """The product state's amplitudes; qubit 0 is the top bit, 1 = down."""
        n = self.num_spins
        if self.initial == "flip-first":
            index = 1 << (n - 1)
        elif self.initial == "neel":
            index = sum(1 << (n - 1 - q) for q in range(1, n, 2))
        else:
            index = 0
        amps = np.zeros(2**n, dtype=complex)
        amps[index] = 1.0
        return amps


WORKLOADS = {
    # The localization tutorial as shipped in scripts/inputs; seed 2 reproduces it.
    "localization": Workload(
        name="localization",
        num_spins=5,
        mode="real-time",
        total_time=3.0,
        num_steps=60,
        couplings={"J_x": 1.0, "J_y": 1.0, "h_z": ("random-uniform", -3.0, 3.0)},
        initial="flip-first",
        observable="excitation-displacement",
        flags=("--ground-truth",),
    ),
    "wide-chain": Workload(
        name="wide-chain",
        num_spins=20,
        mode="real-time",
        total_time=1.0,
        num_steps=1,
        couplings={
            "J_x": 1.0,
            "J_y": 1.0,
            "J_z": 0.5,
            "h_x": ("linear-ramp", 0.0, 0.6),
            "h_z": ("random-uniform", -1.0, 1.0),
        },
        initial="flip-first",
        observable="site-magnetization(z)",
        state_probe=True,
    ),
    "qite-tfim": Workload(
        name="qite-tfim",
        num_spins=7,
        mode="imaginary-time",
        total_time=3.6,
        num_steps=12,
        couplings={"J_z": 1.0, "h_x": ("random-uniform", 0.8, 1.2)},
        initial="all-up",
        observable="energy",
    ),
    "sampled-energy": Workload(
        name="sampled-energy",
        num_spins=8,
        mode="real-time",
        total_time=2.0,
        num_steps=20,
        couplings={
            "J_x": 1.0,
            "J_y": 1.0,
            "J_z": 1.0,
            "h_z": ("random-uniform", -1.0, 1.0),
        },
        initial="neel",
        observable="energy",
        shots=4000,
        flags=("--export",),
    ),
}

# Reduced sizes for the smoke mode: same layers, a fraction of the work.
SMOKE_SIZES = {
    "localization": dict(total_time=0.5, num_steps=10),
    "wide-chain": dict(num_spins=10),
    "qite-tfim": dict(num_spins=3),
    "sampled-energy": dict(total_time=0.4, num_steps=4),
}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The named workload with rng_seed = seed mod 2^32 (the input wants a non-negative seed)."""
    workload = replace(WORKLOADS[name], seed=seed % 2**32)
    if smoke:
        workload = replace(workload, **SMOKE_SIZES[name])
    return workload


# ---------------------------------------------------------------- references


def _coefficients(w: Workload, key: str, t: float) -> np.ndarray:
    """Per-bond or per-site values of one input key at time t."""
    count = w.num_spins - 1 if key.startswith("J") else w.num_spins
    spec = w.couplings.get(key, 0.0)
    if not isinstance(spec, tuple):
        return np.full(count, float(spec))
    kind, lo, hi = spec
    if kind == "random-uniform":
        stream = int(np.random.SeedSequence([w.seed, KEY_SALT[key]]).generate_state(1)[0])
        return np.random.default_rng(stream).uniform(lo, hi, size=count)
    if kind == "linear-ramp":
        frac = min(max(t / w.total_time, 0.0), 1.0) if w.total_time > 0 else 1.0
        return np.full(count, lo + (hi - lo) * frac)
    raise ValueError(f"unknown schedule {kind!r}")


def hamiltonian_terms(w: Workload, t: float) -> list[tuple[float, tuple]]:
    """(coefficient, ((qubit, axis), ...)) in product-formula order.

    The order is bonds x, y, z left to right, then fields x, y, z; exact
    zeros are skipped.
    """
    terms = []
    for axis in AXES:
        for i, c in enumerate(_coefficients(w, f"J_{axis}", t)):
            if c != 0.0:
                terms.append((float(c), ((i, axis), (i + 1, axis))))
    for axis in AXES:
        for i, c in enumerate(_coefficients(w, f"h_{axis}", t)):
            if c != 0.0:
                terms.append((float(c), ((i, axis),)))
    return terms


def observable_terms(w: Workload, t: float) -> list[tuple[float, tuple]]:
    n = w.num_spins
    if w.observable == "energy" or w.mode == "imaginary-time":
        return hamiltonian_terms(w, t)
    if w.observable == "excitation-displacement":
        # sum_i (i - 1)(1 - Z_i)/2 over 1-based sites
        offset = sum(q / 2.0 for q in range(n))
        return [(offset, ())] + [(-q / 2.0, ((q, "z"),)) for q in range(1, n)]
    axis = w.observable[len("site-magnetization(")]
    return [(1.0 / n, ((q, axis),)) for q in range(n)]


def apply_pauli(amps: np.ndarray, factors: tuple, n: int) -> np.ndarray:
    """P|amps> for a Pauli string, one qubit axis at a time.

    Z multiplies by the sign of the qubit's bit, X flips the bit, and
    Y = i X Z does both and adds the factor i.
    """
    tensor = amps.reshape((2,) * n)
    for q, axis in factors:
        if axis in ("y", "z"):
            shape = [1] * n
            shape[q] = 2
            tensor = tensor * _SIGN.reshape(shape)
        if axis in ("x", "y"):
            tensor = np.flip(tensor, axis=q)
        if axis == "y":
            tensor = 1j * tensor
    return tensor.reshape(-1)


_SIGN = np.array([1.0, -1.0])


def expectation(amps: np.ndarray, terms, n: int) -> float:
    total = 0.0
    for coeff, factors in terms:
        shifted = apply_pauli(amps, factors, n) if factors else amps
        total += coeff * np.vdot(amps, shifted).real
    return float(total)


def product_formula_series(w: Workload) -> list[float]:
    """Observable after k first-order midpoint steps, k = 0..num_steps.

    Each term c P is applied as exp(-i c dt P) = cos(c dt) - i sin(c dt) P,
    term by term, on a running state.
    """
    n = w.num_spins
    amps = w.initial_state()
    dt = w.total_time / w.num_steps
    values = [expectation(amps, observable_terms(w, 0.0), n)]
    for k in range(1, w.num_steps + 1):
        for coeff, factors in hamiltonian_terms(w, (k - 0.5) * dt):
            angle = coeff * dt
            amps = math.cos(angle) * amps - 1j * math.sin(angle) * apply_pauli(amps, factors, n)
        values.append(expectation(amps, observable_terms(w, k * dt), n))
    return values


def dense_hamiltonian(w: Workload) -> np.ndarray:
    """H at t = 0 as a dense matrix, column by column."""
    n = w.num_spins
    matrix = np.zeros((2**n, 2**n), dtype=complex)
    basis = np.eye(2**n, dtype=complex)
    for coeff, factors in hamiltonian_terms(w, 0.0):
        for j in range(2**n):
            matrix[:, j] += coeff * apply_pauli(basis[:, j], factors, n)
    return matrix


@dataclass
class Reference:
    series: list[float] = field(default_factory=list)
    exact: list[float] = field(default_factory=list)
    ground_energy: float = 0.0
    initial_energy: float = 0.0


def reference(w: Workload) -> Reference:
    if w.mode == "imaginary-time":
        matrix = dense_hamiltonian(w)
        psi0 = w.initial_state()
        return Reference(
            ground_energy=float(np.linalg.eigvalsh(matrix)[0]),
            initial_energy=float(np.vdot(psi0, matrix @ psi0).real),
        )
    ref = Reference(series=product_formula_series(w))
    if "--ground-truth" in w.flags:
        # the static-H exact curve, by dense diagonalization
        matrix = dense_hamiltonian(w)
        energies, vectors = np.linalg.eigh(matrix)
        overlaps = vectors.conj().T @ w.initial_state()
        dt = w.total_time / w.num_steps
        for k in range(w.num_steps + 1):
            state = vectors @ (np.exp(-1j * energies * k * dt) * overlaps)
            ref.exact.append(expectation(state, observable_terms(w, k * dt), w.num_spins))
    return ref


# -------------------------------------------------------------------- checks


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


_QASM_GATE = re.compile(r"^(\w+)(?:\(([^)]*)\))?\s+(.*);$")


def simulate_qasm(text: str, n: int) -> np.ndarray:
    """Run an exported circuit from |0...0> with a small dense simulator of its own."""
    tensor = np.zeros((2,) * n, dtype=complex)
    tensor[(0,) * n] = 1.0
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    for line in text.splitlines():
        match = _QASM_GATE.match(line.strip())
        if not match or match.group(1) in ("OPENQASM", "include", "qreg", "creg", "measure"):
            continue
        name, theta, operands = match.groups()
        qubits = [int(q) for q in re.findall(r"q\[(\d+)\]", operands)]
        if name == "cx":
            c, t = qubits
            index = [slice(None)] * n
            index[c] = 1
            sub = tensor[tuple(index)]
            axis = t - (t > c)
            tensor[tuple(index)] = np.flip(sub, axis=axis).copy()
            continue
        if name == "h":
            u = h
        elif name in ("rz", "rx"):
            a = float(theta) / 2.0
            if name == "rz":
                u = np.diag([np.exp(-1j * a), np.exp(1j * a)])
            else:
                u = np.array([[math.cos(a), -1j * math.sin(a)], [-1j * math.sin(a), math.cos(a)]])
        else:
            raise ValueError(f"unexpected gate {name!r} in exported circuit")
        (q,) = qubits
        tensor = np.moveaxis(np.tensordot(u, tensor, axes=([1], [q])), 0, q).copy()
    return tensor.reshape(-1)


def check(w: Workload, ref: Reference, out_dir: Path) -> str | None:
    """None when the run's artifacts match the reference, else the reason."""
    header, rows = _read_csv(out_dir / "results.csv")
    if len(rows) != w.num_steps + 1:
        return f"expected {w.num_steps + 1} rows, got {len(rows)}"
    values = [float(r[1]) for r in rows]
    if not all(math.isfinite(v) for v in values):
        return "non-finite value in results.csv"
    if w.mode == "imaginary-time":
        return _check_qite(ref, values)
    if w.shots == 0:
        for k, (got, want) in enumerate(zip(values, ref.series)):
            if abs(got - want) > REAL_TIME_TOL:
                return f"point {k}: {got!r} differs from the product formula {want!r}"
    else:
        for k, (row, want) in enumerate(zip(rows, ref.series)):
            sigma = float(row[2])
            if abs(float(row[1]) - want) > SAMPLED_SIGMAS * sigma + REAL_TIME_TOL:
                return f"point {k}: {row[1]} is over {SAMPLED_SIGMAS} sigma ({sigma}) from {want!r}"
    if ref.exact:
        column = header.index("ground_truth")
        for k, (row, want) in enumerate(zip(rows, ref.exact)):
            if abs(float(row[column]) - want) > REAL_TIME_TOL:
                return f"ground truth {k}: {row[column]} differs from dense {want!r}"
    if "--export" in w.flags:
        circuits = sorted((out_dir / "circuits").glob("step_*.qasm"))
        if len(circuits) != w.num_steps + 1:
            return f"expected {w.num_steps + 1} exported circuits, got {len(circuits)}"
        state = simulate_qasm(circuits[-1].read_text(encoding="utf-8"), w.num_spins)
        energy = expectation(state, observable_terms(w, w.total_time), w.num_spins)
        if abs(energy - ref.series[-1]) > REAL_TIME_TOL:
            return f"exported last circuit gives {energy!r}, product formula {ref.series[-1]!r}"
    return None


def _check_qite(ref: Reference, energies: list[float]) -> str | None:
    if abs(energies[0] - ref.initial_energy) > QITE_ENERGY_FLOOR_TOL:
        return f"step-0 energy {energies[0]!r} is not <psi0|H|psi0> = {ref.initial_energy!r}"
    floor = ref.ground_energy - QITE_ENERGY_FLOOR_TOL
    for k, e in enumerate(energies):
        if e < floor:
            return f"step {k}: energy {e!r} is below the ground energy {ref.ground_energy!r}"
    gap = energies[0] - ref.ground_energy
    closed = (energies[0] - energies[-1]) / gap if gap > 0 else 1.0
    if closed < QITE_MIN_GAP_CLOSED:
        return f"closed {closed:.3f} of the gap to the ground energy, need {QITE_MIN_GAP_CLOSED}"
    return None
