"""Local statevector execution, expectation values and sampled estimates.

Basis-state indices follow the package-wide convention: qubit 0 (spin
site 1) is the most significant bit, so the bitstring for index ``i``
on ``n`` qubits is ``format(i, f"0{n}b")`` with character j describing
qubit j ('1' means spin down).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import TooLargeError
from .hamiltonian import PauliTerm
from .ir import Gate, Program, gate_matrix

STATEVECTOR_QUBIT_LIMIT = 24


@dataclass(frozen=True)
class Statevector:
    """Amplitudes of an n-qubit pure state, unit norm up to float error."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.amplitudes.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes, got {self.amplitudes.shape}"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def zero_state(num_qubits: int) -> np.ndarray:
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[0] = 1.0
    return amps


def _check_width(num_qubits: int) -> None:
    if num_qubits > STATEVECTOR_QUBIT_LIMIT:
        raise TooLargeError(
            f"statevector simulation limited to {STATEVECTOR_QUBIT_LIMIT} qubits, got {num_qubits}"
        )


def product_state(spins: Sequence[str]) -> Statevector:
    """|up...> style product state; ``spins`` holds 'up'/'down' per site.

    At most STATEVECTOR_QUBIT_LIMIT sites, as for :func:`run_statevector`.
    """
    n = len(spins)
    _check_width(n)
    index = 0
    for spin in spins:
        if spin not in ("up", "down"):
            raise ValueError(f"spins must be 'up' or 'down', got {spin!r}")
        index = (index << 1) | (1 if spin == "down" else 0)
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return Statevector(n, amps)


def apply_gate(amps: np.ndarray, gate: Gate, num_qubits: int) -> np.ndarray:
    """Multiply ``gate_matrix(gate)`` into the gate's operand axes of ``amps``, in place.

    ``amps`` is a contiguous complex vector of 2^num_qubits amplitudes;
    it is overwritten and returned.  Every kind takes one path: a gate
    on qubits lo..hi is one ``np.matmul`` on the (2^lo, 2^k, rest) view
    when its k operands are contiguous, else one ``np.einsum`` on the
    (2^lo, 2, 2^(hi - lo - 1), 2, rest) view.
    """
    m = gate_matrix(gate)
    lo, hi = min(gate.qubits), max(gate.qubits)
    if gate.qubits[0] > lo:
        # the first operand is the rows' high bit: make it the lower qubit's
        m = m.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    rest = 2 ** (num_qubits - 1 - hi)
    if hi - lo < len(gate.qubits):
        v = amps.reshape(2**lo, len(m), rest)
        v[...] = np.matmul(m, v)
    else:
        v = amps.reshape(2**lo, 2, 2 ** (hi - lo - 1), 2, rest)
        v[...] = np.einsum("ijkl,xkylz->xiyjz", m.reshape(2, 2, 2, 2), v)
    return amps


# A fused block acts on at most this many contiguous qubits, so its
# matrix has at most 2^FUSED_QUBITS rows.
FUSED_QUBITS = 5
# A block is applied in products of at most this many amplitudes, which
# bounds the temporary each product allocates.
_FUSED_CHUNK = 2**16
# With at most this many amplitudes below a block, one product of the
# rows of the (-1, 2^m rest) view by kron(U^T, I_rest) replaces 2^lo
# products with only `rest` columns each.
_KRON_REST = 4


@dataclass(frozen=True)
class FusedBlock:
    """A dense unitary on the qubits lo .. lo + m - 1 of n; ``matrix`` has 2^m rows.

    m is at most FUSED_QUBITS.
    ``product`` is kron(matrix^T, I_rest), built once with the block when
    at most _KRON_REST amplitudes lie below it, else None.
    """

    lo: int
    matrix: np.ndarray
    num_qubits: int
    product: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rest = 2 ** (self.num_qubits - self.lo) // len(self.matrix)
        product = np.kron(self.matrix.T, np.eye(rest)) if rest <= _KRON_REST else None
        object.__setattr__(self, "product", product)


def fuse(program: Program) -> tuple[FusedBlock | Gate, ...]:
    """The program as a plan of dense blocks, each on at most FUSED_QUBITS contiguous qubits.

    A sweep moves a window of FUSED_QUBITS qubits up the chain.  Each
    window starts at the lowest qubit that a remaining gate touches, but
    at least one qubit above the window before it and at most at
    n - FUSED_QUBITS, where the sweep ends.  Each window takes, in gate
    order, every remaining gate that lies inside it and shares no qubit
    with an earlier gate the window left behind; the gates it takes
    become one block on their tight span.  On a chain step with xx, yy
    and zz bonds, the windows advance FUSED_QUBITS - 3 qubits per block.
    Sweeps repeat until no gate is left.  No gate passes an earlier gate
    on one of its wires, so the product of the plan is the program's
    unitary.  A gate that spans more than FUSED_QUBITS by itself stays a
    gate, applied by :func:`apply_gate`: it blocks its wires until it
    reaches the head of the remaining gates, and then becomes a plan
    entry of its own.  Each block's matrix is built by :func:`apply_gate`,
    gate by gate, on an identity matrix (:func:`_block_matrix`).
    """
    n = program.num_qubits
    last = max(0, n - FUSED_QUBITS)
    remaining = list(program.gates)
    plan: list[FusedBlock | Gate] = []
    while remaining:
        lo = -1
        while remaining and lo < last:
            while remaining and _wide(remaining[0]):
                plan.append(remaining.pop(0))
            lowest = min((q for gate in remaining for q in gate.qubits), default=last)
            lo = min(max(lo + 1, lowest), last)
            window = set(range(lo, min(lo + FUSED_QUBITS, n)))
            taken, kept, blocked = [], [], set()
            for i, gate in enumerate(remaining):
                if window.issuperset(gate.qubits) and blocked.isdisjoint(gate.qubits):
                    taken.append(gate)
                    continue
                kept.append(gate)
                blocked.update(gate.qubits)
                if window <= blocked:
                    # no later gate can pass a left-behind one on every wire
                    kept.extend(remaining[i + 1 :])
                    break
            if taken:
                qubits = [q for gate in taken for q in gate.qubits]
                block_lo, block_hi = min(qubits), max(qubits)
                plan.append(FusedBlock(block_lo, _block_matrix(block_lo, block_hi, taken), n))
            remaining = kept
    return tuple(plan)


def _wide(gate: Gate) -> bool:
    """Whether the gate's operands span more than FUSED_QUBITS contiguous qubits."""
    return max(gate.qubits) - min(gate.qubits) >= FUSED_QUBITS


def _block_matrix(lo: int, hi: int, gates: Sequence[Gate]) -> np.ndarray:
    """G_k ... G_1 on qubits lo..hi: :func:`apply_gate` runs each gate on the
    flattened identity as a 2m-qubit state, whose first m qubits index its rows."""
    width = hi - lo + 1
    matrix = np.eye(2**width, dtype=complex)
    amps = matrix.reshape(-1)
    for gate in gates:
        shifted = Gate(gate.kind, tuple(q - lo for q in gate.qubits), gate.theta)
        apply_gate(amps, shifted, 2 * width)
    return matrix


def _apply_block(amps: np.ndarray, block: FusedBlock) -> None:
    """Multiply the block's qubits of ``amps`` by its matrix, in place, a chunk at a time."""
    dim = len(block.matrix)
    rest = len(amps) // (dim << block.lo)
    rows = max(1, _FUSED_CHUNK // (dim * rest))
    if block.product is not None:
        w = amps.reshape(-1, dim * rest)
        for a in range(0, len(w), rows):
            part = w[a : a + rows]
            part[...] = part @ block.product
        return
    v = amps.reshape(-1, dim, rest)
    cols = min(rest, _FUSED_CHUNK // dim)
    for a in range(0, len(v), rows):
        for c in range(0, rest, cols):
            part = v[a : a + rows, :, c : c + cols]
            part[...] = np.matmul(block.matrix, part)


def run_fused(plan: Sequence[FusedBlock | Gate], initial: Statevector) -> Statevector:
    """Advance a copy of ``initial`` by a plan from :func:`fuse`."""
    n = initial.num_qubits
    amps = initial.amplitudes.astype(complex, copy=True)
    for entry in plan:
        if isinstance(entry, Gate):
            apply_gate(amps, entry, n)
        elif entry.num_qubits != n:
            raise ValueError("fused block width does not match the state")
        else:
            _apply_block(amps, entry)
    return Statevector(n, amps)


def run_statevector(program: Program, initial: Statevector | None = None) -> Statevector:
    """Execute a program on |0...0> (or a supplied initial state)."""
    n = program.num_qubits
    _check_width(n)
    if initial is None:
        amps = zero_state(n)
    else:
        if initial.num_qubits != n:
            raise ValueError("initial state width does not match the program")
        amps = initial.amplitudes.astype(complex, copy=True)
    for gate in program.gates:
        # looked up per gate, so a wrapper installed on backend.apply_gate sees each one
        apply_gate(amps, gate, n)
    return Statevector(n, amps)


def pauli_masks(factors: Iterable[tuple[int, str]], num_qubits: int) -> tuple[int, int]:
    """(x, z) bit masks of the Pauli string sigma = i^|x & z| X^x Z^z.

    Site s is bit n - s (site 1 is the most significant bit, as in
    basis-state indices); x and y set the x bit, y and z the z bit.
    """
    x = z = 0
    for site, axis in factors:
        bit = 1 << (num_qubits - site)
        if axis in ("x", "y"):
            x |= bit
        if axis in ("y", "z"):
            z |= bit
    return x, z


def _popcount(v):
    """Set bits of each mask below 2^32, for ints and int64 arrays alike."""
    v = v - (v >> 1 & 0x55555555)
    v = (v & 0x33333333) + (v >> 2 & 0x33333333)
    v = v + (v >> 4) & 0x0F0F0F0F
    return (v * 0x01010101 & 0xFFFFFFFF) >> 24


def pauli_factors(masks: tuple[int, int], num_qubits: int) -> tuple[tuple[int, str], ...]:
    """The (site, axis) factors of a mask pair, in increasing site order."""
    x, z = masks
    factors = []
    for site in range(1, num_qubits + 1):
        shift = num_qubits - site
        code = (x >> shift & 1) << 1 | (z >> shift & 1)
        if code:
            factors.append((site, " zxy"[code]))
    return tuple(factors)


# (-1)^popcount(b) for every byte b: the z sign of index k under mask z
# is the product of this over the bytes of k & z
_BYTE_SIGNS = np.prod(
    1 - 2 * (np.arange(256)[:, None] >> np.arange(8) & 1), axis=1
).astype(np.int8)

# (-i)^k, the phase of sigma = (-i)^|x & z| Z^z X^x
_MINUS_I_POWERS = (1, -1j, -1, 1j)

# Distinct x masks are read in chunks whose Walsh-Hadamard table holds
# about this many amplitudes.
_WALSH_CHUNK = 2**18

# the smallest state whose small x-mask groups take dot products (see _route)
_VDOT_MIN_QUBITS = 11


def _z_signs(z: np.ndarray, num_qubits: int) -> Iterator[np.ndarray]:
    """(-1)^|k & z| as int8 rows of 2^n, one per z mask, made at most 2^20 entries at a time."""
    rows = max(1, 2**20 >> num_qubits)
    for chunk in (z[a : a + rows] for a in range(0, len(z), rows)):
        signs = np.ones((len(chunk), 1), dtype=np.int8)
        for shift in range(0, num_qubits, 8):
            byte = _BYTE_SIGNS[chunk[:, None] >> shift & np.arange(2 ** min(8, num_qubits - shift))]
            # higher bytes are the slower-varying part of the index
            signs = (byte[:, :, None] * signs[:, None, :]).reshape(len(chunk), -1)
        yield from signs


def _vdot_reads(amps: np.ndarray, num_qubits: int, x_mask: int, z: np.ndarray) -> np.ndarray:
    """Re <psi| sigma |psi> for the strings (x_mask, z[i]), one pass over the state each.

    The strings share one flipped copy of the amplitudes, psi_{k xor x};
    each multiplies it by its row of z signs and by its phase.  Only
    products with +-1 and +-i happen before the read, so a value rounds
    exactly as :func:`_real_dot` of psi and the applied string does.
    """
    n = num_qubits
    axes = [q for q in range(n) if x_mask >> (n - 1 - q) & 1]
    # a contiguous copy of its own: flipping every axis would reshape to a
    # reversed view of amps, which would be summed in another order
    flipped = np.flip(amps.reshape((2,) * n), axes).copy().reshape(-1)
    values = np.empty(len(z))
    for i, (z_mask, signs) in enumerate(zip(z.tolist(), _z_signs(z, n))):
        w = flipped
        if z_mask:
            # the last string may overwrite the shared copy
            w = np.multiply(flipped, signs, out=flipped if i == len(z) - 1 else None)
            power = (x_mask & z_mask).bit_count() % 4
            if power:
                w *= _MINUS_I_POWERS[power]
        values[i] = _real_dot(amps, w)
    return values


def _real_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Re sum_k conj(a_k) b_k, summed by numpy's own loop on the float64 views.

    Unlike ``np.vdot`` (BLAS zdotc, threaded on long vectors), its
    rounding does not depend on the BLAS or its thread count.
    """
    a, b = (np.ascontiguousarray(v).view(np.float64) for v in (a, b))
    return float(np.einsum("i,i->", a, b))


def _walsh_hadamard(table: np.ndarray) -> None:
    """table[z] <- sum_k (-1)^|k & z| table[k] along axis 0, in place, column by column.

    One butterfly per qubit, each an elementwise add and subtract, so a
    column rounds the same whatever columns share the table.
    """
    scratch = np.empty(table.size // 2, dtype=table.dtype)
    span = table.shape[1]
    while span < table.size:
        pairs = table.reshape(-1, 2, span)
        low, high = pairs[:, 0], pairs[:, 1]
        total = scratch.reshape(low.shape)
        np.add(low, high, out=total)
        np.subtract(low, high, out=high)
        low[...] = total
        span *= 2


def _transform_reads(amps: np.ndarray, num_qubits: int, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Re <psi| sigma |psi> for the strings (x[i], z[i]) from half Walsh-Hadamard tables.

    <psi| sigma |psi> = (-i)^|x & z| T(z), T(z) = sum_k (-1)^|k & z| v_k with
    v_k = conj(psi_k) psi_{k xor x}, so one transform gives every z of one
    x mask.  Only the half of v whose pairing bit p is 0 is transformed,
    into H(z') with z' = z without bit p.  For x != 0, p is x's lowest set
    bit; v_{k xor x} = conj(v_k), so T(z) is 2 Re H(z') when |x & z| is even
    and 2i Im H(z') when it is odd.  For x = 0, v is real and p is the top
    qubit's bit: the two halves are packed into the real and imaginary
    parts, and T(z) = Re H(z') +- Im H(z') by z's bit p.  The distinct x
    masks are taken in chunks of columns of a (2^(n-1), chunk) table,
    filled by one gather and transformed by :func:`_walsh_hadamard`.
    Every step is elementwise, so a value does not depend on the other x
    masks, and it agrees with ``np.vdot`` of the applied string up to
    rounding.
    """
    values = np.empty(len(x))
    half = len(amps) // 2
    x_masks, column = np.unique(x, return_inverse=True)
    pairing = np.where(x_masks, x_masks & -x_masks, half)
    order = np.argsort(column, kind="stable")
    width = max(1, _WALSH_CHUNK >> num_qubits)
    starts = range(0, len(x_masks), width)
    bounds = np.searchsorted(column[order], [*starts, len(x_masks)])
    rows = np.arange(half)[:, None]
    bra = amps.conj()
    for first, a, b in zip(starts, bounds[:-1], bounds[1:]):
        chunk, bit = x_masks[first : first + width], pairing[first : first + width]
        # k: the row index with a 0 inserted at the column's pairing bit
        k = (rows & -bit) << 1 | rows & bit - 1
        table = bra[k]
        table *= amps[k ^ chunk]
        if chunk[0] == 0:
            table[:, 0].imag = (bra[half:] * amps[half:]).real
        _walsh_hadamard(table)
        members = order[a:b]
        xm, zm, bit = x[members], z[members], pairing[column[members]]
        read = table[zm >> 1 & -bit | zm & bit - 1, column[members] - first]
        # Re((-i)^p w) is w.real, w.imag, -w.real, -w.imag for p = 0..3
        power = _popcount(xm & zm) % 4
        paired = 2 * np.where(power % 2, read.imag, read.real) * (1 - (power & 2))
        packed = read.real + np.where(zm & bit, -read.imag, read.imag)
        values[members] = np.where(xm, paired, packed)
    return values


def _route(x_mask: int, size: int, num_qubits: int) -> str:
    """How an exact :class:`ReadPlan` reads the ``size`` strings on one x mask.

    The one route rule; README gives its measurements.  z strings (x = 0)
    take the fold (:func:`_z_parity`) while there are at most 2n - 1 of
    them, as in a chain energy; the fold costs per string, the tables per
    mask.  Another mask takes one dot product per string
    (:func:`_vdot_reads`) while it has at most n + 1 - _VDOT_MIN_QUBITS
    strings.  Every other group is a column of the half Walsh-Hadamard
    tables (:func:`_transform_reads`).
    """
    if x_mask == 0:
        return "fold" if size < 2 * num_qubits else "tables"
    return "vdot" if size <= num_qubits + 1 - _VDOT_MIN_QUBITS else "tables"


def pauli_rotations(state: Statevector, x, z, angles: Sequence[float]) -> Statevector:
    """exp(-i angles[j] sigma_j) applied to a copy of ``state`` for j = 0, 1, ... in order.

    sigma_j has masks (x[j], z[j]), and exp(-i theta sigma) = cos theta -
    i sin theta sigma, so each rotation is

        psi'_k = cos theta psi_k + sin theta (-i)^(|x & z| + 1) (-1)^|k & z| psi_{k xor x},

    one gather and a few elementwise products, without BLAS.  The z signs
    come as int8 rows from :func:`_z_signs`, a chunk at a time, and the
    gather index is made per rotation, so no complex or int64 table of 2^n
    entries per string is kept.  A string with an odd number of y
    factors has a real phase, so it keeps a real state exactly real.  The
    state is only read; no strings give an equal copy.  ``x``, ``z`` and
    ``angles`` must have one entry per string (ValueError otherwise).
    """
    n = state.num_qubits
    amps = state.amplitudes.astype(complex, copy=True)
    x = np.asarray(x, dtype=np.int64)
    z = np.asarray(z, dtype=np.int64)
    if not len(x) == len(z) == len(angles):
        raise ValueError(f"got {len(x)} x masks, {len(z)} z masks and {len(angles)} angles")
    index = np.arange(len(amps))
    powers = (_popcount(x & z) + 1) % 4
    for x_mask, signs, power, theta in zip(x.tolist(), _z_signs(z, n), powers.tolist(), angles):
        flipped = amps[index ^ x_mask]
        flipped *= signs
        # a real phase multiplies by a float, so a real state gains no imaginary part
        flipped *= _MINUS_I_POWERS[power] * math.sin(theta)
        amps *= math.cos(theta)
        amps += flipped
        del flipped  # before the next gather, so two copies are never held
    return Statevector(n, amps)


def _z_parity(probs: np.ndarray, support: Sequence[int]) -> float:
    """sum_k (-1)^(parity of k on ``support``) probs[k]; qubit 0 is the top bit.

    Each run of qubits outside the support is one axis of the sum, so
    the reduction sees as few axes as the support allows.
    """
    m = probs.size.bit_length() - 1
    if support[-1] == m - 1 and support[-1] - support[0] >= len(support):
        # a gap before a trailing run would leave inner loops of 2^run
        # elements: take the run's signs first, so the rest is contiguous
        while support[-1] == m - 1:
            pairs = probs.reshape(-1, 2)
            probs = pairs[:, 0] - pairs[:, 1]
            support, m = support[:-1], m - 1
    shape: list[int] = []
    axes = []
    bounds = [-1, *support, m]
    for a, b in zip(bounds, bounds[1:]):
        if b - a > 1:  # the qubits strictly between two support qubits
            axes.append(len(shape))
            shape.append(2 ** (b - a - 1))
        if b < m:
            shape.append(2)
    value = probs.reshape(shape).sum(axis=tuple(axes))
    for _ in support:
        value = value[0] - value[1]
    return float(value)


def sample_counts(
    state: Statevector, shots: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Occurrences per basis index in ``shots`` draws from |amplitude|^2.

    ``seed`` is an int or a generator (consumed); equal seeds or equal
    generator states give identical counts.
    """
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    probs = np.abs(state.amplitudes) ** 2
    probs /= probs.sum()
    return np.random.default_rng(seed).multinomial(shots, probs)


def _measurement_groups(masks: Sequence[tuple[int, int]]) -> list[list]:
    """Non-identity strings, given as (x, z) masks, grouped so that one basis measures a group.

    A string joins the first group whose masks agree with its own on
    every qubit both touch, else it starts one.  A group is
    ``[x, z, members]``: the unions of its members' masks, and their
    indices into ``masks``.
    """
    groups: list[list] = []
    for i, (x, z) in enumerate(masks):
        if not x | z:
            continue
        for group in groups:
            gx, gz, members = group
            if ((x ^ gx) | (z ^ gz)) & (x | z) & (gx | gz) == 0:
                group[:2] = gx | x, gz | z
                members.append(i)
                break
        else:
            groups.append([x, z, [i]])
    return groups


class ReadPlan:
    """Reads of one list of Pauli strings, given as (x, z) masks, planned once.

    With ``shots`` = 0 the reads are exact: the strings are grouped by x
    mask, and :func:`_route` fixes each group's route here,
    in ``routes`` (x mask -> "fold", "vdot" or "tables").  No route calls
    BLAS, and a string's value depends on its route and the state alone,
    never on the other strings of the plan.  With ``shots`` > 0 the
    strings share :func:`_measurement_groups`, each turned into the z
    basis by :func:`pauli_rotations` and drawn ``shots`` times.  Either
    way the identity (0, 0) is exactly 1.0 without a read, and the state
    is only read.
    """

    def __init__(self, masks: Sequence[tuple[int, int]], num_qubits: int, shots: int = 0):
        if shots < 0:
            raise ValueError(f"shots must be >= 0, got {shots}")
        n = num_qubits
        self.masks, self.num_qubits, self.shots = list(masks), n, shots
        if shots:
            self.groups = []
            for gx, gz, members in _measurement_groups(self.masks):
                # into the z basis by ascending qubit: exp(+i pi/4 Y) on each
                # qubit read along x, exp(-i pi/4 X) on each read along y
                bits = np.array([1 << s for s in range(n)[::-1] if gx >> s & 1], dtype=np.int64)
                turn = bits, bits & ~gz, np.where(bits & gz, math.pi / 4, -math.pi / 4).tolist()
                supports = [self.masks[i][0] | self.masks[i][1] for i in members]
                self.groups.append((members, turn, np.array(supports, dtype=np.int64)))
            return
        by_x: dict[int, list[int]] = {}
        for i, (x, z) in enumerate(self.masks):
            if x | z:
                by_x.setdefault(x, []).append(i)
        self.routes = {x: _route(x, len(members), n) for x, members in by_x.items()}
        x, self.z = np.array(self.masks, dtype=np.int64).reshape(-1, 2).T
        self.vdot = [(x_mask, by_x[x_mask]) for x_mask, r in self.routes.items() if r == "vdot"]
        tables = [i for x_mask, r in self.routes.items() if r == "tables" for i in by_x[x_mask]]
        self.tables = tables, x[tables], self.z[tables]
        folded = by_x[0] if self.routes.get(0) == "fold" else []
        supports = [[q for q in range(n) if self.masks[i][1] >> (n - 1 - q) & 1] for i in folded]
        self.fold = sorted(zip(folded, supports), key=lambda item: item[1][0])  # by first qubit

    def values(self, state: Statevector, rng=None) -> np.ndarray:
        """<state| sigma |state> for each string, in order.  A sampled value is the
        string's mean parity over its group's draws from ``rng`` (an int seed or a
        generator, consumed); exact plans leave ``rng`` alone."""
        if not self.shots:
            return self._exact(state)
        values = np.ones(len(self.masks))
        for members, weights, parities in self._draws(state, rng):
            values[members] = parities @ weights
        return values

    def estimate(self, state: Statevector, coefficients, rng=None) -> tuple[float, float | None]:
        """sum_i coefficients[i] <state| sigma_i |state> and its standard error.

        Exact plans give (value, None), summed string by string in order.
        Sampled ones add the identity strings' coefficients exactly; an
        outcome's value is the sum of coefficient times z parity over its
        group's strings, and the group variances add.
        """
        if not self.shots:
            total = 0.0
            for coefficient, value in zip(coefficients, self.values(state).tolist()):
                total += coefficient * value
            return float(total), None
        mean = sum(c for c, (x, z) in zip(coefficients, self.masks) if not x | z)
        variance = 0.0
        for members, weights, parities in self._draws(state, rng):
            values = np.zeros(len(weights))
            for i, parity in zip(members, parities):
                values += coefficients[i] * parity
            group_mean = float(np.dot(weights, values))
            mean += group_mean
            variance += float(np.dot(weights, (values - group_mean) ** 2)) / self.shots
        return float(mean), math.sqrt(variance)

    def _check(self, state: Statevector) -> None:
        if state.num_qubits != self.num_qubits:
            raise ValueError(f"the plan reads {self.num_qubits} qubits, not {state.num_qubits}")

    def _exact(self, state: Statevector) -> np.ndarray:
        """The value of each string.  The fold reads its strings by first
        qubit (head) from one |amplitude|^2 vector, summing the qubits before the
        head out of it in place, so a value does not depend on the other strings."""
        self._check(state)
        amps, n = state.amplitudes, self.num_qubits
        values = np.ones(len(self.z))
        for x_mask, members in self.vdot:
            values[members] = _vdot_reads(amps, n, x_mask, self.z[members])
        members, x, z = self.tables
        if members:
            values[members] = _transform_reads(amps, n, x, z)
        if self.fold:
            tail = np.abs(amps)
            np.square(tail, out=tail)
            head = 0
            for i, support in self.fold:
                while head < support[0]:  # sum out the leading qubit, in place
                    half = len(tail) // 2
                    tail = np.add(tail[:half], tail[half:], out=tail[:half])
                    head += 1
                values[i] = _z_parity(tail, [q - head for q in support])
        return values

    def _draws(self, state: Statevector, rng) -> Iterator[tuple]:
        """``(members, weights, parities)`` per measurement group, drawn ``shots``
        times from ``rng`` after its turn: the frequencies of the outcomes drawn
        and ``parities[k]``, member k's +-1 z parity on each."""
        self._check(state)
        rng = np.random.default_rng(rng)
        for members, turn, supports in self.groups:
            counts = sample_counts(pauli_rotations(state, *turn), self.shots, rng)
            outcomes = np.flatnonzero(counts)
            parities = 1 - 2 * (_popcount(supports[:, None] & outcomes) & 1)
            yield members, counts[outcomes] / self.shots, parities


def estimate_with_sigma(
    state: Statevector, terms: Sequence[PauliTerm], shots: int, rng: int | np.random.Generator
) -> tuple[float, float | None]:
    """Sampled <state| sum of terms |state> and its standard error: a one-shot :class:`ReadPlan`.

    ``shots`` = 0 gives (:func:`expectation`, None) and leaves ``rng``
    alone.  A term without factors adds exactly its coefficient.
    """
    n = state.num_qubits
    plan = ReadPlan([pauli_masks(t.factors, n) for t in terms], n, shots)
    return plan.estimate(state, [t.coefficient for t in terms], rng)


def expectation(state: Statevector, terms: Sequence[PauliTerm]) -> float:
    """<state| sum of terms |state>, exactly, as a real number: a one-shot :class:`ReadPlan`.

    A term without factors adds exactly its coefficient.
    """
    return estimate_with_sigma(state, terms, 0, None)[0]
