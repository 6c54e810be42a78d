"""Local statevector execution, expectation values and sampled estimates.

Basis-state indices follow the package-wide convention: qubit 0 (spin
site 1) is the most significant bit, so the bitstring for index ``i``
on ``n`` qubits is ``format(i, f"0{n}b")`` with character j describing
qubit j ('1' means spin down).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import NormDriftError, TooLargeError
from .hamiltonian import PauliTerm
from .ir import Gate, Program, gate_matrix
from .value import Value, set_field, set_fields

STATEVECTOR_QUBIT_LIMIT = 24

# the largest |1 - ||psi||| that :func:`checked_norm_drift` lets pass
NORM_DRIFT_BUDGET = 1e-9


class Statevector(Value, eq=False):
    """Amplitudes of an n-qubit pure state, unit norm up to float error.

    ``basis`` is the index of the one amplitude, 1.0, of a basis state that
    :func:`product_state` made, else None.
    """

    def __init__(self, num_qubits: int, amplitudes: np.ndarray):
        if amplitudes.shape != (2**num_qubits,):
            raise ValueError(f"expected {2**num_qubits} amplitudes, got {amplitudes.shape}")
        set_field(self, "num_qubits", num_qubits)
        set_field(self, "amplitudes", amplitudes)
        set_field(self, "basis", None)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _check_width(num_qubits: int) -> None:
    if num_qubits > STATEVECTOR_QUBIT_LIMIT:
        raise TooLargeError(
            f"statevector simulation limited to {STATEVECTOR_QUBIT_LIMIT} qubits, got {num_qubits}"
        )


def basis_index(spins: Sequence[str]) -> int:
    """The basis-state index of the product state ``spins`` ('up'/'down' per site):
    site 1 is the most significant bit, and 'down' sets it."""
    index = 0
    for spin in spins:
        if spin not in ("up", "down"):
            raise ValueError(f"spins must be 'up' or 'down', got {spin!r}")
        index = (index << 1) | (1 if spin == "down" else 0)
    return index


def product_state(spins: Sequence[str]) -> Statevector:
    """|up...> style product state; ``spins`` holds 'up'/'down' per site.

    At most STATEVECTOR_QUBIT_LIMIT sites, as for :func:`run_statevector` (all up by default).
    The state records its :func:`basis_index` as ``basis``, from which
    :class:`ReadPlan` reads it without touching an amplitude.
    """
    n = len(spins)
    _check_width(n)
    index = basis_index(spins)
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    state = Statevector(n, amps)
    set_field(state, "basis", index)
    return state


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


# A fused window takes at most this many contiguous qubits, so a block's
# matrix has at most 2^FUSED_QUBITS rows, or 2^(FUSED_QUBITS + 2) for a
# tail block (see fuse).
FUSED_QUBITS = 5
# A block is applied in products of at most this many amplitudes, and a
# fold read forms its products in slices of at most this many, which
# bounds the temporary each product or slice allocates.
_CHUNK = 2**16
# With at most this many amplitudes below a block, one product of the
# rows of the (-1, 2^m rest) view by kron(U^T, I_rest) replaces 2^lo
# products with only `rest` columns each.  fuse widens a window's block
# that leaves so few below it into a tail block, with rest = 1.
_KRON_REST = 4


class FusedBlock(Value, eq=False):
    """A dense unitary on the qubits lo .. lo + m - 1 of n; ``matrix`` has 2^m rows.

    From :func:`fuse`, m is at most FUSED_QUBITS, or at most FUSED_QUBITS + 2
    for a tail block, which ends at the last qubit.
    ``product`` is kron(matrix^T, I_rest), built once with the block when
    at most _KRON_REST amplitudes lie below it, else None; a tail block has
    rest = 1.
    """

    def __init__(self, lo: int, matrix: np.ndarray, num_qubits: int):
        rest = 2 ** (num_qubits - lo) // len(matrix)
        set_fields(self, lo, matrix, num_qubits)
        set_field(self, "product", np.kron(matrix.T, np.eye(rest)) if rest <= _KRON_REST else None)


def fuse(program: Program) -> tuple[FusedBlock | Gate, ...]:
    """The program as a plan of dense blocks on contiguous qubits: each on at most
    FUSED_QUBITS, or a tail block on at most FUSED_QUBITS + 2 that ends at the last qubit.

    A sweep moves a window of FUSED_QUBITS qubits up the chain.  Each
    window starts at the lowest qubit that a remaining gate touches, but
    at least one qubit above the window before it and at most at
    n - FUSED_QUBITS, where the sweep ends.  Each window takes, in gate
    order, every remaining gate that lies inside it and shares no qubit
    with an earlier gate the window left behind; the gates it takes
    become one block on their tight span.  A block that would leave at
    most _KRON_REST amplitudes below it becomes a tail block instead: its
    span runs on to the last qubit, and its matrix is kron(U, I_rest).  A
    later block that lies inside the newest tail's span, with no entry in
    between on its qubits, joins that tail: its matrix multiplies the
    tail's from the left through ``np.einsum``, which calls no BLAS.  So a
    sweep ends in one tail block of at most FUSED_QUBITS + 2 qubits, with
    nothing below it.  On a chain step with xx, yy and zz bonds, the
    windows advance FUSED_QUBITS - 3 qubits per block.  Sweeps repeat
    until no gate is left.  No gate passes an earlier gate on one of its
    wires, so the product of the plan is the program's unitary.  A gate
    that spans more than FUSED_QUBITS by itself stays a gate, applied by
    :func:`apply_gate`: it blocks its wires until it reaches the head of
    the remaining gates, and then becomes a plan entry of its own.  Each
    window's matrix U is built by :func:`apply_gate`, gate by gate, on an
    identity matrix (:func:`_block_matrix`).  Per-qubit counts of the
    remaining gates give each window's lowest pending qubit.
    """
    n = program.num_qubits
    last = max(0, n - FUSED_QUBITS)
    remaining = list(program.gates)
    pending = Counter(q for gate in remaining for q in gate.qubits)
    entries: list[list | Gate] = []  # a block is [lo, hi, matrix]
    tail = None  # the index of the newest tail block
    while remaining:
        lo = -1
        while remaining and lo < last:
            while remaining and _wide(remaining[0]):
                entries.append(remaining.pop(0))
                pending.subtract(entries[-1].qubits)
            lowest = next((q for q in range(n) if pending[q]), last)
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
                pending.subtract(qubits)
                block_lo, block_hi = min(qubits), max(qubits)
                matrix = _block_matrix(block_lo, block_hi, taken)
                below = 2 ** (n - 1 - block_hi)
                if tail is not None and _joins_tail(entries, tail, block_lo, block_hi):
                    # the tail's rows, as (above the block, its qubits, below it and the columns)
                    tail_lo, _, tail_matrix = entries[tail]
                    view = tail_matrix.reshape(2 ** (block_lo - tail_lo), len(matrix), -1)
                    view[...] = np.einsum("ij,ajc->aic", matrix, view)  # no BLAS call
                elif below <= _KRON_REST:
                    tail = len(entries)
                    entries.append([block_lo, n - 1, np.kron(matrix, np.eye(below))])
                else:
                    entries.append([block_lo, block_hi, matrix])
            remaining = kept
    return tuple(
        entry if isinstance(entry, Gate) else FusedBlock(entry[0], entry[2], n)
        for entry in entries
    )


def _joins_tail(entries: Sequence[list | Gate], tail: int, lo: int, hi: int) -> bool:
    """Whether a block on qubits lo..hi can join the tail block ``entries[tail]``: it lies
    inside the tail's span, and no later entry's span meets it, so it commutes with them."""
    if lo < entries[tail][0]:
        return False
    for entry in entries[tail + 1 :]:
        a, b = (min(entry.qubits), max(entry.qubits)) if isinstance(entry, Gate) else entry[:2]
        if a <= hi and lo <= b:
            return False
    return True


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


def _apply_block(region: np.ndarray, block: FusedBlock, offset: int) -> None:
    """Multiply the block's qubits of ``region`` by its matrix, in place, a chunk at a time.

    ``region`` is a 1-D view of the amplitudes on qubits a..b of the state
    for one setting of the others (the whole state when a = 0 and
    b = n - 1), and the block's qubits are offset .. offset + m - 1 of
    them.  A contiguous region (b = n - 1) is multiplied in place, chunk
    by chunk, as the whole state is.  A strided one (b < n - 1) is
    gathered a chunk of whole columns at a time into one contiguous
    (2^m, columns) copy, which one product multiplies; copy and product
    hold at most _CHUNK / 2 amplitudes together, so a region never holds
    more temporary memory than the whole state's one product.  Either way
    every column meets the same BLAS kernel as on the whole state (see
    :func:`_live_range`).
    """
    dim = len(block.matrix)
    rest = len(region) // (dim << offset)
    rows = max(1, _CHUNK // (dim * rest))
    if block.product is not None:
        w = region.reshape(-1, dim * rest)
        for a in range(0, len(w), rows):
            part = w[a : a + rows]
            part[...] = part @ block.product
        return
    v = region.reshape(-1, dim, rest)
    if region.strides[0] == region.itemsize:
        cols = min(rest, _CHUNK // dim)
        for a in range(0, len(v), rows):
            for c in range(0, rest, cols):
                part = v[a : a + rows, :, c : c + cols]
                part[...] = np.matmul(block.matrix, part)
        return
    size = _CHUNK // 4  # of the copy, and of the product
    rows, cols = max(1, size // (dim * rest)), min(rest, max(1, size // dim))
    for a in range(0, len(v), rows):
        for c in range(0, rest, cols):
            part = v[a : a + rows, :, c : c + cols]
            copy = np.ascontiguousarray(part.transpose(1, 0, 2))
            product = block.matrix @ copy.reshape(dim, -1)
            part[...] = product.reshape(copy.shape).transpose(1, 0, 2)


def _live_range(a: int, b: int, block: FusedBlock) -> tuple[int, int]:
    """The live range [a, b] once ``block`` has run: the hull of [a, b] and the
    block's qubits, widened so that each product of :func:`_apply_block` takes
    the route through BLAS that it takes on the whole state.

    BLAS multiplies a single row as a matrix-vector product, and the columns
    left over from a zgemm kernel's unrolling (4 on x86-64) by other code;
    either may round otherwise, or turn a row of zeros into -0.0.  So:

    - a block without a kron product has at least three qubits below it,
      and its products on the whole state at least 8 columns: its range
      keeps at least three qubits besides the block's, for as many columns;
    - a block with one (``block.product``; from :func:`fuse`, the tail
      block that ends each sweep) multiplies whole rows of the amplitudes
      from its first qubit down, at least two unless that qubit is 0: its
      range runs to the last qubit and starts at least one qubit above the
      block;
    - a kron product of fewer than 8 columns takes the whole register.
    """
    n, lo = block.num_qubits, block.lo
    hi = lo + len(block.matrix).bit_length() - 2
    a, b = min(a, lo), max(b, hi)
    if block.product is None:
        return a, max(b, a + hi - lo + 3)
    if len(block.product) < 8:
        return 0, n - 1
    return min(a, max(lo - 1, 0)), n - 1


def run_fused(
    plan: Sequence[FusedBlock | Gate], initial: Statevector, basis: int | None = None
) -> Statevector:
    """Advance a copy of ``initial`` by a plan (:func:`fuse`'s, or gates): the one driver.

    ``basis``, when given, says that ``initial`` is a basis state and gives
    its index.  The run then starts from zeros that hold that one amplitude
    and keeps a live range of qubits [a, b] (:func:`_live_range`), the
    qubits the entries so far have touched: every amplitude whose bits
    outside the range differ from the index's is still zero.  Each block
    multiplies only the 2^(b - a + 1) amplitudes whose bits outside the
    range equal the index's, one strided view of the state.  A plain
    :class:`Gate` makes the range the whole register.  Without ``basis``
    the range is the whole register throughout.  Either way each amplitude
    is the same sum of the same products, bit for bit.  On the 20-spin
    benchmark chain's fused step from an index, only the last entry, the
    sweep's tail block, runs over the whole state.
    """
    n = initial.num_qubits
    if basis is None:
        amps = initial.amplitudes.astype(complex, copy=True)
        a, b = 0, n - 1
    elif not 0 <= basis < 2**n:
        raise ValueError(f"basis index {basis} is out of range for {n} qubits")
    else:
        amps = np.zeros(2**n, dtype=complex)
        amps[basis] = initial.amplitudes[basis]
        a, b = n, -1  # nothing touched yet
    for entry in plan:
        if isinstance(entry, Gate):
            a, b = 0, n - 1
            apply_gate(amps, entry, n)  # a module lookup, so wrappers see each gate
            continue
        if entry.num_qubits != n:
            raise ValueError("fused block width does not match the state")
        region = amps
        if b - a < n - 1:
            a, b = _live_range(a, b, entry)
            stride = 1 << (n - 1 - b)
            span = stride << (b - a + 1)
            first = basis & ~(span - stride)  # the index with the range's bits cleared
            region = amps[first : first + span : stride]
        _apply_block(region, entry, entry.lo - a)
    return Statevector(n, amps)


def run_statevector(program: Program, initial: Statevector | None = None) -> Statevector:
    """Run a program by :func:`run_fused` from |0...0> (as basis index 0) or a copy of ``initial``:
    on ``fuse(program)`` from 2m + 2 qubits (m = FUSED_QUBITS) up, where the state holds at
    least four times a block's 2^2m-amplitude build, and on the program's gates below that."""
    n = program.num_qubits
    _check_width(n)
    if initial is not None and initial.num_qubits != n:
        raise ValueError("initial state width does not match the program")
    plan = fuse(program) if n >= 2 * FUSED_QUBITS + 2 else program.gates
    if initial is None:
        return run_fused(plan, product_state(("up",) * n), basis=0)
    return run_fused(plan, initial)


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

# the smallest state whose small x != 0 groups take the fold (see _route)
_X_FOLD_MIN_QUBITS = 11


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


def _real_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Re sum_k conj(a_k) b_k, summed by numpy's own loop on the float64 views.

    Unlike BLAS zdotc (threaded on long vectors), its rounding does not
    depend on the BLAS or its thread count.
    """
    a, b = (np.ascontiguousarray(v).view(np.float64) for v in (a, b))
    return float(np.einsum("i,i->", a, b))


def checked_norm_drift(state: Statevector) -> float:
    """|1 - ||psi||| of ``state``, from one pass of :func:`_real_dot`, so without BLAS.

    Raises NormDriftError when it exceeds NORM_DRIFT_BUDGET.
    """
    drift = abs(1.0 - math.sqrt(_real_dot(state.amplitudes, state.amplitudes)))
    if not drift <= NORM_DRIFT_BUDGET:
        raise NormDriftError(
            f"the simulated state's norm drifted from 1 by {drift:.3e}, "
            f"over the budget of {NORM_DRIFT_BUDGET:g}"
        )
    return drift


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


def _transform_reads(
    batch: Sequence[np.ndarray], num_qubits: int, x: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Re <psi| sigma |psi> for each state psi of ``batch`` (row) and string (x[i], z[i]),
    from half Walsh-Hadamard tables.

    <psi| sigma |psi> = (-i)^|x & z| T(z), T(z) = sum_k (-1)^|k & z| v_k with
    v_k = conj(psi_k) psi_{k xor x}, so one transform gives every z of one
    x mask.  Only the half of v whose pairing bit p is 0 is transformed,
    into H(z') with z' = z without bit p.  For x != 0, p is x's lowest set
    bit; v_{k xor x} = conj(v_k), so T(z) is 2 Re H(z') when |x & z| is even
    and 2i Im H(z') when it is odd.  For x = 0, v is real and p is the top
    qubit's bit: the two halves are packed into the real and imaginary
    parts, and T(z) = Re H(z') +- Im H(z') by z's bit p.  The distinct x
    masks are the columns of (2^(n-1), chunk) tables of at most
    _WALSH_CHUNK / 2 entries, and a table holds one state's columns only:
    per chunk the row indices and the read entries are built once, then
    each state in turn gathers its columns from its own amplitudes and
    :func:`_walsh_hadamard` transforms them.  A batch's read so peaks near
    one state's (traced: 0.36 MB for 61 10-spin states on ten x masks,
    0.34 MB for one).  Every step is elementwise, so a value depends on
    neither the other x masks nor the other states, and it agrees with
    :func:`_real_dot` of the applied string up to rounding.
    """
    n = num_qubits
    half = 2 ** (n - 1)
    x_masks, column = np.unique(x, return_inverse=True)
    pairing = np.where(x_masks, x_masks & -x_masks, half)
    width = max(1, _WALSH_CHUNK >> n)
    rows = np.arange(half)[:, None]
    values = np.empty((len(batch), len(x)))
    for first in range(0, len(x_masks), width):
        chunk, bit = x_masks[first : first + width], pairing[first : first + width]
        # k: the row index with a 0 inserted at the column's pairing bit
        k = (rows & -bit) << 1 | rows & bit - 1
        flipped = k ^ chunk
        members = np.flatnonzero(column // width == first // width)
        xm, zm, bit = x[members], z[members], pairing[column[members]]
        entry = zm >> 1 & -bit | zm & bit - 1, column[members] - first
        # Re((-i)^p w) is w.real, w.imag, -w.real, -w.imag for p = 0..3
        power = _popcount(xm & zm) % 4
        table = np.empty(k.shape, dtype=complex)
        read = np.empty((len(batch), len(members)), dtype=complex)
        for state, amps in enumerate(batch):
            np.conjugate(amps[k], out=table)
            table *= amps[flipped]
            if chunk[0] == 0:
                table[:, 0].imag = (amps[half:].conj() * amps[half:]).real
            _walsh_hadamard(table)
            read[state] = table[entry]
        paired = 2 * np.where(power % 2, read.imag, read.real) * (1 - (power & 2))
        packed = read.real + np.where(zm & bit, -read.imag, read.imag)
        values[:, members] = np.where(xm, paired, packed)
    return values


def _route(x_mask: int, size: int, num_qubits: int) -> str:
    """How an exact :class:`ReadPlan` reads the ``size`` strings on one x mask.

    The one route rule; README gives its measurements.  A group takes the
    fold (:func:`_fold_reads`) while it has at most 2n - 1 z strings (x = 0),
    as in a chain energy, or, from _X_FOLD_MIN_QUBITS qubits on, at most two
    strings on another mask, as a bond's xx and yy or a site's x and y.  The
    fold costs per string, the tables per mask: every other group is a
    column of the half Walsh-Hadamard tables (:func:`_transform_reads`).
    """
    if x_mask == 0:
        limit = 2 * num_qubits - 1
    else:
        limit = 2 if num_qubits >= _X_FOLD_MIN_QUBITS else 0
    return "fold" if size <= limit else "tables"


def pauli_rotations(
    states: Sequence[Statevector], x, z, angles: Sequence[float]
) -> list[Statevector]:
    """exp(-i angles[j] sigma_j) applied to a copy of each of ``states``, j = 0, 1, ... in order.

    sigma_j has masks (x[j], z[j]), and exp(-i theta sigma) = cos theta -
    i sin theta sigma, so each rotation is

        psi'_k = cos theta psi_k + sin theta (-i)^(|x & z| + 1) (-1)^|k & z| psi_{k xor x},

    one gather and a few elementwise products, without BLAS.  The states,
    one or more of one width, are copied into the rows of one array, and
    each rotation turns every row at once; every product is elementwise,
    so a row rounds the same in any batch.  The results are views of
    those rows.  The z signs come as int8 rows from :func:`_z_signs`, a
    chunk at a time, and the gather index is made per rotation, so no
    complex or int64 table of 2^n entries per string is kept.  A string
    with an odd number of y factors has a real phase, so it keeps a real
    state exactly real.  The states are only read; no strings give equal
    copies.  ``x``, ``z`` and ``angles`` must have one entry per string
    (ValueError otherwise).
    """
    n = states[0].num_qubits
    amps = np.empty((len(states), 2**n), dtype=complex)
    for row, state in zip(amps, states):
        row[...] = state.amplitudes
    x = np.asarray(x, dtype=np.int64)
    z = np.asarray(z, dtype=np.int64)
    if not len(x) == len(z) == len(angles):
        raise ValueError(f"got {len(x)} x masks, {len(z)} z masks and {len(angles)} angles")
    # index[b, k] = b 2^n + k, the flat position of row b's amplitude k, so
    # index ^ x_mask gathers psi_{k xor x} of every row from the flat view
    flat, index = amps.reshape(-1), np.arange(amps.size).reshape(amps.shape)
    powers = (_popcount(x & z) + 1) % 4
    for x_mask, signs, power, theta in zip(x.tolist(), _z_signs(z, n), powers.tolist(), angles):
        flipped = flat[index ^ x_mask]
        flipped *= signs
        # a real phase multiplies by a float, so a real state gains no imaginary part
        flipped *= _MINUS_I_POWERS[power] * math.sin(theta)
        amps *= math.cos(theta)
        amps += flipped
        del flipped  # before the next gather, so two copies are never held
    return [Statevector(n, row) for row in amps]


def _z_parity(probs: np.ndarray, support: Sequence[int]) -> np.ndarray:
    """sum_k (-1)^(parity of k on ``support``) probs[:, k] for each row; qubit 0 is the top bit.

    Each run of qubits outside the support is one axis of the sum, so
    the reduction sees as few axes as the support allows; the rows are
    one more axis, outside all of them.
    """
    m = probs.shape[1].bit_length() - 1
    if support[-1] == m - 1 and support[-1] - support[0] >= len(support):
        # a gap before a trailing run would leave inner loops of 2^run
        # elements: take the run's signs first, so the rest is contiguous
        while support[-1] == m - 1:
            pairs = probs.reshape(len(probs), -1, 2)
            probs = pairs[:, :, 0] - pairs[:, :, 1]
            support, m = support[:-1], m - 1
    shape = [len(probs)]
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
        value = value[:, 0] - value[:, 1]
    return value


def _fold_reads(
    batch: Sequence[np.ndarray],
    num_qubits: int,
    supports: Sequence[Sequence[int]],
    x_mask: int = 0,
) -> np.ndarray:
    """Re <psi| sigma |psi> for each state psi of ``batch`` (row) and string (column) on
    one x mask: sum_k (-1)^(parity of k on the support) v_k, times (-i)^|x & z|, with
    v_k = |psi_k|^2 for x = 0, else conj(psi_k) psi_{k xor x}.  A string is given
    by its support, the qubits of its z mask; ``supports`` is sorted by first qubit,
    an empty support (z = 0) first.

    v is formed a slice of at most _CHUNK amplitudes at a time.  A slice
    fixes the leading ``lead`` = n - 16 qubits (none for n <= 16, where the one
    slice is the whole state), and the slices add up, in order, into a running
    sum over those qubits, ``tail``.  Slice j pairs psi's slice j with its slice
    j xor (x's leading bits), flipped on x's other bits as a view.  A string
    whose first qubit lies past the leading ones reads ``tail``: the strings are
    visited by first qubit (head), and as the head advances the qubits before it
    are summed out of ``tail`` in place, so a value does not depend on the other
    strings.  A string that touches the leading qubits adds, on each slice, its
    :func:`_z_parity` on its qubits past them, times the slice index's parity on
    its leading qubits; one with no qubit past them adds the slice total, which
    all such strings share, as does an empty support.  Every step depends on n
    alone, so a state reads the same in any batch.
    """
    n = num_qubits
    size = min(2**n, _CHUNK)
    lead = n + 1 - size.bit_length()
    outer = sum(not s or s[0] < lead for s in supports)
    dtype = complex if x_mask else float
    values = np.zeros((len(batch), len(supports)), dtype)
    if outer:
        # each leading string's qubits past the leading ones, and its sign on
        # slice j: (-1)^(parity of j on its leading qubits)
        trailing = [[q - lead for q in s if q >= lead] for s in supports[:outer]]
        lead_bits = [sum(1 << (lead - 1 - q) for q in s if q < lead) for s in supports[:outer]]
        signs = 1.0 - 2.0 * (_popcount(np.array(lead_bits)[:, None] & np.arange(2**lead)) & 1)
        shared = not all(trailing)
        parts = np.empty((len(batch), outer), dtype)
    tail = np.empty((len(batch), size), dtype)
    probs = np.empty_like(tail) if lead else None
    # psi's partner slice, reversed along x's trailing qubits: a view
    shape = (2,) * (n - lead)
    flip = tuple(slice(None, None, -1 if x_mask >> (n - 1 - q) & 1 else 1) for q in range(lead, n))
    for j in range(2**lead):
        block, window = (tail if j == 0 else probs), slice(j * size, (j + 1) * size)
        if x_mask:
            partner = (j ^ x_mask >> (n - lead)) * size
            for row, amps in zip(block, batch):
                np.conjugate(amps[window], out=row)
                row.reshape(shape)[...] *= amps[partner : partner + size].reshape(shape)[flip]
        else:
            for row, amps in zip(block, batch):
                np.abs(amps[window] if lead else amps, out=row)  # one slice: no view
            np.square(block, out=block)
        if outer:
            # strings wholly on the leading qubits share the slice total
            total = block.sum(axis=1) if shared else None
            for c, t in enumerate(trailing):
                parts[:, c] = _z_parity(block, t) if t else total
            values[:, :outer] += parts * signs[:, j]
        if j:
            tail += probs
    head = lead
    for i, support in enumerate(supports[outer:], outer):
        while head < support[0]:  # sum out the leading qubit, in place
            half = tail.shape[1] // 2
            tail = np.add(tail[:, :half], tail[:, half:], out=tail[:, :half])
            head += 1
        values[:, i] = _z_parity(tail, [q - head for q in support])
    if not x_mask:
        return values
    # Re((-i)^p w) is w.real, w.imag, -w.real, -w.imag for p = 0..3
    power = np.array([sum(x_mask >> (n - 1 - q) & 1 for q in s) % 4 for s in supports])
    return np.where(power % 2, values.imag, values.real) * (1 - (power & 2))


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

    A read takes a batch of states of the plan's width, each read as if
    alone: :attr:`batch` states fill about _WALSH_CHUNK amplitudes, which
    the fold reads together and the tables one state at a time.  With
    ``shots`` = 0 the reads are exact: the strings are grouped by x mask,
    and :func:`_route` fixes each group's route here, in ``routes`` (x
    mask -> "fold" or "tables"), and the fold's members and supports, in
    ``fold``.  No route calls BLAS, and a string's value depends on its
    route and its state alone, never on the other strings or states of the
    read.  A batch of basis states that :func:`product_state` made reads
    from their ``basis`` indices alone, bit for bit as the routes would
    (:meth:`_basis_values`); a batch that holds any other state takes the
    routes throughout.  With ``shots`` > 0 the strings share
    :func:`_measurement_groups`, each turned into the z basis by
    :func:`pauli_rotations` and drawn ``shots`` times per state.  Either
    way the identity (0, 0) is exactly 1.0 without a read, and the states
    are only read: each route writes its working rows (the fold's slices,
    turned copies, table columns) from every state's own amplitudes.
    """

    def __init__(self, masks: Sequence[tuple[int, int]], num_qubits: int, shots: int = 0):
        if shots < 0:
            raise ValueError(f"shots must be >= 0, got {shots}")
        n = num_qubits
        self.masks, self.num_qubits, self.shots = list(masks), n, shots
        self.batch = max(1, _WALSH_CHUNK >> n)
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
        self.x, self.z = np.array(self.masks, dtype=np.int64).reshape(-1, 2).T
        tables = [i for x_mask, r in self.routes.items() if r == "tables" for i in by_x[x_mask]]
        self.tables = tables, self.x[tables], self.z[tables]
        self.fold = []  # (x mask, members, supports), by first support qubit, z = 0 first
        for x_mask, members in by_x.items():
            if self.routes[x_mask] == "fold":
                z_masks = [self.masks[i][1] for i in members]
                supports = [[q for q in range(n) if z >> (n - 1 - q) & 1] for z in z_masks]
                group = sorted(zip(members, supports), key=lambda m: m[1][0] if m[1] else -1)
                self.fold.append((x_mask, *zip(*group)))

    def values(self, states: Sequence[Statevector], rngs=None) -> np.ndarray:
        """<state| sigma |state> for each state (row) and string (column).  A sampled
        value is the string's mean parity over its group's draws from the state's
        entry of ``rngs`` (int seeds or generators, consumed); exact plans leave
        ``rngs`` alone."""
        if not self.shots:
            return self._exact(states)
        values = np.ones((len(states), len(self.masks)))
        for b, members, weights, parities in self._draws(states, rngs):
            values[b, members] = parities @ weights
        return values

    def estimates(
        self, states: Sequence[Statevector], coefficients, rngs=None
    ) -> list[tuple[float, float | None]]:
        """sum_i coefficients[b, i] <state| sigma_i |state> and its standard error, per state b.

        ``coefficients`` has one row per state.  A string whose coefficient
        is 0 is not part of that state's sum.  Exact plans give (value,
        None), summed string by string in order; a 0 adds nothing there,
        since a sum that starts at +0.0 stays the same when +-0.0 is added.
        Sampled ones add the identity strings' coefficients exactly, and
        draw only the groups that hold one of the state's strings, in
        order; an outcome's value is the sum of coefficient times z parity
        over the group's strings, and the group variances add.
        """
        coefficients = np.asarray(coefficients, dtype=float).reshape(len(states), len(self.masks))
        if not self.shots:
            totals = np.zeros(len(states))
            for column, values in zip(coefficients.T, self._exact(states).T):
                totals += column * values
            return [(total, None) for total in totals.tolist()]
        identity = [not x | z for x, z in self.masks]
        means = [sum(row[identity].tolist()) for row in coefficients]
        variances = [0.0] * len(states)
        counted = [coefficients[:, members].any(axis=1) for members, _, _ in self.groups]
        for b, members, weights, parities in self._draws(states, rngs, counted):
            values = np.zeros(len(weights))
            for i, parity in zip(members, parities):
                if coefficients[b, i]:
                    values += coefficients[b, i] * parity
            group_mean = float(np.dot(weights, values))
            means[b] += group_mean
            variances[b] += float(np.dot(weights, (values - group_mean) ** 2)) / self.shots
        return [(float(mean), math.sqrt(var)) for mean, var in zip(means, variances)]

    def _check(self, states: Sequence[Statevector]) -> None:
        for state in states:
            if state.num_qubits != self.num_qubits:
                raise ValueError(f"the plan reads {self.num_qubits} qubits, not {state.num_qubits}")

    def _exact(self, states: Sequence[Statevector]) -> np.ndarray:
        """The value of each string in each state, group by group on its route, or, when
        every state is a basis state, from the indices (:meth:`_basis_values`)."""
        self._check(states)
        if all(state.basis is not None for state in states):
            return self._basis_values([state.basis for state in states])
        batch, n = [state.amplitudes for state in states], self.num_qubits
        values = np.ones((len(batch), len(self.z)))
        members, x, z = self.tables
        if members:
            values[:, members] = _transform_reads(batch, n, x, z)
        for x_mask, members, supports in self.fold:
            values[:, members] = _fold_reads(batch, n, supports, x_mask)
        return values

    def _basis_values(self, indices: Sequence[int]) -> np.ndarray:
        """The value of each string in the basis state of each index (row), in closed form:
        (-1)^|index & z| for x = 0, else 0.  Each is what the routes give, bit for bit:
        their sums are exact on one amplitude 1.0, and they negate the read of
        (-i)^|x & z| w when |x & z| mod 4 is 2 or 3, which makes a zero -0.0."""
        index = np.array(indices, dtype=np.int64)[:, None]
        signs = 1 - 2 * (_popcount(index & self.z) & 1)
        return np.where(self.x == 0, signs, 0.0) * (1 - (_popcount(self.x & self.z) & 2))

    def _draws(self, states: Sequence[Statevector], rngs, counted=None) -> Iterator[tuple]:
        """``(b, members, weights, parities)`` per measurement group and state b,
        group by group: the state turned by the group's turn and drawn ``shots``
        times from its own entry of ``rngs``, the frequencies of the outcomes drawn
        and ``parities[k]``, member k's +-1 z parity on each.  ``counted[g]``, when
        given, says which states draw group g."""
        self._check(states)
        generators = [np.random.default_rng(rng) for rng in rngs or [None] * len(states)]
        for g, (members, turn, supports) in enumerate(self.groups):
            rows = range(len(states)) if counted is None else np.flatnonzero(counted[g]).tolist()
            if not rows:
                continue
            for b, turned in zip(rows, pauli_rotations([states[b] for b in rows], *turn)):
                counts = sample_counts(turned, self.shots, generators[b])
                outcomes = np.flatnonzero(counts)
                parities = 1 - 2 * (_popcount(supports[:, None] & outcomes) & 1)
                yield b, members, counts[outcomes] / self.shots, parities


def estimate_with_sigma(
    state: Statevector, terms: Sequence[PauliTerm], shots: int, rng: int | np.random.Generator
) -> tuple[float, float | None]:
    """Sampled <state| sum of terms |state> and its standard error: a one-shot
    :class:`ReadPlan` of a one-state batch.

    ``shots`` = 0 gives (:func:`expectation`, None) and leaves ``rng``
    alone.  A term without factors adds exactly its coefficient.
    """
    n = state.num_qubits
    plan = ReadPlan([pauli_masks(t.factors, n) for t in terms], n, shots)
    return plan.estimates([state], [[t.coefficient for t in terms]], [rng])[0]


def expectation(state: Statevector, terms: Sequence[PauliTerm]) -> float:
    """<state| sum of terms |state>, exactly, as a real number: a one-shot :class:`ReadPlan`.

    A term without factors adds exactly its coefficient.
    """
    return estimate_with_sigma(state, terms, 0, None)[0]
