"""Peephole circuit optimization in one left-to-right pass.

Two gates "meet" when no gate between them touches any of their
qubits; gates on disjoint wires are skipped over.  The pass keeps a
frontier: for every wire, the output positions of that wire's live
gates, last on top.  An incoming gate meets the earlier gate that is on
top of every one of its wires, and when the two have the same kind and
the same operands one rule fires:

1. self-inverse gates (h, x, cnot) cancel, and both are removed;
2. rotations merge into the earlier gate's position,
   RA(t1) RA(t2) -> RA(t1 + t2).

A rotation whose angle is a multiple of 2 pi (within 1e-12) equals the
identity up to global phase.  It is dropped as soon as it arrives or a
merge produces it, so ``rz(pi) rz(pi) rz(0.3)`` becomes ``rz(0.3)``.  A
removal pops the gate off its wires, which exposes the gate below to
the next arrival, so ``h cnot cnot h`` collapses completely.

Gates are never added.  The pass's state after a prefix of the input
is fixed by what it has emitted so far, and no rule fires on that
output, so feeding it back in rebuilds the same state:
``optimize(optimize(p) + q) == optimize(p + q)``, and a circuit
extended by more gates can be optimized from its optimized prefix.
"""

from __future__ import annotations

import math

from .ir import PARAMETRIC_KINDS, Gate, Program

ZERO_ANGLE_TOLERANCE = 1e-12


def _is_identity_angle(theta: float) -> bool:
    remainder = math.fmod(theta, 2.0 * math.pi)
    return min(abs(remainder), 2.0 * math.pi - abs(remainder)) <= ZERO_ANGLE_TOLERANCE


def optimize(program: Program) -> Program:
    """Apply the peephole rules in one pass over the gates.

    The result computes the same unitary up to global phase, never has
    more gates than the input, and no rule fires on it again, so
    ``optimize`` is idempotent.
    """
    out: list[Gate | None] = []
    wires: list[list[int]] = [[] for _ in range(program.num_qubits)]
    for gate in program.gates:
        if gate.kind in PARAMETRIC_KINDS and _is_identity_angle(gate.theta):
            continue
        first = wires[gate.qubits[0]]
        i = first[-1] if first else None
        met = out[i] if i is not None else None
        if (
            met is None
            or (met.kind, met.qubits) != (gate.kind, gate.qubits)
            or any(wires[q][-1] != i for q in gate.qubits)
        ):
            for q in gate.qubits:
                wires[q].append(len(out))
            out.append(gate)
            continue
        if gate.kind in PARAMETRIC_KINDS:
            theta = met.theta + gate.theta
            if not _is_identity_angle(theta):
                out[i] = Gate(gate.kind, gate.qubits, theta)
                continue
        # a full turn, or a pair of self-inverse gates (every other kind)
        out[i] = None
        for q in gate.qubits:
            wires[q].pop()
    gates = tuple(g for g in out if g is not None)
    return Program(program.num_qubits, gates, program.measured)
