"""Measure the empirical convergence order of the Trotter pipeline.

Evolves the 3-spin Ising quench to t = 1 with increasing step counts
and fits the terminal-state infidelity against the exact propagator on
a log-log scale.  The states come from the command line's route:
lowered step blocks (``step_blocks``) advanced by fused plans
(``evolve_series``).  Midpoint coefficient sampling makes the observed
order close to 2 even for the first-order splitting.  Exits 1 when the
observed order falls outside [1.9, 2.1].
"""

import sys

import numpy as np

from spinsim.backend import product_state
from spinsim.config import build_hamiltonian, parse_input
from spinsim.ir import lower_to_native
from spinsim.oracle import evolve_exact
from spinsim.trotter import TrotterParams, evolve_series, step_blocks

TEXT = """
num_spins: 3
mode: real-time
total_time: 1.0
num_steps: 10
J_z: 1.0
h_x: 1.0
"""


def main() -> int:
    cfg = parse_input(TEXT)
    hamiltonian = build_hamiltonian(cfg)
    [exact] = evolve_exact(hamiltonian, [cfg.total_time], product_state(cfg.initial_state))

    step_counts = [10, 20, 40, 80]
    infidelities = []
    print("   N   infidelity")
    for n_steps in step_counts:
        blocks = step_blocks(hamiltonian, TrotterParams(cfg.total_time, n_steps), lower_to_native)
        for state in evolve_series(cfg.initial_state, blocks):
            pass  # keep the last state
        overlap = np.vdot(exact.amplitudes, state.amplitudes)
        infidelity = max(1.0 - abs(overlap) ** 2, 1e-16)
        infidelities.append(infidelity)
        print(f"{n_steps:4d}   {infidelity:.3e}")

    slope, _ = np.polyfit(np.log(step_counts), np.log(infidelities), 1)
    order = -slope
    print(f"observed order: {order:.3f}")
    if not 1.9 <= order <= 2.1:
        print("the observed order lies outside [1.9, 2.1]", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
