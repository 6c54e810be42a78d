"""Imaginary-time ground-state search for the 3-spin Ising chain.

Runs the command-line driver on scripts/inputs/tfim_ground_state.txt and
compares the per-step energies with the exact ground level from dense
diagonalization.  Artifacts go to $SPINSIM_OUTPUT_DIR when set, else
results/tfim.
"""

import os
import sys
from pathlib import Path

from spinsim.cli import OUTPUT_DIR_ENV, main as spinsim_main
from spinsim.config import build_hamiltonian, parse_input
from spinsim.hamiltonian import snapshot
from spinsim.observables import read_csv
from spinsim.oracle import ground_state

INPUT = Path(__file__).parent / "inputs" / "tfim_ground_state.txt"
OUT = Path(os.environ.get(OUTPUT_DIR_ENV) or "results/tfim")


def main() -> int:
    code = spinsim_main(["run", str(INPUT), "--out", str(OUT)])
    if code != 0:
        return code

    cfg = parse_input(INPUT.read_text(encoding="utf-8"))
    exact, _ = ground_state(snapshot(build_hamiltonian(cfg), 0.0), cfg.num_spins)

    points = read_csv(OUT / "results.csv")
    print()
    print(f"exact ground energy: {exact:.9f}")
    print("step  beta   energy      relative error")
    for step, (beta, energy, _) in enumerate(points):
        rel = abs((energy - exact) / exact)
        print(f"{step:4d}  {beta:4.1f}  {energy:+.6f}  {rel:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
