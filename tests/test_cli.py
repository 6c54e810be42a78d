"""End-to-end runs of the command line driver."""

import contextlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import textwrap
from collections import Counter
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import cut_programs, dense_expectation, product_formula_states
from spinsim import backend, cli, ir, oracle, qite, trotter
from spinsim.backend import expectation, pauli_masks, product_state, run_statevector
from spinsim.cli import main
from spinsim.config import INPUT_KEYS, build_hamiltonian, derived_seed, parse_input
from spinsim.hamiltonian import snapshot
from spinsim.ir import (
    Program,
    export_frame,
    export_line,
    export_text,
    import_text,
    phase_aligned_distance,
    unitary_of,
)
from spinsim.observables import read_csv, site_magnetization_observable
from spinsim.oracle import evolve_exact
from spinsim.qite import QiteParams, run_qite
from spinsim.trotter import (
    TrotterParams,
    build_evolution_program,
    state_preparation_gates,
    step_blocks,
    step_midpoint,
    trotter_step,
)

ROOT = Path(__file__).resolve().parent.parent
LOCALIZATION = ROOT / "scripts" / "inputs" / "localization_chain.txt"

SMALL_REAL_TIME = """\
num_spins: 2
mode: real-time
total_time: 1.0
num_steps: 5
J_z: 1.0
h_x: 1.0
initial_state: flip-first
observable: site-magnetization(z)
rng_seed: 3
"""

SMALL_IMAGINARY = """\
num_spins: 2
mode: imaginary-time
total_time: 1.5
num_steps: 5
J_z: 1.0
h_x: 1.0
observable: energy
rng_seed: 3
"""


def write_input(tmp_path, text, name="input.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def run_python(script: str, *args, cwd) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter with ``sys.argv[1:]`` = the repo root, then
    ``args``; the script puts the root's ``src`` first on ``sys.path``."""
    command = [sys.executable, "-c", textwrap.dedent(script), str(ROOT), *map(str, args)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True)


class TestArtifacts:
    def test_run_writes_csv_svg_manifest(self, tmp_path, capsys):
        input_path = write_input(tmp_path, SMALL_REAL_TIME)
        out = tmp_path / "out"
        code = main(["run", str(input_path), "--out", str(out)])
        assert code == 0
        assert (out / "results.csv").exists()
        assert (out / "results.svg").exists()
        assert (out / "manifest.json").exists()
        printed = capsys.readouterr().out
        assert "results.csv" in printed

    def test_csv_has_one_row_per_step_plus_initial(self, tmp_path):
        input_path = write_input(tmp_path, SMALL_REAL_TIME)
        out = tmp_path / "out"
        main(["run", str(input_path), "--out", str(out)])
        points = read_csv(out / "results.csv")
        assert len(points) == 6
        np.testing.assert_allclose([p[0] for p in points], np.linspace(0, 1, 6))

    def test_initial_value_matches_preparation(self, tmp_path):
        input_path = write_input(tmp_path, SMALL_REAL_TIME)
        out = tmp_path / "out"
        main(["run", str(input_path), "--out", str(out)])
        points = read_csv(out / "results.csv")
        # one down spin out of two: average z magnetization 0
        assert points[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_manifest_reflects_run(self, tmp_path):
        input_path = write_input(tmp_path, SMALL_IMAGINARY)
        out = tmp_path / "out"
        main(["run", str(input_path), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == "imaginary-time"
        assert manifest["observable"] == "energy"
        assert manifest["seed"] == 3
        assert "results.csv" in manifest["output_files"]
        assert "num_spins: 2" in manifest["config"]

    def test_manifest_version_is_the_pyproject_version(self, tmp_path):
        # a run from a source checkout, with no installed distribution to
        # look the version up in
        input_path = write_input(tmp_path, SMALL_REAL_TIME)
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        command = [sys.executable, "-m", "spinsim.cli", "run", str(input_path), "--out", str(out)]
        subprocess.run(command, cwd=tmp_path, env=env, check=True, capture_output=True)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"] == "0.1.0"
        # pyproject.toml takes its version from the package, its one source
        pyproject = (ROOT / "pyproject.toml").read_text()
        assert re.search(r'^dynamic = \["version"\]$', pyproject, re.M)
        assert re.search(r'^version = \{attr = "spinsim\.__version__"\}$', pyproject, re.M)
        init = (ROOT / "src" / "spinsim" / "__init__.py").read_text()
        assert re.search(r'^__version__ = "0\.1\.0"$', init, re.M)

    @pytest.mark.parametrize("backend_mode", ["QS", "export-only"])
    def test_real_time_diagnostics_hold_the_last_state_drift(self, tmp_path, backend_mode):
        input_path = write_input(tmp_path, SMALL_REAL_TIME + f"QCQS: {backend_mode}\n")
        out = tmp_path / "out"
        assert main(["run", str(input_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        if backend_mode == "export-only":  # nothing was simulated
            assert manifest["diagnostics"] == {"max_sigma": None, "norm_drift": None}
            return
        cfg = parse_input(SMALL_REAL_TIME)
        params = TrotterParams(cfg.total_time, cfg.num_steps)
        blocks = step_blocks(build_hamiltonian(cfg), params, cli._compile(cfg))
        *_, last = trotter.evolve_series(cfg.initial_state, blocks)
        drift = backend.checked_norm_drift(last)
        assert manifest["diagnostics"] == {"max_sigma": None, "norm_drift": drift}

    @pytest.mark.parametrize("shots", [0, 400], ids=["exact", "sampled"])
    @pytest.mark.parametrize(
        "text", [SMALL_REAL_TIME, SMALL_IMAGINARY], ids=["real-time", "imaginary-time"]
    )
    def test_max_sigma_is_the_largest_reported_sigma(self, tmp_path, text, shots):
        input_path = write_input(tmp_path, text + f"shots: {shots}\n")
        out = tmp_path / "out"
        assert main(["run", str(input_path), "--out", str(out)]) == 0
        max_sigma = json.loads((out / "manifest.json").read_text())["diagnostics"]["max_sigma"]
        sigmas = [sigma for _, _, sigma in read_csv(out / "results.csv")]
        if shots:
            assert max_sigma == max(sigmas) > 0.0
        else:
            assert max_sigma is None and sigmas == [None] * len(sigmas)

    def test_imaginary_time_diagnostics_hold_each_fit(self, tmp_path):
        input_path = write_input(tmp_path, SMALL_IMAGINARY)
        out = tmp_path / "out"
        assert main(["run", str(input_path), "--out", str(out)]) == 0
        diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
        cfg = parse_input(SMALL_IMAGINARY)
        params = QiteParams(dbeta=cfg.total_time / cfg.num_steps, num_steps=cfg.num_steps, seed=3)
        reports = run_qite(build_hamiltonian(cfg), params, cfg.initial_state)
        assert diagnostics["norm_drift"] == reports[-1].norm_drift <= backend.NORM_DRIFT_BUDGET
        fits = [(r.step, r.residual, r.normalization) for r in reports[1:]]
        steps = diagnostics["qite_steps"]
        assert [(f["step"], f["residual"], f["normalization"]) for f in steps] == fits
        assert [sorted(f) for f in steps] == [["normalization", "residual", "step"]] * 5

    def test_imaginary_axis_is_beta_and_energy_decreases(self, tmp_path):
        input_path = write_input(tmp_path, SMALL_IMAGINARY)
        out = tmp_path / "out"
        main(["run", str(input_path), "--out", str(out)])
        points = read_csv(out / "results.csv")
        assert points[-1][0] == pytest.approx(1.5)
        energies = [p[1] for p in points]
        assert energies[-1] < energies[0]


class TestExitCodes:
    def test_bad_config_exits_two(self, tmp_path, capsys):
        input_path = write_input(tmp_path, "num_spins: 2\nmode: sideways\n")
        assert main(["run", str(input_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_key_exits_two(self, tmp_path):
        input_path = write_input(tmp_path, "num_spins: 2\nfoo: 1\n")
        assert main(["run", str(input_path)]) == 2

    def test_constant_depth_exits_three(self, tmp_path, capsys):
        text = SMALL_REAL_TIME + "constant_depth: True\n"
        input_path = write_input(tmp_path, text)
        assert main(["run", str(input_path)]) == 3
        assert "constant_depth" in capsys.readouterr().err

    def test_too_many_spins_exits_four(self, tmp_path, capsys):
        text = "num_spins: 25\ntotal_time: 0.1\nnum_steps: 1\nJ_z: 1.0\n"
        input_path = write_input(tmp_path, text)
        assert main(["run", str(input_path), "--out", str(tmp_path / "o")]) == 4
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("backend_mode", ["QS", "export-only"])
    def test_huge_chain_exits_four_before_building_sites(self, tmp_path, backend_mode):
        # without the cap, ("up",) * num_spins alone would ask for 8 GB
        text = f"num_spins: 1000000000\nJ_z: 1.0\nQCQS: {backend_mode}\n"
        input_path = write_input(tmp_path, text)
        out = tmp_path / "o"

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

        result = subprocess.run(
            [sys.executable, "-m", "spinsim.cli", "run", str(input_path), "--out", str(out)],
            # one BLAS thread, so numpy's own buffers fit the cap on any core count
            env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=limit_address_space,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 4, result.stderr
        assert result.stderr.count("\n") == 1
        assert "num_spins is limited to 4096" in result.stderr
        assert not out.exists()

    def test_missing_input_exits_five(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.txt")]) == 5
        assert "cannot read" in capsys.readouterr().err

    def test_undecodable_input_exits_two(self, tmp_path, capsys):
        for mark in (b"", b"\xef\xbb\xbf"):
            input_path = tmp_path / "bad.txt"
            input_path.write_bytes(mark + b"num_spins: 2\n\xff\xfe\n")
            assert main(["run", str(input_path), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {input_path} is not UTF-8 text:")
            assert err.count("\n") == 1
            assert "Traceback" not in err
            assert not (tmp_path / "o").exists()

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # with CRLF line endings too: the tutorial's artifacts, byte for byte
        plain = LOCALIZATION.read_bytes()
        marked = tmp_path / "marked.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.replace(b"\n", b"\r\n"))
        assert main(["run", str(LOCALIZATION), "--out", str(tmp_path / "plain")]) == 0
        assert main(["run", str(marked), "--out", str(tmp_path / "marked")]) == 0
        for name in ("results.csv", "results.svg", "manifest.json"):
            want = (tmp_path / "plain" / name).read_bytes()
            assert (tmp_path / "marked" / name).read_bytes() == want, name

    @pytest.mark.parametrize(
        "text",
        [
            "\ufeff" + SMALL_REAL_TIME,
            SMALL_REAL_TIME.replace("mode:", "\ufeffmode:"),
            SMALL_REAL_TIME.replace("num_steps: 5", "num_steps: 5\ufeff"),
        ],
        ids=["second-mark", "line-start", "value-end"],
    )
    def test_a_mark_after_the_start_is_a_parse_error(self, tmp_path, capsys, text):
        input_path = tmp_path / "input.txt"
        input_path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert main(["run", str(input_path), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {input_path}: ")

    @pytest.mark.parametrize(
        "text",
        [
            "num_spins: 2\nmode: imaginary-time\ntotal_time: 0\nJ_z: 1\n",
            "num_spins: 2\nJ_z: 1e400\n",
            "num_spins: 2\ntotal_time: 1e308\nJ_z: 10\nnum_steps: 1\n",
            "num_spins: 2\nmode: imaginary-time\nh_x: 1e200\nnum_steps: 1\n",
            "num_spins: 2\nmode: imaginary-time\ntotal_time: 1e308\nJ_z: 1\nnum_steps: 1\n",
            # the exact reference has no surviving overlap with the up state
            "num_spins: 1\nmode: imaginary-time\nh_z: 1\ntotal_time: 1000\nnum_steps: 1\n",
            # one QITE step of dbeta = 1 collapses the step normalization to 0
            "num_spins: 1\nmode: imaginary-time\nh_z: 1\ntotal_time: 1\nnum_steps: 1\n",
            f"num_spins: 2\nJ_z: 1\nnum_steps: {sys.maxsize}\n",
        ],
        ids=[
            "imaginary-zero-time",
            "infinite-coupling",
            "angle-overflow",
            "qite-angle-overflow",
            "qite-dbeta-overflow",
            "zero-overlap",
            "singular-qite-step",
            "num-steps-at-maxsize",
        ],
    )
    def test_numeric_edge_cases_exit_two(self, tmp_path, capsys, text):
        input_path = write_input(tmp_path, text)
        code = main(["run", str(input_path), "--out", str(tmp_path / "o"), "--ground-truth"])
        assert code == 2
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, module, name",
        [(SMALL_REAL_TIME, trotter, "run_fused"), (SMALL_IMAGINARY, qite, "pauli_rotations")],
        ids=["real-time", "imaginary-time"],
    )
    def test_norm_drift_over_budget_exits_two(
        self, tmp_path, capsys, monkeypatch, text, module, name
    ):
        advance = getattr(module, name)

        def scaled(*args, **kwargs):
            result = advance(*args, **kwargs)
            states = result if isinstance(result, list) else [result]
            for state in states:
                state.amplitudes[...] *= 1.0 + 1e-6
            return result

        monkeypatch.setattr(module, name, scaled)
        input_path = write_input(tmp_path, text)
        out = tmp_path / "o"
        assert main(["run", str(input_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "norm drifted from 1" in err
        assert not out.exists()

    def test_ground_truth_size_checked_before_simulating(self, tmp_path, capsys):
        input_path = write_input(tmp_path, "num_spins: 12\nJ_z: 1.0\nnum_steps: 1\n")
        out = tmp_path / "o"
        assert main(["run", str(input_path), "--out", str(out), "--ground-truth"]) == 4
        assert "--ground-truth" in capsys.readouterr().err
        assert not out.exists()


class TestBenchmarkTracer:
    def test_every_wrapped_name_is_still_called(self, tmp_path):
        # perfbench/spans.py replaces functions by name in spinsim.cli and
        # spinsim.qite; a name that left either module fails here
        sampled = "num_spins: 3\ntotal_time: 0.6\nnum_steps: 2\nJ_z: 1.0\nh_x: 0.9\n"
        sampled += "observable: energy\nshots: 200\nrng_seed: 4\n"
        inputs = [
            write_input(tmp_path, sampled + "mode: imaginary-time\n", "qite.txt"),
            write_input(tmp_path, sampled + "J_x: 0.5\n", "real.txt"),
        ]
        script = textwrap.dedent(
            """
            import sys
            root, *inputs = sys.argv[1:]
            sys.path[:0] = [root + "/perfbench", root + "/src"]
            import spans
            import spinsim.cli
            tracer = spans.Tracer("t")
            tracer.install()
            for path in inputs:
                out = path + ".out"
                assert spinsim.cli.main(["run", path, "--out", out, "--export"]) == 0, path
            names = {span[0] for span in tracer.spans}
            # per-point reads go through backend.ReadPlan, which no span wraps
            assert {"qite", "observables"} <= names, names
            assert tracer.gates, "no gate went through the wrapped apply_gate"
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(ROOT), *map(str, inputs)],
            cwd=tmp_path,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr


CONSTANT_ENERGY = """\
num_spins: 6
mode: real-time
total_time: 1.0
num_steps: 10
J_x: 1.0
J_y: 1.0
J_z: 0.5
h_z: 0.3, -0.2, 0.1, 0.4, -0.5, 0.2
initial_state: flip-first
observable: energy
"""


RANDOM_QITE = """\
num_spins: 4
mode: imaginary-time
total_time: 1.2
num_steps: 4
J_z: 1.0
h_x: random-uniform(0.8, 1.2)
observable: energy
rng_seed: 18446744073709551621
"""


class TestRandomImport:
    @pytest.mark.parametrize(
        "text, imported",
        [
            (CONSTANT_ENERGY, False),
            (CONSTANT_ENERGY + "h_x: random-uniform(-1, 1)\n", False),
            (CONSTANT_ENERGY + "h_x: random-uniform(-1, 1, 100000000000000000000003)\n", False),
            (RANDOM_QITE, False),
            (CONSTANT_ENERGY + "shots: 100\n", True),
        ],
        ids=["constant-exact", "random-uniform", "schedule-seed", "random-qite", "sampled"],
    )
    def test_only_a_run_that_draws_imports_numpy_random(self, tmp_path, text, imported):
        # numpy imports numpy.random lazily, on first use; coefficient draws
        # replay its streams in plain integers, so only drawing shots imports it
        path = write_input(tmp_path, text)
        script = """
            import sys
            root, path, out = sys.argv[1:]
            sys.path[:0] = [root + "/src"]
            import spinsim.cli
            assert spinsim.cli.main(["run", path, "--out", out, "--export", "--ground-truth"]) == 0
            print("numpy.random" in sys.modules)
            """
        result = run_python(script, path, tmp_path / "out", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == str(imported)

    def test_an_exact_run_imports_only_what_argparse_needs(self, tmp_path):
        # argparse's messages go through gettext, which imports locale; the input
        # is read with the utf-8 codec loaded at start-up, not "utf-8-sig"'s
        script = """
            import sys
            root, path, out = sys.argv[1:]
            sys.path[:0] = [root + "/src"]
            import spinsim.cli
            before = set(sys.modules)
            assert spinsim.cli.main(["run", path, "--out", out, "--export", "--ground-truth"]) == 0
            print(" ".join(sorted(set(sys.modules) - before)))
            """
        result = run_python(script, LOCALIZATION, tmp_path / "out", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert set(result.stdout.splitlines()[-1].split()) <= {"locale", "_locale"}

    def test_the_package_does_not_import_dataclasses(self):
        # dataclasses generates and compiles code for each class it makes, at
        # every start; spinsim's value types subclass spinsim.value.Value instead
        code = "import sys, spinsim.cli; print('dataclasses' in sys.modules)"
        command = [sys.executable, "-c", code]
        result = subprocess.run(command, cwd=ROOT / "src", capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "False"


class TestCollector:
    """``main`` freezes what is alive at its start for the call alone; each test
    runs in a fresh interpreter, away from pytest's own collector state."""

    # one call per exit path: a run, a config error, a missing input, a bad flag
    CALLS = """
        import gc, sys
        root, good, bad, out = sys.argv[1:]
        sys.path[:0] = [root + "/src"]
        import spinsim.cli

        def call(*argv):
            try:
                return spinsim.cli.main(["run", *argv])
            except SystemExit as exc:
                return exc.code

        calls = [
            (good, "--out", out),
            (bad, "--out", out),
            (out + "/absent.txt",),
            (good, "--no-such-flag"),
        ]
        """

    def calls(self, tmp_path, script):
        good = write_input(tmp_path, SMALL_REAL_TIME, "good.txt")
        bad = write_input(tmp_path, "num_spins: two\n", "bad.txt")
        result = run_python(self.CALLS + script, good, bad, tmp_path / "out", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        return result.stdout.splitlines()

    @pytest.mark.parametrize("caller_frozen", [False, True], ids=["unfrozen", "frozen"])
    def test_the_freeze_count_is_the_same_after_every_exit(self, tmp_path, caller_frozen):
        # a process's first calls free a few objects by reference count, abc's
        # negative-cache entries among them, frozen or not: so a caller freezes
        # only after one call of each kind
        script = f"""
        if {caller_frozen}:
            for argv in calls:
                call(*argv)
            gc.freeze()
        for argv in calls:
            before = gc.get_freeze_count()
            code = call(*argv)
            print("exit", code, before, gc.get_freeze_count())
        """
        lines = [line.split()[1:] for line in self.calls(tmp_path, script) if line[:4] == "exit"]
        assert [code for code, _, _ in lines] == ["0", "2", "5", "2"]
        for _, before, after in lines:
            assert after == before
            assert (int(before) > 0) == caller_frozen

    @pytest.mark.parametrize("caller_frozen", [False, True], ids=["unfrozen", "frozen"])
    def test_a_cycle_made_before_the_calls_is_reclaimed_unless_the_caller_froze_it(
        self, tmp_path, caller_frozen
    ):
        script = f"""
        import weakref

        class Node:
            pass

        node = Node()
        node.self = node
        finalizer = weakref.finalize(node, lambda: None)
        del node
        if {caller_frozen}:
            gc.freeze()
        alive = [finalizer.alive]
        for argv in calls:
            call(*argv)
        gc.collect()
        print(*alive, finalizer.alive)
        """
        # the cycle is garbage before the calls, so each call freezes it with
        # the rest; a full collection after them finds it, if the caller did not
        assert self.calls(tmp_path, script)[-1] == f"True {caller_frozen}"


WIDE_ENERGY = """\
num_spins: 20
mode: real-time
total_time: 1.0
num_steps: 1
J_x: 1.0
J_y: 1.0
J_z: 0.5
h_x: linear-ramp(0, 0.6)
h_z: random-uniform(-1, 1)
initial_state: flip-first
observable: energy
rng_seed: 2
"""

QITE_TFIM = """\
num_spins: 7
mode: imaginary-time
total_time: 3.6
num_steps: 12
J_z: 1.0
h_x: random-uniform(0.8, 1.2)
initial_state: all-up
observable: energy
rng_seed: 2
"""


# J_y ramps to 0: each bond's x mask holds xx and yy until t = 1, and xx alone there
BOND_RAMP_11 = """\
num_spins: 11
mode: real-time
total_time: 1.0
num_steps: 3
J_x: 1.0
J_y: linear-ramp(1, 0)
J_z: 0.5
h_z: random-uniform(-1, 1)
initial_state: up,down,up,down,up,down,up,down,up,down,up
observable: energy
rng_seed: 5
"""


def read_routes(text: str, reads: str) -> dict[str, int]:
    """How many x masks of one exact read set take each route.

    ``reads`` is "t=<time>" for the observable at that time, "fit" for a
    QITE fit's reads or "terms" for QITE's energy terms.
    """
    cfg = parse_input(text)
    hamiltonian, n = build_hamiltonian(cfg), cfg.num_spins
    if reads.startswith("t="):
        terms = cli._observable_terms(cfg, hamiltonian, float(reads[2:]))
    else:
        terms = snapshot(hamiltonian, 0.0)
    plan = backend.ReadPlan([pauli_masks(t.factors, n) for t in terms], n)
    if reads == "fit":
        basis = qite.fitting_basis(terms, 0, product_state(cfg.initial_state))
        plan = qite._FitPlan(basis, terms, n, QiteParams(dbeta=0.3, num_steps=1)).reads
    return dict(Counter(plan.routes.values()))


def counted_plans(monkeypatch) -> list[list]:
    """Record the masks of every ReadPlan made from now on."""
    made, init = [], backend.ReadPlan.__init__

    def counting(plan, masks, num_qubits, shots=0):
        made.append(list(masks))
        init(plan, masks, num_qubits, shots)

    monkeypatch.setattr(backend.ReadPlan, "__init__", counting)
    return made


class TestReadPlans:
    @pytest.mark.parametrize(
        "name, reads, routes",
        [
            # the routes the workloads and tutorials read by, as before the plan
            ("localization", "t=3.0", {"fold": 1}),
            ("wide-chain", "t=1.0", {"fold": 1}),
            ("wide_energy", "t=0.0", {"fold": 1, "window": 19}),
            ("wide_energy", "t=1.0", {"fold": 1, "window": 39}),
            ("qite-tfim", "fit", {"tables": 64}),
            ("qite-tfim", "terms", {"fold": 1, "window": 7}),
            ("tfim", "fit", {"tables": 8}),
            ("tfim", "terms", {"fold": 1, "window": 3}),
        ],
    )
    def test_workload_reads_keep_their_routes(self, name, reads, routes):
        texts = {
            "localization": (ROOT / "scripts/inputs/localization_chain.txt").read_text(),
            "wide-chain": WIDE_ENERGY.replace("energy", "site-magnetization(z)"),
            "wide_energy": WIDE_ENERGY,
            "qite-tfim": QITE_TFIM,
            "tfim": (ROOT / "scripts/inputs/tfim_ground_state.txt").read_text(),
        }
        assert read_routes(texts[name], reads) == routes

    @pytest.mark.parametrize("observable", ["site-magnetization(z)", "energy"])
    def test_a_20_spin_run_reads_its_first_point_from_the_index(
        self, tmp_path, monkeypatch, observable
    ):
        # one step: the fold reads the state after it in one call and the window
        # in one call per x mask; no route reads the prepared product state at t = 0
        text = WIDE_ENERGY.replace("observable: energy", f"observable: {observable}")
        calls = Counter()
        for name in ("_fold_reads", "_window_reads", "_transform_reads"):
            read = getattr(backend, name)
            counted = lambda *args, _read=read, _name=name: calls.update([_name]) or _read(*args)
            monkeypatch.setattr(backend, name, counted)
        assert main(["run", str(write_input(tmp_path, text)), "--out", str(tmp_path / "o")]) == 0
        routes = read_routes(text, "t=1.0")
        assert routes["fold"] == 1 and routes.keys() <= {"fold", "window"}
        want = {"_fold_reads": 1, "_window_reads": routes.get("window", 0)}
        assert calls == {name: count for name, count in want.items() if count}

    def test_small_chain_energies_keep_the_fold(self):
        # n - 1 zz bonds and n z fields: 2n - 1 z strings, the fold's limit
        text = SMALL_REAL_TIME.replace("h_x: 1.0", "J_x: 0.5\nh_z: 0.3").replace(
            "site-magnetization(z)", "energy"
        )
        assert read_routes(text, "t=0.0") == {"fold": 1, "window": 1}
        assert read_routes(text.replace("num_spins: 2", "num_spins: 5"), "t=0.0") == {
            "fold": 1,
            "window": 4,
        }

    @pytest.mark.parametrize(
        "text, plans",
        [
            (SMALL_REAL_TIME, 1),
            (SMALL_REAL_TIME.replace("h_x: 1.0", "h_x: linear-ramp(0.5, 1)"), 1),
            (SMALL_IMAGINARY, 2),  # the fit's reads and the energy terms
            (SMALL_IMAGINARY + "shots: 50\n", 2),
        ],
    )
    def test_a_run_makes_one_plan_per_read_set(self, tmp_path, monkeypatch, text, plans):
        made = counted_plans(monkeypatch)
        assert main(["run", str(write_input(tmp_path, text)), "--out", str(tmp_path)]) == 0
        assert len(made) == plans

    def test_a_ramp_from_zero_reads_through_one_plan(self, tmp_path, monkeypatch):
        # h_x is exactly 0 at t = 0: its strings are in the plan, with coefficient 0 there
        text = SMALL_REAL_TIME.replace("h_x: 1.0", "h_x: linear-ramp(0, 1)").replace(
            "site-magnetization(z)", "energy"
        )
        made = counted_plans(monkeypatch)
        batches, estimates = [], backend.ReadPlan.estimates

        def counting(plan, states, *args):
            batches.append(len(states))
            return estimates(plan, states, *args)

        monkeypatch.setattr(backend.ReadPlan, "estimates", counting)
        assert main(["run", str(write_input(tmp_path, text)), "--out", str(tmp_path)]) == 0
        cfg = parse_input(text)
        hamiltonian, dt = build_hamiltonian(cfg), cfg.total_time / cfg.num_steps
        assert [pauli_masks(t.factors, 2) for t in snapshot(hamiltonian, 0.0)] == [(0, 3)]
        assert made == [[pauli_masks(t.factors, 2) for t in snapshot(hamiltonian, dt)]]
        assert batches == [cfg.num_steps + 1]

    @pytest.mark.parametrize("shots", [0, 300])
    @pytest.mark.parametrize(
        "couplings",
        [
            "J_x: 1.0\nJ_y: 0.7\nJ_z: 0.4\nh_x: linear-ramp(0, 1)\nh_z: random-uniform(-1, 1)",
            "J_x: linear-ramp(0, 1)\nJ_z: gaussian-pulse(1, 0.5, 0.2)\nh_y: linear-ramp(1, 0)",
        ],
        ids=["field-ramp", "bond-ramp"],
    )
    def test_a_time_dependent_energy_reads_each_point_as_alone(self, couplings, shots):
        """Each point of the one plan sums its own strings in snapshot order, and a
        sampled point draws from its own seed: as a one-shot read of its terms."""
        text = f"num_spins: 4\ntotal_time: 1.0\nnum_steps: 6\n{couplings}\n"
        cfg = parse_input(text + "initial_state: flip-first\nobservable: energy\n")
        hamiltonian = build_hamiltonian(cfg)
        times = [k * cfg.total_time / cfg.num_steps for k in range(cfg.num_steps + 1)]
        states = evolve_exact(hamiltonian, times, product_state(cfg.initial_state))
        assert len({len(snapshot(hamiltonian, t)) for t in times}) > 1
        got = list(cli._read_series(cfg, hamiltonian, times, states, shots, 9))
        want = [
            backend.estimate_with_sigma(state, snapshot(hamiltonian, t), shots, derived_seed(9, k))
            for k, (t, state) in enumerate(zip(times, states))
        ]
        assert got == want

    def test_an_11_spin_bond_ramp_reads_each_point_as_alone(self):
        """The union plan reads an x mask of two strings on the route that a plan
        of the point's own strings takes for one, so every point, t = 1 among them,
        is bit-identical to a one-shot read of its own terms."""
        cfg = parse_input(BOND_RAMP_11)
        hamiltonian = build_hamiltonian(cfg)
        params = TrotterParams(cfg.total_time, cfg.num_steps)
        blocks = list(step_blocks(hamiltonian, params, cli._compile(cfg)))
        states = list(trotter.evolve_series(cfg.initial_state, blocks))
        times = [k * params.dt for k in range(len(states))]
        assert len(snapshot(hamiltonian, times[-1])) < len(snapshot(hamiltonian, 0.0))
        got = list(cli._read_series(cfg, hamiltonian, times, states, 0, 0))
        want = [
            backend.estimate_with_sigma(state, snapshot(hamiltonian, t), 0, None)
            for t, state in zip(times, states)
        ]
        assert got == want


# Candidate values per input key: (ordinary, edge).  Edge values include
# the float limits and an overflow; edge schedule lists have lengths
# that miss most chains.  num_spins <= 4 and num_steps <= 3 keep every
# run to milliseconds.
EDGE_NUMBERS = ("-1", "1e-300", "1e200", "1e308", "1e400")
FUZZ_VALUES = {
    "num_spins": (("1", "2", "3", "4"), ("0", "-2")),
    "total_time": (("0", "0.5", "1", "2"), EDGE_NUMBERS),
    "num_steps": (("1", "2", "3"), ("0", "1" + "0" * 23, "1" + "0" * 400)),
    "initial_state": (("all-up", "flip-first"), ("up,down", "down", "up,sideways")),
    "shots": (("0", "20"), ("-1", str(2**63))),
    "constant_depth": (("False",), ("True", "maybe")),
    "rng_seed": (("0", "7"), ("-1",)),
    "output_dir": (("ignored",), ("ignored",)),
}
SCHEDULE_VALUES = (
    (
        "0.5",
        "-1",
        "linear-ramp(-1, 1)",
        "gaussian-pulse(1, 0.5, 0.2)",
        "random-uniform(-1, 1)",
        "random-uniform(-1, 1, 5)",
    ),
    EDGE_NUMBERS
    + (
        "0",
        "1, -2",
        "0.5, -1, 2",
        "1, 2, 3, 4, 5",
        "constant(1e400)",
        "linear-ramp(0, 1e308)",
        "gaussian-pulse(1, 0.5, 1e-300)",
        "gaussian-pulse(1, 0.5, 0)",
        "gaussian-pulse(1e200, 0, 1)",
        "random-uniform(2, -2)",
        "random-uniform(-1e308, 1e308)",
    ),
)


def fuzz_values(key: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    if key.startswith(("J_", "h_")):
        return SCHEDULE_VALUES
    choices = INPUT_KEYS[key].choices
    return (choices, ("bogus",)) if choices else FUZZ_VALUES[key]


@st.composite
def input_texts(draw) -> str:
    lines = []
    for key in INPUT_KEYS:
        if key == "num_spins" or draw(st.booleans()):
            ordinary, edge = fuzz_values(key)
            pool = edge if draw(st.integers(0, 5)) == 0 else ordinary
            lines.append(f"{key}: {draw(st.sampled_from(pool))}")
    return "\n".join(lines) + "\n"


def run_quietly(text: str, *flags: str) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        input_path = Path(tmp) / "input.txt"
        input_path.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", str(input_path), "--out", str(Path(tmp) / "out"), *flags])
    return code, err.getvalue()


class TestFuzzedInputs:
    @given(text=input_texts())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_every_input_ends_with_a_documented_exit_code(self, text):
        for flags in ((), ("--ground-truth",)):
            code, err = run_quietly(text, *flags)
            assert code in {0, 2, 3, 4, 5}
            assert "Traceback" not in err
            if code != 0:
                assert err.count("\n") == 1, err


# Real-time inputs for the differential check: every schedule kind on
# every coupling key, every choice of the choice keys, and small
# coefficients so the dense reference stays well conditioned.
SCHEDULE_KINDS = ("constant", "list", "linear-ramp", "gaussian-pulse", "random-uniform")


@st.composite
def schedule_texts(draw, count: int, kinds: tuple[str, ...] = SCHEDULE_KINDS) -> str:
    kind = draw(st.sampled_from(kinds))
    number = st.integers(-20, 20).map(lambda v: repr(v / 10))
    if kind == "list" and count > 1:
        return ", ".join(draw(number) for _ in range(count))
    if kind == "linear-ramp":
        return f"linear-ramp({draw(number)}, {draw(number)})"
    if kind == "gaussian-pulse":
        width = draw(st.integers(2, 15)) / 10
        return f"gaussian-pulse({draw(number)}, {draw(number)}, {width!r})"
    if kind == "random-uniform":
        seed = draw(st.sampled_from(("", ", 11")))
        return f"random-uniform(-1.5, 1{seed})"
    return draw(number)


@st.composite
def real_time_texts(draw) -> str:
    num_spins = draw(st.integers(1, 6))
    lines = [f"num_spins: {num_spins}", "mode: real-time"]
    lines.append(f"total_time: {draw(st.sampled_from(('0.3', '1', '1.7')))}")
    lines.append(f"num_steps: {draw(st.integers(1, 5))}")
    for key in INPUT_KEYS:
        if key.startswith(("J_", "h_")) and draw(st.booleans()):
            count = num_spins - 1 if key.startswith("J_") else num_spins
            lines.append(f"{key}: {draw(schedule_texts(count))}")
    spins = draw(st.lists(st.sampled_from(("up", "down")), min_size=num_spins, max_size=num_spins))
    lines.append(f"initial_state: {','.join(spins)}")
    for key in ("QCQS", "observable", "optimizer_level"):
        lines.append(f"{key}: {draw(st.sampled_from(INPUT_KEYS[key].choices))}")
    return "\n".join(lines) + "\n"


class TestRealTimeDifferential:
    @given(text=real_time_texts())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_run_matches_dense_product_formula(self, text):
        # the series and the last exported circuit against a dense
        # product formula that shares neither gate routines nor circuits
        cfg = parse_input(text)
        n = cfg.num_spins
        hamiltonian = build_hamiltonian(cfg)
        states = product_formula_states(
            hamiltonian, cfg.total_time, cfg.num_steps, cfg.initial_state
        )
        with tempfile.TemporaryDirectory() as tmp:
            input_path = write_input(Path(tmp), text)
            out = Path(tmp) / "out"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["run", str(input_path), "--out", str(out), "--export"]) == 0
            circuits = sorted((out / "circuits").iterdir())
            assert len(circuits) == cfg.num_steps + 1
            last = import_text(circuits[-1].read_text())
            if cfg.backend_mode == "QS":
                points = read_csv(out / "results.csv")
        if cfg.backend_mode == "QS":
            dt = cfg.total_time / cfg.num_steps
            for k, ((_, value, _), state) in enumerate(zip(points, states, strict=True)):
                terms = cli._observable_terms(cfg, hamiltonian, k * dt)
                assert abs(value - dense_expectation(state, terms, n)) <= 1e-10, k
        got = unitary_of(last)[:, 0]
        want = states[-1]
        overlap = np.vdot(want, got)
        assert abs(got - overlap / abs(overlap) * want).max() <= 1e-10


def mirror_texts(n: int, seed: int) -> tuple[str, str]:
    """A real-time energy input with per-bond couplings, per-site x and z fields and
    a random product state, and its mirror image: every list and the state reversed."""
    rng = np.random.default_rng(seed)
    spins = rng.choice(["up", "down"], size=n).tolist()
    lists = {
        key: rng.uniform(-1, 1, size=n - 1 if key[0] == "J" else n).tolist()
        for key in ("J_x", "J_y", "J_z", "h_x", "h_z")
    }
    texts = []
    for order in (slice(None), slice(None, None, -1)):
        lines = [f"num_spins: {n}", "total_time: 0.9", "num_steps: 3", "observable: energy"]
        lines += [f"{key}: {', '.join(map(repr, values[order]))}" for key, values in lists.items()]
        texts.append("\n".join([*lines, f"initial_state: {','.join(spins[order])}"]) + "\n")
    assert texts[0] != texts[1]
    return texts[0], texts[1]


class TestMirrorRelation:
    BOUNDS = {17: 2e-14, 18: 2e-14, 20: 6e-14}

    @pytest.mark.parametrize("n", BOUNDS)
    def test_a_mirrored_chain_has_the_same_energies(self, tmp_path, n):
        """Reversing every per-bond and per-site list and the initial state maps
        each term group of the step onto itself, so the energies agree.  The
        window reads each bond's xx and yy and each site's x, and the fold the z
        strings in slices from 17 spins up; each random product state sets bits
        on both sides of the slice boundary, and the first step starts from its
        basis index.  The largest differences seen on these inputs (seed 31) were
        5.8e-15, 3.6e-15 and 2.8e-14 at 17, 18 and 20 spins, and over seeds 0 to
        15 1.6e-14, 2.1e-14 and 3.4e-14; each bound is under twice the larger of
        the two readings at its width."""
        energies = []
        for name, text in zip(("chain", "mirror"), mirror_texts(n, 31)):
            out = tmp_path / name
            with contextlib.redirect_stdout(io.StringIO()):
                path = write_input(tmp_path, text, f"{name}.txt")
                assert main(["run", str(path), "--out", str(out)]) == 0
            energies.append(np.array([value for _, value, _ in read_csv(out / "results.csv")]))
        assert len(energies[0]) == 4
        assert np.abs(energies[0] - energies[1]).max() <= self.BOUNDS[n]


def flip_texts(n: int, steps: int, seed: int, observable: str) -> tuple[str, str]:
    """A real-time input with per-bond couplings, per-site x, y and z fields and a
    random product state, and its global spin flip: h_y and h_z negated and every
    spin of the state flipped."""
    rng = np.random.default_rng(seed)
    spins = rng.choice(["up", "down"], size=n).tolist()
    lists = {
        key: rng.uniform(-1, 1, size=n - 1 if key[0] == "J" else n)
        for key in ("J_x", "J_y", "J_z", "h_x", "h_y", "h_z")
    }
    flipped = {"up": "down", "down": "up"}
    texts = []
    for flip in (False, True):
        lines = [f"num_spins: {n}", "total_time: 0.6", f"num_steps: {steps}"]
        for key, values in lists.items():
            values = -values if flip and key in ("h_y", "h_z") else values
            lines.append(f"{key}: {', '.join(map(repr, values.tolist()))}")
        state = [flipped[s] for s in spins] if flip else spins
        lines += [f"initial_state: {','.join(state)}", f"observable: {observable}"]
        texts.append("\n".join(lines) + "\n")
    return texts[0], texts[1]


class TestFlipRelation:
    @pytest.mark.parametrize("n, steps", [(17, 2), (20, 1)])
    def test_a_flipped_chain_negates_y_and_z(self, tmp_path, n, steps):
        """Conjugating by X on every qubit maps each gate of the step onto the gate of
        the flipped input (h_y and h_z negated, every spin flipped), so the energy is
        unchanged and the y and z magnetizations negate.  The window reads each
        bond's xx and yy and each site's x and y, Im e_i included, and the fold the
        z strings.  The largest differences seen were 3.3e-15 (energy) and 3.5e-16
        (y) on these inputs, and up to 3.3e-14 and 3.8e-16 over five other seeds."""
        for observable, sign, bound in (
            ("energy", 1.0, 1e-14),
            ("site-magnetization(y)", -1.0, 1e-15),
            ("site-magnetization(z)", -1.0, 1e-15),
        ):
            values = []
            for name, text in zip(("chain", "flip"), flip_texts(n, steps, 41 + n, observable)):
                out = tmp_path / name
                with contextlib.redirect_stdout(io.StringIO()):
                    path = write_input(tmp_path, text, f"{name}.txt")
                    assert main(["run", str(path), "--out", str(out)]) == 0
                values.append(np.array([value for _, value, _ in read_csv(out / "results.csv")]))
            assert len(values[0]) == steps + 1
            assert np.abs(values[0] - sign * values[1]).max() <= bound, observable


# imaginary-time evolution accepts only a time-independent Hamiltonian
STATIC_KINDS = ("constant", "list", "random-uniform")


@st.composite
def imaginary_time_texts(draw, y_field: bool = True) -> str:
    """Exact imaginary-time inputs on at most 4 spins, static schedules only.

    With ``y_field`` false no ``h_y`` is drawn, so H is a real matrix.
    """
    num_spins = draw(st.integers(1, 4))
    lines = [f"num_spins: {num_spins}", "mode: imaginary-time", "QCQS: QS", "shots: 0"]
    lines.append(f"total_time: {draw(st.sampled_from(('0.3', '1', '2.4')))}")
    lines.append(f"num_steps: {draw(st.integers(1, 6))}")
    for key in INPUT_KEYS:
        if key == "h_y" and not y_field:
            continue
        if key.startswith(("J_", "h_")) and draw(st.booleans()):
            count = num_spins - 1 if key.startswith("J_") else num_spins
            lines.append(f"{key}: {draw(schedule_texts(count, STATIC_KINDS))}")
    spins = draw(st.lists(st.sampled_from(("up", "down")), min_size=num_spins, max_size=num_spins))
    lines.append(f"initial_state: {','.join(spins)}")
    for key in ("observable", "optimizer_level"):
        lines.append(f"{key}: {draw(st.sampled_from(INPUT_KEYS[key].choices))}")
    return "\n".join(lines) + "\n"


class TestImaginaryTimeFloor:
    @given(text=imaginary_time_texts())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_every_energy_is_above_the_ground_level(self, text):
        cfg = parse_input(text)
        terms = snapshot(build_hamiltonian(cfg), 0.0)
        ground = oracle.ground_state(terms, cfg.num_spins)[0] if terms else 0.0
        with tempfile.TemporaryDirectory() as tmp:
            input_path = write_input(Path(tmp), text)
            out = Path(tmp) / "out"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["run", str(input_path), "--out", str(out)]) == 0
            points = read_csv(out / "results.csv")
        assert len(points) == cfg.num_steps + 1
        for _, energy, _ in points:
            assert energy >= ground - 1e-9

    @given(text=imaginary_time_texts(y_field=False))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_real_inputs_keep_a_real_state(self, text):
        # a real H and an up/down start fit on the odd-y basis, whose
        # rotations are real orthogonal
        cfg = parse_input(text)
        params = QiteParams(dbeta=cfg.total_time / cfg.num_steps, num_steps=cfg.num_steps)
        state = None
        for report in run_qite(build_hamiltonian(cfg), params, cfg.initial_state):
            state = run_statevector(report.program, initial=state)
            assert np.abs(state.amplitudes.imag).max() <= 1e-12, report.step


class TestCircuitExport:
    def test_each_distinct_line_of_a_static_export_is_formatted_once(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "export_line", lambda gate: calls.append(gate) or export_line(gate))
        input_path = write_input(tmp_path, SMALL_REAL_TIME)
        out = tmp_path / "out"
        assert main(["run", str(input_path), "--out", str(out), "--export"]) == 0
        lines = set()
        for path in (out / "circuits").iterdir():
            lines.update(line for line in path.read_text().splitlines() if "q[" in line)
        lines.discard("qreg q[2];")
        assert len(calls) == len(lines) > 1

    def test_the_estimate_formats_only_written_lines(self, tmp_path, monkeypatch):
        # QITE's zero coefficients become rz(0) gates, which the peephole pass
        # drops as they arrive: the estimate formats none of them
        calls = []
        monkeypatch.setattr(cli, "export_line", lambda gate: calls.append(gate) or export_line(gate))
        input_path = write_input(tmp_path, SMALL_IMAGINARY)
        out = tmp_path / "out"
        assert main(["run", str(input_path), "--out", str(out), "--export"]) == 0
        lines = set()
        for path in (out / "circuits").iterdir():
            lines.update(line for line in path.read_text().splitlines() if "q[" in line)
        lines.discard("qreg q[2];")
        assert len(calls) == len(lines) == 34

    def test_signed_zero_angles_keep_their_own_lines(self):
        # QITE's zero coefficients reach the export when the peephole pass is off
        cfg = parse_input(SMALL_REAL_TIME + "optimizer_level: none\n")
        steps = [(ir.rz(0.0, 0), ir.rz(-0.0, 0)), (ir.rz(-0.0, 0), ir.rz(0.0, 0), ir.h(0))]
        line = cli._line_formatter()
        size = cli._export_bytes(cfg, steps, line)
        texts = list(cli._cumulative_circuits(cfg, steps, line))
        body = "rz(0) q[0];\nrz(-0) q[0];\nrz(-0) q[0];\nrz(0) q[0];\nh q[0];\n"
        assert texts[-1] == export_frame(2, measured=False)[0] + body
        assert size == sum(map(len, texts))

    def test_export_flag_writes_one_circuit_per_step(self, tmp_path):
        input_path = write_input(tmp_path, SMALL_REAL_TIME)
        out = tmp_path / "out"
        code = main(["run", str(input_path), "--out", str(out), "--export"])
        assert code == 0
        files = sorted(p.name for p in (out / "circuits").iterdir())
        assert files == [f"step_{k:04d}.qasm" for k in range(6)]
        text = (out / "circuits" / "step_0001.qasm").read_text()
        assert text.startswith("OPENQASM 2.0;")

    @pytest.mark.parametrize(
        "text",
        [
            SMALL_REAL_TIME,
            SMALL_REAL_TIME + "QCQS: export-only\n",
            SMALL_IMAGINARY,
            SMALL_IMAGINARY + "QCQS: export-only\n",
        ],
        ids=["real-time", "export-only", "imaginary-time", "imaginary-export-only"],
    )
    def test_each_circuit_is_written_before_the_next_is_built(self, tmp_path, monkeypatch, text):
        out = tmp_path / "out"
        cumulative = cli._cumulative_circuits
        yielded = []

        def streaming(cfg, steps, line):
            for k, circuit in enumerate(cumulative(cfg, steps, line)):
                if k > 0:
                    assert (out / "circuits" / f"step_{k - 1:04d}.qasm").exists(), k
                yielded.append(k)
                yield circuit

        monkeypatch.setattr(cli, "_cumulative_circuits", streaming)
        input_path = write_input(tmp_path, text)
        assert main(["run", str(input_path), "--out", str(out), "--export"]) == 0
        assert len(yielded) == len(list((out / "circuits").iterdir())) > 1

    def test_export_only_skips_simulation_artifacts(self, tmp_path):
        text = SMALL_REAL_TIME + "QCQS: export-only\n"
        input_path = write_input(tmp_path, text)
        out = tmp_path / "out"
        code = main(["run", str(input_path), "--out", str(out)])
        assert code == 0
        assert not (out / "results.csv").exists()
        assert not (out / "results.svg").exists()
        assert (out / "manifest.json").exists()
        assert (out / "circuits" / "step_0005.qasm").exists()

    @pytest.mark.parametrize(
        "text",
        [
            SMALL_REAL_TIME,
            SMALL_REAL_TIME + "optimizer_level: none\n",
            SMALL_REAL_TIME.replace("num_spins: 2", "num_spins: 3") + "h_z: linear-ramp(0, 2)\n",
        ],
        ids=["static", "unoptimized", "ramp"],
    )
    def test_exported_circuits_match_simulated_blocks(self, tmp_path, text):
        # circuit k is the preparation plus the k step blocks the series
        # simulates, up to global phase
        cfg = parse_input(text)
        input_path = write_input(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(input_path), "--out", str(out), "--export"]) == 0

        params = TrotterParams(cfg.total_time, cfg.num_steps)
        blocks = list(step_blocks(build_hamiltonian(cfg), params, cli._compile(cfg)))
        gates = list(state_preparation_gates(cfg.initial_state))
        for k in range(cfg.num_steps + 1):
            if k > 0:
                gates += blocks[k - 1].gates
            exported = import_text((out / "circuits" / f"step_{k:04d}.qasm").read_text())
            simulated = Program(cfg.num_spins, tuple(gates))
            distance = phase_aligned_distance(unitary_of(exported), unitary_of(simulated))
            assert distance <= 1e-12, k

    @pytest.mark.parametrize(
        "text",
        [
            SMALL_REAL_TIME,
            SMALL_REAL_TIME + "optimizer_level: none\n",
            SMALL_REAL_TIME.replace("num_spins: 2", "num_spins: 3")
            + "h_z: linear-ramp(0, 2)\nshots: 50\n",
            SMALL_REAL_TIME.replace("h_x: 1.0", "h_x: gaussian-pulse(1.5, 0.5, 0.2)"),
            SMALL_IMAGINARY.replace("num_spins: 2", "num_spins: 3"),
            SMALL_IMAGINARY + "initial_state: down,up\noptimizer_level: none\n",
            SMALL_IMAGINARY + "QCQS: export-only\n",
        ],
        ids=[
            "static",
            "unoptimized",
            "ramp-measured",
            "gaussian-pulse",
            "imaginary",
            "imaginary-prepared-unoptimized",
            "imaginary-export-only",
        ],
    )
    def test_exported_circuits_equal_from_scratch_compiles(self, tmp_path, text):
        # carrying circuit k-1 forward gives the bytes of compiling the
        # whole cumulative program from t = 0
        cfg = parse_input(text)
        input_path = write_input(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(input_path), "--out", str(out), "--export"]) == 0
        hamiltonian = build_hamiltonian(cfg)
        if cfg.mode == "real-time":
            params = TrotterParams(cfg.total_time, cfg.num_steps)
            programs = [
                build_evolution_program(hamiltonian, params, k, cfg.initial_state)
                for k in range(cfg.num_steps + 1)
            ]
        else:
            dbeta = cfg.total_time / cfg.num_steps
            params = QiteParams(dbeta=dbeta, num_steps=cfg.num_steps, seed=cfg.rng_seed)
            # circuit k chains the programs of reports 0..k
            reports = run_qite(hamiltonian, params, cfg.initial_state)
            steps = accumulate(r.program.gates for r in reports)
            programs = [Program(cfg.num_spins, gates) for gates in steps]
        assert len(list((out / "circuits").iterdir())) == len(programs)
        for k, program in enumerate(programs):
            compiled = cli._compile(cfg)(program)
            want = export_text(Program(cfg.num_spins, compiled.gates, measured=cfg.shots > 0))
            assert (out / "circuits" / f"step_{k:04d}.qasm").read_text() == want, k

    def test_each_step_block_compiles_once(self, tmp_path, monkeypatch):
        # 12 distinct ramp blocks, shared by the simulation and the export,
        # plus the preparation; the export lowers none of them again
        text = (
            SMALL_REAL_TIME.replace("num_spins: 2", "num_spins: 4")
            .replace("num_steps: 5", "num_steps: 12")
            .replace("h_x: 1.0", "h_x: linear-ramp(0, 1)")
        )
        lower = cli.lower_to_native
        calls = []

        def counting(program):
            calls.append(program)
            return lower(program)

        monkeypatch.setattr(cli, "lower_to_native", counting)
        input_path = write_input(tmp_path, text)
        assert main(["run", str(input_path), "--out", str(tmp_path / "out"), "--export"]) == 0
        assert len(calls) == 13

    def test_time_dependent_export_builds_each_step_once(self, tmp_path, monkeypatch):
        # the simulation and the export read one list of the 12 ramp blocks
        text = (
            SMALL_REAL_TIME.replace("num_spins: 2", "num_spins: 4")
            .replace("num_steps: 5", "num_steps: 12")
            .replace("h_x: 1.0", "h_x: linear-ramp(0, 1)")
        )
        build = trotter.trotter_step
        calls = []

        def counting(hamiltonian, t_eval, dt):
            calls.append(t_eval)
            return build(hamiltonian, t_eval, dt)

        monkeypatch.setattr(trotter, "trotter_step", counting)
        input_path = write_input(tmp_path, text)
        assert main(["run", str(input_path), "--out", str(tmp_path / "out"), "--export"]) == 0
        assert len(calls) == 12

    @pytest.mark.parametrize(
        "text",
        [SMALL_REAL_TIME, SMALL_IMAGINARY + "QCQS: export-only\n"],
        ids=["real-time", "imaginary-export-only"],
    )
    def test_export_over_the_byte_limit_exits_four_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys, text
    ):
        input_path = write_input(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(input_path), "--out", str(out), "--export"]) == 0
        written = sum(p.stat().st_size for p in (out / "circuits").iterdir())
        capsys.readouterr()

        monkeypatch.setattr(cli, "EXPORT_BYTE_LIMIT", written // 2)
        again = tmp_path / "again"
        assert main(["run", str(input_path), "--out", str(again), "--export"]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "limit" in err
        assert not again.exists()

    def test_export_lowers_each_step_once(self, tmp_path, monkeypatch):
        # across 20 steps of a static chain, lowering sees the step block
        # once and the preparation once, both with the run's compile step;
        # the export appends the compiled gates and lowers nothing
        text = SMALL_REAL_TIME.replace("num_steps: 5", "num_steps: 20")
        cfg = parse_input(text)
        dt = TrotterParams(cfg.total_time, cfg.num_steps).dt
        raw = trotter_step(build_hamiltonian(cfg), step_midpoint(1, dt), dt)
        block = cli._compile(cfg)(raw)
        preparation = state_preparation_gates(cfg.initial_state)
        lower = cli.lower_to_native
        lowered = []

        def counting(program):
            lowered.append(len(program.gates))
            return lower(program)

        monkeypatch.setattr(cli, "lower_to_native", counting)
        input_path = write_input(tmp_path, text)
        assert main(["run", str(input_path), "--out", str(tmp_path / "out"), "--export"]) == 0
        assert len(preparation) > 0
        assert block.gates
        assert lowered == [len(raw.gates), len(preparation)]

    @pytest.mark.parametrize("level", ["peephole", "none"])
    def test_qite_export_lowers_only_the_preparation(self, tmp_path, monkeypatch, level):
        # every report's program after the first is native already
        text = SMALL_IMAGINARY + f"initial_state: up,down\noptimizer_level: {level}\n"
        lower = cli.lower_to_native
        lowered = []

        def counting(program):
            lowered.append(program.gates)
            return lower(program)

        monkeypatch.setattr(cli, "lower_to_native", counting)
        input_path = write_input(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(input_path), "--out", str(out), "--export"]) == 0
        assert lowered == [(ir.x(1),)]
        first = (out / "circuits" / "step_0000.qasm").read_text()
        assert first == export_text(Program(2, (ir.rx(math.pi, 1),)))

    @given(
        pieces=cut_programs(num_qubits=3),
        level=st.sampled_from(["peephole", "none"]),
        shots=st.sampled_from([0, 50]),
    )
    @settings(max_examples=150, deadline=None)
    # a rotation merged into a gate of an earlier piece, whose line changes
    @example(pieces=[(ir.rz(0.3, 0), ir.h(1)), (ir.rz(0.4, 0),)], level="peephole", shots=50)
    def test_emitted_text_equals_export_of_each_compiled_prefix(self, pieces, level, shots):
        # the run hands the export pieces compiled alone, as the step blocks are
        text = SMALL_REAL_TIME.replace("num_spins: 2", "num_spins: 3")
        cfg = parse_input(text + f"optimizer_level: {level}\nshots: {shots}\n")
        compile_program = cli._compile(cfg)
        pieces = [compile_program(Program(3, piece)).gates for piece in pieces]
        texts = list(cli._cumulative_circuits(cfg, pieces, cli._line_formatter()))
        assert len(texts) == len(pieces)
        fed = ()
        for piece, emitted in zip(pieces, texts):
            fed += piece
            compiled = compile_program(Program(3, fed))
            assert emitted == export_text(Program(3, compiled.gates, measured=shots > 0))

    def test_exported_circuits_are_native_only(self, tmp_path):
        input_path = write_input(tmp_path, SMALL_REAL_TIME)
        out = tmp_path / "out"
        main(["run", str(input_path), "--out", str(out), "--export"])
        text = (out / "circuits" / "step_0005.qasm").read_text()
        ops = {
            line.split()[0].split("(")[0]
            for line in text.splitlines()
            if line.strip() and not line.startswith(("OPENQASM", "include", "qreg", "creg"))
        }
        assert ops <= {"rz", "rx", "h", "cx", "measure"}


class TestGroundTruth:
    def test_adds_reference_column(self, tmp_path):
        input_path = write_input(tmp_path, SMALL_REAL_TIME)
        out = tmp_path / "out"
        code = main(["run", str(input_path), "--out", str(out), "--ground-truth"])
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "axis,observable,sigma,ground_truth"

    def test_reference_tracks_trotter_series(self, tmp_path):
        input_path = write_input(tmp_path, SMALL_REAL_TIME)
        out = tmp_path / "out"
        main(["run", str(input_path), "--out", str(out), "--ground-truth"])
        lines = (out / "results.csv").read_text().splitlines()[1:]
        for line in lines:
            cells = line.split(",")
            assert abs(float(cells[1]) - float(cells[3])) <= 0.05

    @pytest.mark.parametrize(
        "text", [SMALL_REAL_TIME, SMALL_IMAGINARY], ids=["real-time", "imaginary-time"]
    )
    def test_static_reference_diagonalizes_once(self, tmp_path, monkeypatch, text):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(oracle, "dense_matrix", counted("dense_matrix", oracle.dense_matrix))
        monkeypatch.setattr(oracle.np.linalg, "eigh", counted("eigh", oracle.np.linalg.eigh))
        input_path = write_input(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(input_path), "--out", str(out), "--ground-truth"]) == 0
        assert sorted(calls) == ["dense_matrix", "eigh"]

    def test_time_dependent_reference_is_linear_in_steps(self, tmp_path, monkeypatch):
        text = SMALL_REAL_TIME.replace("h_x: 1.0", "h_x: linear-ramp(-1, 2)")
        input_path = write_input(tmp_path, text)
        out = tmp_path / "out"
        propagate = oracle._propagate
        propagations = []

        def counting(matrix, dt, amps):
            propagations.append(dt)
            return propagate(matrix, dt, amps)

        monkeypatch.setattr(oracle, "_propagate", counting)
        assert main(["run", str(input_path), "--out", str(out), "--ground-truth"]) == 0
        cfg = parse_input(text)
        assert len(propagations) == 10 * cfg.num_steps
        monkeypatch.undo()

        hamiltonian = build_hamiltonian(cfg)
        initial = product_state(cfg.initial_state)
        magnetization = site_magnetization_observable(cfg.num_spins, "z")
        lines = (out / "results.csv").read_text().splitlines()[1:]
        assert len(lines) == cfg.num_steps + 1
        for k, line in enumerate(lines):
            cells = line.split(",")
            [state] = evolve_exact(
                hamiltonian, [float(cells[0])], initial, substeps=max(10 * k, 1)
            )
            assert abs(float(cells[3]) - expectation(state, magnetization)) <= 1e-12

    def test_imaginary_reference_matches_final_energy(self, tmp_path):
        input_path = write_input(tmp_path, SMALL_IMAGINARY)
        out = tmp_path / "out"
        main(["run", str(input_path), "--out", str(out), "--ground-truth"])
        lines = (out / "results.csv").read_text().splitlines()[1:]
        last = lines[-1].split(",")
        assert abs(float(last[1]) - float(last[3])) <= 0.05


class TestDeterminism:
    def test_same_seed_gives_identical_bytes(self, tmp_path):
        input_path = write_input(tmp_path, SMALL_REAL_TIME)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", str(input_path), "--out", str(out_a)])
        main(["run", str(input_path), "--out", str(out_b)])
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
        assert (out_a / "results.svg").read_bytes() == (out_b / "results.svg").read_bytes()

    def test_shots_runs_reproducible(self, tmp_path):
        text = SMALL_REAL_TIME + "shots: 200\n"
        input_path = write_input(tmp_path, text)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", str(input_path), "--out", str(out_a)])
        main(["run", str(input_path), "--out", str(out_b)])
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()

    def test_optimizer_does_not_change_results(self, tmp_path):
        base = write_input(tmp_path, SMALL_REAL_TIME, "base.txt")
        plain = write_input(
            tmp_path, SMALL_REAL_TIME + "optimizer_level: none\n", "plain.txt"
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", str(base), "--out", str(out_a)])
        main(["run", str(plain), "--out", str(out_b)])
        optimized = read_csv(out_a / "results.csv")
        unoptimized = read_csv(out_b / "results.csv")
        for (_, a, _), (_, b, _) in zip(optimized, unoptimized):
            assert abs(a - b) <= 1e-9


class TestOutputPrecedence:
    def test_environment_variable_used_when_no_flag(self, tmp_path, monkeypatch):
        input_path = write_input(tmp_path, SMALL_REAL_TIME)
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("SPINSIM_OUTPUT_DIR", str(env_dir))
        main(["run", str(input_path)])
        assert (env_dir / "results.csv").exists()

    def test_flag_beats_environment(self, tmp_path, monkeypatch):
        input_path = write_input(tmp_path, SMALL_REAL_TIME)
        env_dir, flag_dir = tmp_path / "from_env", tmp_path / "from_flag"
        monkeypatch.setenv("SPINSIM_OUTPUT_DIR", str(env_dir))
        main(["run", str(input_path), "--out", str(flag_dir)])
        assert (flag_dir / "results.csv").exists()
        assert not env_dir.exists()

    def test_file_key_is_fallback(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SPINSIM_OUTPUT_DIR", raising=False)
        input_path = write_input(
            tmp_path, SMALL_REAL_TIME + "output_dir: from_file\n"
        )
        main(["run", str(input_path)])
        assert (tmp_path / "from_file" / "results.csv").exists()


class TestOverrides:
    def test_seed_override_lands_in_manifest(self, tmp_path):
        input_path = write_input(tmp_path, SMALL_REAL_TIME)
        out = tmp_path / "out"
        main(["run", str(input_path), "--out", str(out), "--seed", "99"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_shots_override_adds_sigma(self, tmp_path):
        input_path = write_input(tmp_path, SMALL_REAL_TIME)
        out = tmp_path / "out"
        main(["run", str(input_path), "--out", str(out), "--shots", "500"])
        points = read_csv(out / "results.csv")
        assert all(p[2] is not None for p in points)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["shots"] == 500

    def test_exact_mode_has_empty_sigma(self, tmp_path):
        input_path = write_input(tmp_path, SMALL_REAL_TIME)
        out = tmp_path / "out"
        main(["run", str(input_path), "--out", str(out)])
        points = read_csv(out / "results.csv")
        assert all(p[2] is None for p in points)

    def test_sampled_imaginary_time_has_sigma(self, tmp_path):
        text = SMALL_IMAGINARY.replace("num_spins: 2", "num_spins: 3") + "shots: 100\n"
        input_path = write_input(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(input_path), "--out", str(out)]) == 0
        points = read_csv(out / "results.csv")
        assert all(sigma is not None and sigma > 0.0 for _, _, sigma in points)
        cfg = parse_input(text)
        initial = product_state(cfg.initial_state)
        want = expectation(initial, snapshot(build_hamiltonian(cfg), 0.0))
        _, energy, sigma = points[0]
        assert abs(energy - want) <= 5 * sigma

    def test_sampled_series_tracks_exact_series(self, tmp_path):
        input_path = write_input(tmp_path, SMALL_REAL_TIME)
        out_exact, out_shots = tmp_path / "exact", tmp_path / "shots"
        main(["run", str(input_path), "--out", str(out_exact)])
        main(["run", str(input_path), "--out", str(out_shots), "--shots", "100000"])
        exact = read_csv(out_exact / "results.csv")
        sampled = read_csv(out_shots / "results.csv")
        for (_, want, _), (_, got, sigma) in zip(exact, sampled):
            assert abs(got - want) <= 5 * max(sigma, 1e-3)
