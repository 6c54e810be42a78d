"""One ``spinsim run`` in a fresh process, as a user would start it.

Usage::

    python3 perfbench/child.py RECORD.json [--probe] [--state-probe N] [--trace TRACE.json RUN_ID] -- run INPUT ...

The parent passes ``PYTHONPATH=<checkout>/src``.  The record holds the
monotonic time at which the CLI is entered (after the interpreter started
and ``spinsim.cli`` was imported), the wall time of ``spinsim.cli.main``,
its exit code and the process's peak resident memory.  ``--probe`` stops
right after the imports, to sample set-up time alone.  ``--trace`` installs
the span recorder of ``spans.py`` and writes its spans when the run ends;
without it no wrapper is installed.

The host-speed probe of ``hostspeed.py`` runs during the imports and, in
untraced runs, during the CLI call, with a state step of ``N`` qubits when
``--state-probe N`` is given.  The record holds its samples and the CLI's
time at the reference host speed.  Traced runs are not probed, so the
probe's time never lands inside a span.
"""

import json
import sys
import time

import hostspeed

SETUP_PROBE_INTERVAL_S = 0.02
RUN_PROBE_INTERVAL_S = 0.1

_setup_probe = hostspeed.Probe()
_setup_probe.start(SETUP_PROBE_INTERVAL_S)

import spinsim.cli  # noqa: E402  (imported under the probe, as set-up time)

_setup_probe.stop()
ENTERED = time.monotonic()
_setup_probe.sample()


def peak_rss_mib() -> float:
    """High-water resident memory of this process.

    ``ru_maxrss`` is not used: across fork and exec it keeps the parent's
    high-water mark, which would charge the benchmark's own references here.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1 :]
    record_path = own[0]
    record = {
        "entered": ENTERED,
        "setup_probe": _setup_probe.summary(),
        "spinsim": spinsim.cli.__file__,
    }
    if "--probe" in own:
        with open(record_path, "w", encoding="utf-8") as out:
            json.dump(record, out)
        return 0

    tracer = None
    if "--trace" in own:
        from spans import Tracer

        at = own.index("--trace")
        trace_path, run_id = own[at + 1], own[at + 2]
        tracer = Tracer(run_id)
        tracer.install()
        entry = tracer.span("cli", spinsim.cli.main)
    else:
        entry = spinsim.cli.main

    probe = None
    if tracer is None:
        state_qubits = int(own[own.index("--state-probe") + 1]) if "--state-probe" in own else None
        probe = hostspeed.Probe(state_qubits)
    start = time.perf_counter()
    if probe is not None:
        probe.start(RUN_PROBE_INTERVAL_S)
    code = entry(cli_args)
    if probe is not None:
        probe.stop()
    elapsed = time.perf_counter() - start
    record["run_wall_s"] = elapsed
    if probe is not None:
        probe.sample()
        record["run_probe"] = probe.summary()
        record["run_wall_s"] = elapsed - probe.inside_s
        record["run_s"] = hostspeed.normalize(elapsed, record["run_probe"])
    record["exit_code"] = code
    # the probe's state array is resident throughout, so it adds its size to the peak
    record["peak_rss_mib"] = peak_rss_mib() - (probe.resident_bytes if probe is not None else 0) / 2**20
    if tracer is not None:
        tracer.measure_copy()
        tracer.write(trace_path)
    with open(record_path, "w", encoding="utf-8") as out:
        json.dump(record, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
