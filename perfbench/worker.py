"""One repetition of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --size full|tiny
                                [--trace [--spans FILE]]

Prints one JSON object on stdout: set-up and verdict times, peak resident
memory, per-operation verdicts and latencies, and with ``--trace`` the
per-layer figures.  ``run.py`` starts one of these per repetition so that
every repetition pays the import and meets cold module-level caches.

Set-up is the engine import plus ``setup()``; the workload's engine-free
inputs are made between the two and are not counted.  The reference task
runs twice before the import and twice after ``setup()``, and ``setup_s``
is the set-up time in reference units times ``REFERENCE_NOMINAL_S``.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import tracer  # noqa: E402


def import_engine():
    """Import the engine from this checkout's ``src`` and nowhere else."""
    if not (SRC / "quatpoly" / "__init__.py").is_file():
        raise SystemExit("perfbench: no src/quatpoly in %s" % ROOT)
    sys.path.insert(0, str(SRC))
    import quatpoly

    if Path(quatpoly.__file__).resolve().parent != SRC / "quatpoly":
        raise SystemExit("perfbench: imported quatpoly from %s" % quatpoly.__file__)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    reference = [inputs.reference_seconds() for _ in range(2)]
    t0 = time.perf_counter()
    import_engine()
    import workloads
    from workloads import Raised

    t1 = time.perf_counter()
    tr = tracer.Tracer() if args.trace else None
    if tr:
        tr.install()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
    t2 = time.perf_counter()
    wl.setup()
    setup_raw = time.perf_counter() - t2 + (t1 - t0)
    reference += [inputs.reference_seconds() for _ in range(2)]
    setup_s = setup_raw / statistics.median(reference) * inputs.REFERENCE_NOMINAL_S

    outputs, latencies, reference = workloads.run_operations(wl.operations())
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tr:
        tr.uninstall()

    verdicts = wl.gates(outputs)
    report = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "verdict_s": sum(latencies),
        "verdict_ref": sum(t / r for t, r in zip(latencies, reference)),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "verdicts": verdicts,
        "latencies": latencies,
        "errors": [repr(o) for o in outputs if isinstance(o, Raised)][:5],
    }
    if args.workload == "normal_forms":
        report["digest"] = wl.digest(outputs)
        report["normalize_s"] = [None if isinstance(o, Raised) else o[4] for o in outputs]
        report["repeat"] = [f != i for i, f in enumerate(wl.first)]
    if tr:
        report["layers"] = tr.metrics()
        if args.spans:
            tr.write_spans(args.spans)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
