"""quatpoly benchmark: exact-verdict workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the engine is imported from its ``src``.
Each repetition is a fresh interpreter (``worker.py``) that imports the
engine, builds the workload from the seed, runs the timed phase once and
checks every verdict against its known answer.  Repetitions are run one
after another, never in parallel, until ``--seconds`` have passed (and at
least ``MIN_REPS`` of them).

With ``--trace 0`` the end-to-end metrics are the medians over the
repetitions.  With ``--trace 1`` traced and untraced repetitions
alternate: the traced ones give the per-layer metrics, and the ratio of
the two median ``verdict_ref`` figures is the tracing overhead.
Deterministic per-layer counts must repeat exactly across the traced
repetitions.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat the
figures for a reader.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import DERIVED, PER_LAYER  # noqa: E402

WORKLOADS = ("confluence", "completion", "normal_forms", "oracle_audit")
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("verdict_ref", "x", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
TIME_UNITS = ("s", "ms")
MIN_REPS = 3
MIN_TRACED_REPS = 2
# Start no repetition after this many seconds, and stop any repetition
# still running at the limit, so that a run ends inside three minutes.
LAST_START_S = 110.0
RUN_LIMIT_S = 170.0
SPAN_DIR = ROOT / ".perfbench-out"


class BenchError(RuntimeError):
    pass


def run_rep(workload, seed, size, *flags, timeout=RUN_LIMIT_S):
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--size", size,
        *flags,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError("%s repetition exceeded %.0f s" % (workload, timeout)) from None
    if proc.returncode != 0:
        raise BenchError("%s repetition failed:\n%s" % (workload, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_percentile(values):
    """The highest of p99.9, p99, p95, p90 with at least ten samples
    beyond it."""
    for q in (99.9, 99, 95, 90):
        if len(values) * (100 - q) / 100 >= 10:
            return q, percentile(values, q)
    return 50, percentile(values, 50)


def repetitions(workload, seed, size, seconds, trace):
    """Run repetitions until ``seconds`` have passed; with ``trace``,
    alternate untraced and traced ones.  Returns the untraced and traced
    reports."""
    plain, traced = [], []
    started = time.monotonic()

    def rep(*flags):
        left = RUN_LIMIT_S - (time.monotonic() - started)
        return run_rep(workload, seed, size, *flags, timeout=left)

    if trace:
        SPAN_DIR.mkdir(exist_ok=True)
    while True:
        elapsed = time.monotonic() - started
        if trace:
            enough = len(plain) >= MIN_TRACED_REPS and len(traced) >= MIN_TRACED_REPS
        else:
            enough = len(plain) >= MIN_REPS
        if (enough and elapsed >= seconds) or (plain and elapsed >= LAST_START_S):
            break
        if trace and len(traced) < len(plain):
            spans = [] if traced else ["--spans", str(SPAN_DIR / ("spans-%s.tsv.gz" % workload))]
            traced.append(rep("--trace", *spans))
        else:
            plain.append(rep())
    return plain, traced


def verdict_counts(reports):
    attempted = sum(len(r["verdicts"]) for r in reports)
    failed = sum(1 for r in reports for v in r["verdicts"] if not v)
    return attempted, failed


def end_to_end(workload, plain, out):
    metrics = {}
    for name, unit, _ in END_TO_END:
        samples = [r[name] for r in plain]
        value = statistics.median(samples)
        metrics[name] = {"value": value, "unit": unit}
        out.append(
            "%-13s %-28s %.6g %s (median of %s)"
            % (workload, name, value, unit, " ".join("%.4g" % x for x in samples))
        )
    for name in ("setup_raw_s", "verdict_s"):
        out.append(
            "%-13s %-28s %.6g s (median of %s)"
            % (workload, name, statistics.median(r[name] for r in plain),
               " ".join("%.4g" % r[name] for r in plain))
        )
    if workload == "normal_forms":
        lat = [x * 1000.0 for r in plain for x in r["latencies"]]
        q, tail = tail_percentile(lat)
        out.append("%-13s %-28s %.6g ms (n=%d)" % (workload, "expr_p50_ms", percentile(lat, 50), len(lat)))
        out.append("%-13s %-28s %.6g ms (p%g, n=%d)" % (workload, "expr_p99_ms", tail, q, len(lat)))
    return metrics


def per_layer(workload, plain, traced, out):
    problems = []
    layers = [r["layers"] for r in traced]
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name in DERIVED:
            continue
        values = [lay.get(name, 0) for lay in layers]
        if unit in TIME_UNITS:
            value = statistics.median(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                problems.append("%s differs across traced repetitions: %r" % (name, values))
        metrics[name] = {"value": value, "unit": unit}
    repeat, fresh = [], []
    if workload == "normal_forms":
        for r in traced:
            for t, is_repeat in zip(r["normalize_s"], r["repeat"]):
                if t is not None:
                    (repeat if is_repeat else fresh).append(t * 1000.0)
    metrics["rewrite.normalize.repeat_p50_ms"] = {
        "value": statistics.median(repeat) if repeat else 0.0, "unit": "ms"}
    metrics["rewrite.normalize.fresh_p50_ms"] = {
        "value": statistics.median(fresh) if fresh else 0.0, "unit": "ms"}
    plain_v = statistics.median(r["verdict_ref"] for r in plain)
    traced_v = statistics.median(r["verdict_ref"] for r in traced)
    metrics["trace.overhead_ratio"] = {"value": traced_v / plain_v, "unit": "x"}
    metrics = {name: metrics[name] for name, _, _ in PER_LAYER}
    for name, m in metrics.items():
        out.append("%-13s %-45s %.6g %s" % (workload, name, m["value"], m["unit"]))
    out.append(
        "%-13s traced verdict_ref %.4g vs untraced %.4g (overhead %.1f%%), %d+%d repetitions"
        % (workload, traced_v, plain_v, 100.0 * (traced_v / plain_v - 1), len(traced), len(plain))
    )
    out.append(
        "%-13s deterministic counts repeat exactly: %s"
        % (workload, "no" if problems else "yes")
    )
    return metrics, problems


def run_workload(workload, seed, seconds, trace, size):
    plain, traced = repetitions(workload, seed, size, seconds, trace)
    out = []
    problems = []
    if trace:
        metrics, problems = per_layer(workload, plain, traced, out)
    else:
        metrics = end_to_end(workload, plain, out)
    attempted, failed = verdict_counts(plain + traced)
    out.append(
        "%-13s failed_frac %.6g (%d of %d operations)"
        % (workload, failed / attempted, failed, attempted)
    )
    for r in plain + traced:
        problems += r["errors"]
    if workload == "normal_forms":
        digests = {r["digest"] for r in plain + traced}
        out.append("%-13s output digest %s" % (workload, " ".join(sorted(digests))))
        if len(digests) != 1:
            problems.append("normal-form output digest differs across repetitions")
    for p in problems:
        out.append("%-13s PROBLEM %s" % (workload, p))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the smoke tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "quatpoly" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no src/quatpoly under %s; run from a quatpoly checkout\n" % ROOT)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
            print("\n".join(lines), flush=True)
            results[name] = result
    except BenchError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                "%s.%s" % (w, k): v for w, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
