"""probqos benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload select-parametric --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ./src.
With --trace 0 the run measures the end-to-end metrics with no wrapper
installed.  With --trace 1 it measures an untraced pass for half the time,
then replays the same units with span wrappers on the program's layer
boundaries, checks that both passes returned identical results, and reports
the per-layer metrics.  Every run checks the program's answers against the
reference oracle.  The last line of standard output is the result object;
the lines before it are the human-readable report.  Details and spans go to
.perfbench_runs/ in the checkout.  See perfbench/DESIGN.md.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: one client, one thread.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
Z_TOLERANCE = 6.0  # an estimate this many reported s.e. from the reference is wrong

END_TO_END_UNITS = {
    "setup_s": "s",
    "check_s_p50": "s",
    "check_s_tail": "s",
    "checks_per_s": "1/s",
    "se_mean": "probability",
    "decided_share": "share",
    "verdict_ok_share": "share",
    "completed_share": "share",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

def run_loop(workload, pq, state, tracer, seconds=None, units=None, between=None):
    """Run units in order until `seconds` pass (ending on a whole group of
    `closed_unit` units) or until `units` units are done.  `between` runs
    after each unit, outside the unit's wall time."""
    checks, walls = [], []
    start = time.perf_counter()
    i = 0
    while True:
        if units is not None and i >= units:
            break
        if (seconds is not None and i % workload.closed_unit == 0 and i > 0
                and time.perf_counter() - start >= seconds):
            break
        t0 = time.perf_counter()
        checks.extend(workload.run_unit(pq, state, i, tracer))
        walls.append(time.perf_counter() - t0)
        if between is not None:
            between()
        i += 1
    return checks, walls


def timed_setup(workload, tracer, times):
    """Import probqos afresh and set the workload up; appends the wall time."""
    for name in [n for n in sys.modules if n == "probqos" or n.startswith("probqos.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    pq = importlib.import_module("probqos")
    state = workload.setup(pq, tracer)
    times.append(time.perf_counter() - t0)
    return pq, state


# ---------------------------------------------------------------------------
# Judging the answers
# ---------------------------------------------------------------------------

def judge(checks, pq):
    """Compare every check with the oracle; returns counts, defects, properties."""
    from oracle import reference_probability, reference_verdict

    cache = {}
    out = {"failed": 0, "indeterminate": 0, "wrong": 0, "malformed": 0, "outliers": 0,
           "undecided": 0, "rows": 0, "near_bound": 0, "zero_se": 0, "dikin": 0,
           "se": [], "defects": []}
    regions = set()
    threshold = pq.sampling.REJECTION_ACCEPTANCE_THRESHOLD

    def defect(check, kind, detail):
        out["defects"].append({"check": check.id, "kind": kind, "detail": detail})

    for check in checks:
        if check.report is None:
            out["failed"] += 1
            defect(check, "failed", check.error)
            continue
        rep, spec = check.report, check.spec
        rows = rep.constraint_table
        if rep.verdict not in ("satisfied", "violated", "indeterminate") or len(rows) != len(
                spec.constraints) or any((r.p_min, r.p_max) != (lo, hi) for r, (_, lo, hi)
                                         in zip(rows, spec.constraints)):
            out["malformed"] += 1
            defect(check, "malformed report", repr(rep)[:300])
            continue
        truths, refs = [], []
        for row, (region, lo, hi) in zip(rows, spec.constraints):
            key = (id(check.profile), region.key)
            if key not in cache:
                cache[key] = reference_probability(check.profile, check.doc, region, pq)
            ref = cache[key]
            refs.append(ref)
            truths.append(lo <= ref <= hi)
            est, se = row.estimate, row.std_error
            out["rows"] += 1
            out["se"].append(se)
            out["zero_se"] += se == 0.0
            out["undecided"] += row.truth is None
            out["near_bound"] += any(abs(ref - b) <= 3 * se for b in (lo, hi)
                                     if 0.0 < b < 1.0)
            regions.add(region.key)
            if region.area() / region.bounding_box_area() < threshold:
                out["dikin"] += 1
            if not (math.isfinite(est) and math.isfinite(se) and se >= 0.0):
                out["malformed"] += 1
                defect(check, "malformed estimate", f"{row.variable}: {est} +/- {se}")
            elif abs(est - ref) > Z_TOLERANCE * se + 1e-12:
                out["outliers"] += 1
                defect(check, f"estimate off by more than {Z_TOLERANCE:g} s.e.",
                       f"{row.variable}: {est!r} +/- {se!r}, reference {ref!r}")
        expected = reference_verdict(spec.formula, spec.n_vars, truths)
        check.reference = (refs, expected)
        if rep.verdict == "indeterminate":
            out["indeterminate"] += 1
            continue
        if rep.verdict != expected:
            out["wrong"] += 1
            defect(check, "wrong verdict", f"{rep.verdict}, reference {expected}; "
                   + ", ".join(f"{r.estimate:.6g}+/-{r.std_error:.3g}" for r in rows))
        if rep.verdict == "satisfied":
            point = [r.truth if r.truth is not None else r.p_min <= r.estimate <= r.p_max
                     for r in rows]
            witness = [rep.witness[name] for name in sorted(rep.witness or {})]
            if len(witness) != spec.n_vars or not spec.formula(point, witness):
                out["malformed"] += 1
                defect(check, "witness does not satisfy the requirement", repr(rep.witness))
    out["distinct_regions"] = len(regions)
    return out


def tail(values):
    """The highest order statistic with at least 10 samples beyond it.

    Below 22 samples that statistic falls under the median; the upper
    median is reported instead, and labelled as such, since no tail can be
    measured from so few samples.
    """
    xs = sorted(values)
    n = len(xs)
    i = max(n - 11, n // 2)
    basis = f"p{100.0 * (i + 1) / n:.1f} of {n} samples, {n - 1 - i} beyond it"
    if i != n - 11:
        basis += " (too few samples for a tail: upper median)"
    return xs[i], basis


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy

    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "probqos" / "__init__.py").is_file():
        _fail(f"no program to measure: {SRC / 'probqos'} is missing "
              "(run from the root of a probqos checkout)")
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.path.insert(0, str(SRC))
    try:
        import probqos  # noqa: F401
    except ImportError as exc:
        _fail(f"cannot import probqos from {SRC}: {exc}")
    from tracing import PER_LAYER_UNITS, NullTracer, Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")

    runs = ROOT / ".perfbench_runs"
    workdir = runs / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, sys.modules["probqos"])
        null = NullTracer()
        setup_times = []
        pq, state = timed_setup(workload, null, setup_times)
        if args.trace == 0:
            # Set up again after every unit: the host's speed drifts over
            # tens of seconds, so samples spread over the run give a steadier
            # median than repeats bunched at its start.  The loop keeps the
            # first set-up's modules and state.
            checks, walls = run_loop(workload, pq, state, null, seconds=args.seconds,
                                     between=lambda: timed_setup(workload, null, setup_times))
        else:
            checks, walls = run_loop(workload, pq, state, null, seconds=args.seconds / 2)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        learn_seconds = list(getattr(workload, "learn_seconds", []))
        signatures = [c.signature() for c in checks]
        if all(c.report is None for c in checks):
            _fail(f"every check failed, e.g. {checks[0].error}")

        mismatches = []
        spans_path = None
        if args.trace == 0:
            # A second untraced run of the first unit must repeat it exactly.
            again, _ = run_loop(workload, pq, state, null, units=1)
            first = signatures[:len(again)]
            if [c.signature() for c in again] != first:
                mismatches.append("repeating unit 0 without tracing changed its results")
        else:
            tracer = Tracer()
            tracer.install(pq)
            try:
                with tracer.span("setup") as root:
                    traced_state = workload.setup(pq, tracer)
                traced, traced_walls = run_loop(workload, pq, traced_state, tracer,
                                                units=len(walls))
            finally:
                tracer.uninstall()
            for a, b in zip(signatures, (c.signature() for c in traced)):
                if a != b:
                    mismatches.append(f"traced run differs at {a[0]}: {a} != {b}")
            if len(traced) != len(checks):
                mismatches.append("traced run produced a different number of checks")
            setup_root = tracer.spans.index(root)

        verdicts = judge(checks, pq)
        attempted = len(checks)
        env = environment()
        n_int = max(verdicts["rows"], 1)
        properties = {
            "checks": attempted,
            "units": len(walls),
            "integrations": verdicts["rows"],
            "near_bound_share": verdicts["near_bound"] / n_int,
            "dikin_share": verdicts["dikin"] / n_int,
            "rejection_share": 1.0 - verdicts["dikin"] / n_int,
            "distinct_regions_per_integration": verdicts["distinct_regions"] / n_int,
            "zero_se_share": verdicts["zero_se"] / n_int,
        }
        guards = {
            "indeterminate_share": verdicts["indeterminate"] / attempted,
            "verdict_wrong_share": verdicts["wrong"] / attempted,
            "failed_share": verdicts["failed"] / attempted,
        }
        correct = not (mismatches or verdicts["malformed"] or verdicts["outliers"])

        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": env, "properties": properties,
                  "guards": guards, "defects": verdicts["defects"],
                  "mismatches": mismatches, "setup_runs_s": setup_times,
                  "checks": [{"id": c.id, "seconds": c.seconds, "result": c.signature()[1:],
                              "reference": c.reference} for c in checks]}
        if args.trace == 0:
            times = workload.check_times(checks)
            tail_value, tail_basis = tail(times)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "check_s_p50": statistics.median(times),
                "check_s_tail": tail_value,
                "checks_per_s": (attempted - verdicts["failed"]) / sum(walls),
                "se_mean": statistics.fmean(verdicts["se"]),
                "decided_share": 1.0 - guards["indeterminate_share"],
                "verdict_ok_share": 1.0 - guards["verdict_wrong_share"],
                "completed_share": 1.0 - guards["failed_share"],
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END_UNITS
            report["check_s_tail_basis"] = tail_basis
            if learn_seconds:
                report["learn_s_p50"] = statistics.median(learn_seconds)
        else:
            overhead = sum(traced_walls) / sum(walls) - 1.0
            metrics = layer_metrics(tracer.spans, setup_root, verdicts["undecided"],
                                    tracer.restarts, overhead)
            units = PER_LAYER_UNITS
            runs.mkdir(exist_ok=True)
            spans_path = runs / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps(tracer.to_json()))
        report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        runs.mkdir(exist_ok=True)
        result_path = runs / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
        result_path.write_text(json.dumps(report, indent=1, default=str))

        print(f"probqos benchmark  workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("environment " + json.dumps(env))
        print("properties  " + json.dumps(properties))
        for name, value in metrics.items():
            print(f"  {name:36s} {value:.6g} {units[name]}")
        if args.trace == 0:
            print(f"  check_s_tail is the {report['check_s_tail_basis']}")
            for name, value in guards.items():
                print(f"  {name:36s} {value:.6g} share")
            if "learn_s_p50" in report:
                print(f"  {'learn_s_p50':36s} {report['learn_s_p50']:.6g} s")
        for d in verdicts["defects"]:
            print(f"defect: {d['check']}: {d['kind']}: {d['detail']}")
        for m in mismatches:
            print(f"MISMATCH: {m}", file=sys.stderr)
        print(f"details in {result_path.relative_to(ROOT)}"
              + (f", spans in {spans_path.relative_to(ROOT)}" if spans_path else ""))
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": verdicts["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
