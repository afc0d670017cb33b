"""Time to a verified result on two workloads, with a separate traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload p1-modular --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics: wall seconds per pass with
every output check done (median over the passes that fit in --seconds, at
least one), set-up time of a fresh interpreter (median of five), peak
resident memory, and the digits kept against the closed form.
``--trace 1`` runs one untraced pass and two traced passes and reports the
per-layer metrics; it fails if the traced reports differ from the untraced
ones or the two traced passes give different counts.  ``--workload all``
runs both workloads one after another in this process (peak memory
is then the process peak so far).

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output check passed.  Reports and span totals are
written under ``.bench_out/`` in the checkout.
"""

import os

# One BLAS/OpenMP thread everywhere, set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Outcome, accuracy_digits  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
SETUP_CODE = (
    "import sys\n"
    "from elliptic_selberg import cli, verify\n"
    "sys.exit(0 if all(verify.series_prerequisites().values()) else 1)\n"
)


def calibration_s() -> float:
    """A fixed pure-numpy loop, small arrays then large, to expose box drift."""
    x = np.linspace(0.0, 1.0, 100) * (1.0 + 0.5j)
    big = np.linspace(0.0, 1.0, 200_000) * (1.0 + 0.5j)
    acc = 0j
    t0 = time.perf_counter()
    for k in range(3000):
        acc += np.sum(np.sin((2 * (k % 40) + 1) * x))
    for _ in range(20):
        acc += np.sum(np.exp(1j * big))
    return time.perf_counter() - t0


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def measure_setup():
    """Wall time of fresh interpreters importing the package and proving the series."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, ok = [], True
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, timeout=120)
        times.append(time.perf_counter() - t0)
        ok = ok and proc.returncode == 0
    return times, ok


def import_package() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    return SimpleNamespace(**{
        m: importlib.import_module(f"{spans.PACKAGE}.{m}") for m in spans.MODULES})


def timed_pass(workload, es):
    t0 = time.perf_counter()
    try:
        outcome = workload.run_pass(es)
    except Exception:  # a raised exception is a failed check, not a crash
        traceback.print_exc(file=sys.stderr)
        outcome = Outcome(worst_error=float("inf"))
        outcome.check("pass raised no exception", False)
    return time.perf_counter() - t0, outcome


def untraced(workload, es, seconds: float, notes: dict):
    setup_times, setup_ok = measure_setup()
    checks = [("fresh-interpreter set-up proved every series identity", setup_ok)]
    prereq = es.verify.series_prerequisites()
    checks.append(("in-process series prerequisites", all(prereq.values())))
    times, outcomes = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start + statistics.median(times) <= seconds:
        dt, outcome = timed_pass(workload, es)
        times.append(dt)
        outcomes.append(outcome)
    worst = max(o.worst_error for o in outcomes)
    notes.update(passes=len(times), pass_times_s=times, setup_times_s=setup_times)
    metrics = {
        "time_to_verified_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "accuracy_digits": (accuracy_digits(worst), "digits"),
    }
    return checks + [c for o in outcomes for c in o.checks], metrics


def traced(workload, es, name: str, seed: int, notes: dict):
    tracer = spans.Tracer()
    with tracer:
        prereq = es.verify.series_prerequisites(force=True)
    setup_snap = tracer.snapshot()
    checks = [("in-process series prerequisites", all(prereq.values()))]

    plain_s, plain = timed_pass(workload, es)
    traced_s, snaps = [], []
    checks += plain.checks
    for i in (1, 2):
        tracer.reset()
        with tracer:
            dt, outcome = timed_pass(workload, es)
        traced_s.append(dt)
        snaps.append(tracer.snapshot())
        checks += outcome.checks
        checks.append((f"traced pass {i} reproduces the untraced reports",
                       outcome.fingerprint == plain.fingerprint
                       and accuracy_digits(outcome.worst_error)
                       == accuracy_digits(plain.worst_error)))
    checks.append(("two traced passes give identical counts",
                   spans.counts(snaps[0]) == spans.counts(snaps[1])))

    spans.dump(OUT / f"trace-{name}-seed{seed}.json", {
        "setup": setup_snap, "untraced_pass_s": plain_s,
        "traced_passes": [{"pass_s": dt, **snap} for dt, snap in zip(traced_s, snaps)]})
    notes.update(untraced_pass_s=plain_s, traced_pass_s=traced_s)
    metrics = per_layer_metrics(setup_snap, snaps)
    metrics["cli.main.report_bytes"] = (plain.report_bytes, "bytes")
    metrics["trace.overhead_ratio"] = (statistics.median(traced_s) / plain_s, "ratio")
    return checks, metrics


def per_layer_metrics(setup_snap, snaps) -> dict:
    """Counts from the first traced pass, self times as the median of both."""
    first = snaps[0]

    def count(span, field="calls"):
        return first["spans"].get(span, {}).get(field, 0)

    def self_s(span):
        return statistics.median(s["spans"].get(span, {}).get("self_s", 0.0)
                                 for s in snaps)

    m = {}
    for span in ("specfun.theta1_array", "specfun.theta_level_array",
                 "specfun.continue_log"):
        m[f"{span}.calls"] = (count(span), "count")
        m[f"{span}.points"] = (count(span, "points"), "count")
        m[f"{span}.self_s"] = (self_s(span), "s")
    kernel_calls = count("specfun.theta1_array") + count("specfun.theta_level_array")
    kernel_points = (count("specfun.theta1_array", "points")
                     + count("specfun.theta_level_array", "points"))
    m["specfun.points_per_call"] = (kernel_points / kernel_calls if kernel_calls else 0.0,
                                    "points/call")
    for span in ("specfun.scalar", "quadrature.node_build", "quadrature.roots_jacobi",
                 "quadrature.endpoint_loop_fp", "blocks.j_integral",
                 "selberg.block_constant", "macdonald.modular_matrices",
                 "transforms.expand_in_block_basis", "verify.verify_identity",
                 "cli.main"):
        m[f"{span}.calls"] = (count(span), "count")
        m[f"{span}.self_s"] = (self_s(span), "s")
    m["blocks.evals_charged"] = (count("blocks.j_integral", "points"), "count")
    m["blocks.quad_agreement_max"] = (first["quad_agreement_max"], "ratio")
    series = setup_snap["spans"].get("qseries.check_series_identity", {})
    m["qseries.check_series_identity.calls"] = (series.get("calls", 0), "count")
    m["qseries.check_series_identity.self_s"] = (series.get("self_s", 0.0), "s")
    m["qseries.check_series_identity.terms_compared"] = (series.get("points", 0), "count")
    u_calls = count("transforms.u_block")
    m["transforms.u_block.calls"] = (u_calls, "count")
    m["transforms.u_block.distinct_ratio"] = (
        first["u_block_distinct"] / u_calls if u_calls else 0.0, "ratio")
    return m


def run_workload(name: str, args, es) -> dict:
    workload = WORKLOADS[name](args.seed, OUT)
    notes = {"inputs": workload.inputs}
    calib_start = calibration_s()
    if args.trace:
        checks, metrics = traced(workload, es, name, args.seed, notes)
    else:
        checks, metrics = untraced(workload, es, args.seconds, notes)
    calib_end = calibration_s()
    lines = src_lines()
    if args.trace:
        metrics["bench.calibration_start_s"] = (calib_start, "s")
        metrics["bench.calibration_end_s"] = (calib_end, "s")
        metrics["bench.src_lines"] = (lines, "lines")
    notes.update(calibration_start_s=calib_start, calibration_end_s=calib_end,
                 src_lines=lines)
    failed = [label for label, ok in checks if not ok]

    print(f"== {name}  seed={args.seed}  trace={args.trace}")
    for key, value in notes.items():
        print(f"   {key}: {json.dumps(value)}")
    for label in failed:
        print(f"   FAILED CHECK: {label}")
    print(f"   failed_check_ratio: {len(failed) / len(checks)} ratio"
          f" ({len(failed)} of {len(checks)} checks)")
    for key, (value, unit) in metrics.items():
        print(f"   {key}: {value} {unit}")
    return {"attempted": len(checks), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / spans.PACKAGE / "__init__.py").is_file():
        print(f"error: no {spans.PACKAGE} package under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    es = import_package()
    print("   env: " + json.dumps({
        "nproc": len(os.sched_getaffinity(0)),
        **{var: os.environ[var] for var in THREAD_VARS},
        "python": sys.version.split()[0], "numpy": np.__version__}))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args, es) for name in names}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = (results[names[0]]["metrics"] if len(names) == 1
               else {name: r["metrics"] for name, r in results.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
