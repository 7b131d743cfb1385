"""frond benchmark: drives the real `frond` CLI over fixed workloads.

    python3 bench/run.py --workload cohort --seed 0 --seconds 25 --trace 0

--trace 0 runs the workload's commands as subprocesses (interpreter and
imports included) and reports the end-to-end metrics.  --trace 1 runs the
same argv in-process through frond.cli.main with layer wrappers installed
and reports per-layer self times and exact counters.  --workload all runs
every workload in turn, each in its own process.  Every output is checked; the last line of
standard output is one JSON object with correct, attempted, failed and
metrics.  Reports and spans are written to bench/_out/.

--record-golden stores this run's output hashes in golden.json as the
reference for its workload and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
WORKLOAD_NAMES = ("cohort", "stress", "sweep")

END_TO_END_UNITS = {
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "hota": "fraction",
    "idf1": "fraction",
}
# Layer metrics that stay 0 on some workload because it never calls that
# code; they are reported in the report file, not in the result line.
REPORT_ONLY_LAYER = (
    "fileio.write_results_s",
    "fileio.read_results_s",
    "fileio.other_s",
    "metrics.leaf_matrix_s",
    "embedding.sample_triplets_s",
    "embedding.triplets",
    "geometry.eligible_cells",
)


def layer_unit(name: str) -> str:
    if any(part.endswith("_s") for part in name.split(".")):
        return "s"
    if name == "fileio.det_bytes":
        return "bytes"
    if name in ("assignment.pad_efficiency", "geometry.eligible_ratio"):
        return "ratio"
    return "count"


def use_checkout_source() -> bool:
    """Put the checkout's src first on sys.path; False when it holds no frond package."""
    src = ROOT / "src"
    if not (src / "frond" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def run_one(workload, seed: int, seconds: float, trace: bool, record_golden: bool = False):
    """Run one workload; returns (result line dict, full report dict)."""
    import checks
    import harness

    OUT.mkdir(exist_ok=True)
    workdir = BENCH / "_work" / f"{workload.name}-{os.getpid()}"
    harness.prepare_workdir(workdir)
    load_before = os.getloadavg()
    probe_before = harness.host_probe_s()
    try:
        if trace:
            spans = OUT / f"{workload.name}-seed{seed}-spans.json"
            outcome = harness.run_traced(workload, seed, seconds, ROOT, workdir, spans)
        else:
            outcome = harness.run_timed(workload, seed, seconds, ROOT, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probe_after = harness.host_probe_s()
    golden_key = f"{workload.name}/{seed}"
    hashes = outcome.report.pop("hashes")
    if record_golden and outcome.correct:
        checks.record_golden(golden_key, hashes)
    if trace:
        shown = {k: v for k, v in outcome.metrics.items() if k not in REPORT_ONLY_LAYER}
        units = {k: layer_unit(k) for k in outcome.metrics}
    else:
        shown = dict(outcome.metrics)
        units = END_TO_END_UNITS
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(shown.items())},
    }
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": {
            **harness.environment(),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "host_probe_s_before": probe_before,
            "host_probe_s_after": probe_after,
        },
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(outcome.metrics.items())},
        "golden": checks.golden_status(golden_key, hashes),
        "errors": outcome.errors,
        **outcome.report,
    }
    (OUT / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1) + "\n")
    return result, report


def print_report(report: dict) -> None:
    env = report["environment"]
    print(
        f"== {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
        f"passes {report['passes']:g}  python {env['python']}  numpy {env['numpy']}  "
        f"{env['blas']} threads={env['blas_threads']}  nproc {env['nproc']}  "
        f"load {env['loadavg_before'][0]:.2f} -> {env['loadavg_after'][0]:.2f}  "
        f"host probe {env['host_probe_s_before'] * 1e3:.1f} -> {env['host_probe_s_after'] * 1e3:.1f} ms"
    )
    for name, m in report["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    for name, stats in report.get("commands", {}).items():
        extra = "  ".join(f"{k}={v:.4g}" for k, v in stats.items() if k.startswith("p"))
        print(f"  {name:36s} {stats['median']:14.6g} s  median of n={stats['n']}  {extra or 'no tail percentile'}")
    print(f"  {'error_rate':36s} {report['error_rate']:14.6g} fraction")
    golden = report["golden"]
    print(f"  golden hashes: {golden['status']} ({golden['files']} files) {' '.join(golden.get('changed', []))}")
    for error in report["errors"]:
        print(f"  FAILED: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not use_checkout_source():
        print(f"error: no frond sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    result, report = run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.record_golden)
    print_report(report)
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, so RUSAGE_CHILDREN peaks stay per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        child = [
            "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *(["--record-golden"] if args.record_golden else []),
        ]
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *child], capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
