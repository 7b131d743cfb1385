"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/steady.py --workloads cohort stress sweep --seeds 10 --seconds 25

Each run is `python3 bench/run.py --workload W --seed S --seconds T
--trace 0` as a subprocess.  For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json,
and the median host probe of the set, so that two sets measured at
different host speeds can be told apart.
--write-baseline stores the medians and quartiles in baseline.json and
--record-golden stores each run's output hashes in golden.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10, help="runs seeds 0..N-1")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--write-baseline", action="store_true")
    parser.add_argument("--record-golden", action="store_true", help="passed on to run.py")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        walls = []
        probes = []
        for seed in range(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0",
                 *(["--record-golden"] if args.record_golden else [])],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            walls.append(time.perf_counter() - start)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if not line["correct"] or line["failed"]:
                print(f"{workload} seed {seed}: INCORRECT {line}")
                return 1
            for name, metric in line["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            env = json.loads((BENCH / "_out" / f"{workload}-seed{seed}-trace0.json").read_text())["environment"]
            probes += [env["host_probe_s_before"], env["host_probe_s_after"]]
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s", flush=True)
        rows = {}
        for name, series in sorted(values.items()):
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(series)}
            verdict = "ok" if spread <= bounds[name] / 3 else ("within bound" if spread <= bounds[name] else "TOO WIDE")
            print(f"  {workload:7s} {name:14s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}  bound {bounds[name]:.2f}  {verdict}")
        print(f"  {workload:7s} run wall: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        print(f"  {workload:7s} host probe: median {statistics.median(probes) * 1e3:.2f} ms, "
              f"min {min(probes) * 1e3:.2f} ms, max {max(probes) * 1e3:.2f} ms")
        baseline[workload] = {
            "seeds": [0, args.seeds - 1],
            "seconds": args.seconds,
            "metrics": rows,
            "host_probe_s": statistics.median(probes),
        }
    if args.write_baseline:
        path = BENCH / "baseline.json"
        table = json.loads(path.read_text()) if path.is_file() else {}
        table.update(baseline)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
