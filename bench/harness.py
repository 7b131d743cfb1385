"""Set-up, timed subprocess passes, traced in-process passes, and their metrics."""

from __future__ import annotations

import contextlib
import ctypes
import io
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import frond.cli
from frond import fileio, simulator

import checks
import layers
from workloads import Workload, config_text, plant_dir, scene_configs, units

# Set-ups timed per run: SETUP_BEFORE before the timed part and the rest
# after it, so that the median spans the run rather than one moment.
SETUP_REPEATS = 5
SETUP_BEFORE = 3
STARTUP_REPEATS = 5
PROBE_REPEATS = 5
# A run starts no further unit once this much wall time has gone, so that
# it ends well inside the 180 s a run may take.
RUN_GUARD_S = 120.0
CHILD_TIMEOUT_S = 170.0
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


@dataclass
class Outcome:
    """What one benchmark run measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    report: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors


def child_env(root: Path) -> dict[str, str]:
    """The user's environment with the checkout's src first on PYTHONPATH; BLAS is not pinned."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _blas_threads() -> int | None:
    maps = Path("/proc/self/maps")
    if not maps.is_file():
        return None
    libs = {line.split()[-1] for line in maps.read_text().splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }


def host_probe_s() -> float:
    """Median wall time of a fixed pure-Python and numpy loop.

    Recorded before and after each run as a gauge of the host's speed:
    a run whose probes differ widely, or differ from other runs', was
    measured while the host's speed drifted.
    """
    data = np.random.default_rng(0).random(200_000)
    times = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        np.sort(data)
        times.append(perf_counter() - start)
    return statistics.median(times)


def build_scenes(workload: Workload, seed: int, workdir: Path) -> list[checks.Scene]:
    """Set-up: every scene generated in memory; the sweep scene also written to det.txt and gt.txt."""
    scenes = []
    for plant, cfg in enumerate(scene_configs(workload, seed)):
        d = plant_dir(workdir, plant)
        d.mkdir(parents=True, exist_ok=True)
        (d / "scene.cfg").write_text(config_text(cfg))
        gt, det, truth_map = simulator.generate(cfg)
        if workload.sweep:
            fileio.write_detections(det, d / "det.txt")
            fileio.write_gt(gt, d / "gt.txt")
        scenes.append(checks.Scene(gt, det, truth_map))
    return scenes


def tail(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    for p in TAIL_PERCENTILES:
        if len(samples) * (100 - p) / 100.0 >= 10:
            out[f"p{p}"] = statistics.quantiles(samples, n=100)[p - 1]
            break
    return out


class _Verifier:
    """Checks each distinct output once and collects golden hashes and quality."""

    def __init__(self, workload: Workload, workdir: Path, scenes):
        self.workload, self.workdir, self.scenes = workload, workdir, scenes
        self.seen: dict = {}
        self.hashes: dict[str, str] = {}
        self.quality: dict = {}

    def __call__(self, command, code, stdout, stderr) -> list[str]:
        if code != 0:
            return [f"{command.kind} exited {code}: {stderr.strip()[-300:]}"]
        try:
            hashes = checks.output_hashes(command, stdout, self.workdir)
        except OSError as err:
            return [f"{command.kind}: missing output: {err}"]
        key = (command.argv, tuple(sorted(hashes.items())))
        if key not in self.seen:
            errors, quality = checks.verify(command, stdout, self.workdir, self.scenes, self.workload.triplets)
            self.seen[key] = errors
            self.quality.setdefault(command.argv, quality)
            self.hashes.update(hashes)
        return self.seen[key]

    def quality_means(self) -> tuple[float, float]:
        pairs = [pair for quality in self.quality.values() for pair in quality]
        if not pairs:
            return 0.0, 0.0
        return statistics.fmean(h for h, _ in pairs), statistics.fmean(i for _, i in pairs)


def _run_child(root: Path, env, argv) -> tuple[object, str, str, float, float]:
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=root, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        code, out, err = "timeout", "", f"killed after {CHILD_TIMEOUT_S} s"
    wall = perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return code, out, err, wall, cpu


def _setup(workload, seed, workdir, repeats: int) -> tuple[list, list[float]]:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        scenes = build_scenes(workload, seed, workdir)
        times.append(perf_counter() - start)
    return scenes, times


def _count(outcome, errors):
    outcome.attempted += 1
    if errors:
        outcome.failed += 1
        outcome.errors.extend(errors[: max(0, 20 - len(outcome.errors))])


def run_timed(workload: Workload, seed: int, seconds: float, root: Path, workdir: Path) -> Outcome:
    """Untraced run: the workload's CLI commands as subprocesses.

    Units run in pass order, round and round, until the next one would
    no longer fit in seconds; the first pass always completes.
    """
    outcome = Outcome()
    scenes, setup_times = _setup(workload, seed, workdir, SETUP_BEFORE)
    verify = _Verifier(workload, workdir, scenes)
    env = child_env(root)
    plan = units(workload, workdir, seed)
    per_kind = {u.kind: sum(1 for v in plan if v.kind == u.kind) for u in plan}
    unit_wall: dict[str, list] = {k: [] for k in per_kind}
    unit_cpu: dict[str, list] = {k: [] for k in per_kind}
    command_wall: dict[str, list] = {}
    started = perf_counter()
    spent = 0.0
    done = 0
    while True:
        unit = plan[done % len(plan)]
        wall = cpu = 0.0
        for command in unit.commands:
            code, out, err, w, c = _run_child(root, env, ("-m", "frond.cli", *command.argv))
            wall, cpu = wall + w, cpu + c
            command_wall.setdefault(command.kind, []).append(w)
            _count(outcome, verify(command, code, out, err))
        unit_wall[unit.kind].append(wall)
        unit_cpu[unit.kind].append(cpu)
        spent += wall
        done += 1
        upcoming = unit_wall[plan[done % len(plan)].kind]
        expected = upcoming[-1] if upcoming else wall
        if done >= len(plan) and (
            spent + expected > seconds or perf_counter() - started + expected > RUN_GUARD_S
        ):
            break
    setup_times += _setup(workload, seed, workdir, SETUP_REPEATS - SETUP_BEFORE)[1]
    frames = sum(u.frames for u in plan)
    pass_estimate = sum(n * statistics.median(unit_wall[k]) for k, n in per_kind.items())
    hota, idf1 = verify.quality_means()
    outcome.metrics = {
        "setup_s": statistics.median(setup_times),
        "frames_per_s": frames / pass_estimate,
        "cpu_s": sum(n * statistics.median(unit_cpu[k]) for k, n in per_kind.items()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "hota": hota,
        "idf1": idf1,
    }
    outcome.report.update(
        setup_samples_s=setup_times,
        passes=done / len(plan),
        timed_s=spent,
        frames_per_pass=frames,
        commands={f"{kind}_s": tail(samples) for kind, samples in command_wall.items()},
        error_rate=outcome.failed / outcome.attempted,
        cpu_to_wall=sum(map(sum, unit_cpu.values())) / spent,
        unit_samples={k: {"wall_s": unit_wall[k], "cpu_s": unit_cpu[k]} for k in per_kind},
    )
    outcome.report["hashes"] = verify.hashes
    return outcome


def _in_process(workload, seed, workdir, tracer) -> tuple[float, list]:
    """One pass of set-up plus every command through frond.cli.main.

    Returns the pass's wall time and (command, exit code, stdout,
    stderr) per command, for checking once the wrappers are gone.
    """
    call = tracer.call if tracer is not None else (lambda _name, fn, *a: fn(*a))
    start = perf_counter()
    build_scenes(workload, seed, workdir)
    wall = perf_counter() - start
    records = []
    for unit in units(workload, workdir, seed):
        for command in unit.commands:
            out, err = io.StringIO(), io.StringIO()
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = call("cli.main", frond.cli.main, list(command.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # keep measuring; the failure is counted and reported
                code, err = "exception", io.StringIO(traceback.format_exc())
            wall += perf_counter() - start
            records.append((command, code, out.getvalue(), err.getvalue()))
    return wall, records


def run_traced(workload: Workload, seed: int, seconds: float, root: Path, workdir: Path, spans_path: Path) -> Outcome:
    """Traced run: per-layer self times and counters from in-process passes.

    Untraced and traced in-process passes alternate until seconds are
    used; times are means over traced passes, and trace.overhead_s is
    the mean traced pass minus the mean untraced pass.
    """
    outcome = Outcome()
    scenes, _ = _setup(workload, seed, workdir, 1)
    verify = _Verifier(workload, workdir, scenes)
    env = child_env(root)
    startup = [
        _run_child(root, env, ("-c", "import frond.cli"))[3] for _ in range(STARTUP_REPEATS)
    ]
    plain, traced = [], []
    started = perf_counter()
    while True:
        wall, records = _in_process(workload, seed, workdir, None)
        plain.append(wall)
        for record in records:
            _count(outcome, verify(*record))
        tracer = layers.Tracer()
        with layers.installed(tracer):
            wall, records = _in_process(workload, seed, workdir, tracer)
        for record in records:
            _count(outcome, verify(*record))
        traced.append(layers.layer_metrics(tracer, wall))
        if len(traced) == 1:
            tracer.dump(spans_path)
            counters = dict(tracer.counters)
        elif dict(tracer.counters) != counters:
            outcome.errors.append(f"trace counters differ between passes: {dict(tracer.counters)} vs {counters}")
        spent = sum(plain) + sum(m["trace.wall_s"] for m in traced)
        if spent * (len(traced) + 1) / len(traced) > seconds or perf_counter() - started + spent / len(traced) > RUN_GUARD_S:
            break
    metrics = {key: statistics.fmean(m[key] for m in traced) for key in traced[0]}
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.fmean(plain)
    outcome.metrics = metrics
    outcome.report.update(
        passes=len(traced),
        startup_samples_s=startup,
        untraced_walls_s=plain,
        error_rate=outcome.failed / outcome.attempted,
        hashes=verify.hashes,
    )
    return outcome


def prepare_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
