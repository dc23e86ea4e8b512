"""Benchmark of `venuenet run`, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload scale-15k --seed 1 --seconds 30 --trace 0

It generates the workload's inputs from the seed, then runs
`python -m venuenet.cli run` in a closed loop, one child process at a time
with PYTHONHASHSEED pinned, until `--seconds` have passed, always finishing
the round it is in. After every run it verifies the manifest hashes; at the
end it checks the outputs and prints the medians of the end-to-end metrics.
Times are reported at a reference CPU speed: a fixed pure-Python loop is
timed on the same CPU before and after each batch of children, and the
children's times are scaled by the loop's reference time over its measured
time, so that a shared host's changing speed cancels out.
With `--trace 1` it instead runs the pipeline in its own process, untraced in
the same closed loop and then once traced, and prints the per-layer metrics.
The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
HASHSEED = "0"
CHILD_TIMEOUT_S = 150
SETUP_SAMPLES_PER_ROUND = 3
# Self time of run_pipeline outside every wrapped function (hashing, small
# writes, stage glue) was 2-5% of it; a larger share means the tracer misses a
# hotspot.
PIPELINE_SELF_MAX_SHARE = 0.25

# On a virtual CPU of a shared host the same code can run up to twice as long
# for seconds to minutes at a time (the host's other tenants decide when), and
# two virtual CPUs of one guest swing independently. The reference loop slows
# with the CPU as the program does, so a child's time times REF_LOOP_S / (the
# loop's time measured around it) is its time at the reference speed, at which
# one pass of the loop takes REF_LOOP_S.
REF_LOOP_ITEMS = 7000
REF_LOOP_PASSES = 12
REF_LOOP_S = 0.005

END_TO_END = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "cpu_ref_s": "s",
    "peak_rss_mb": "MB",
    "pubs_per_ref_s": "pubs/s",
}

Q_SCRIPT = (
    "import sys\n"
    "from venuenet.community import modularity, read_partition\n"
    "from venuenet.exports import load_graph\n"
    "print(repr(modularity(load_graph(sys.argv[1]), read_partition(sys.argv[2]).assignment)))\n"
)


def child_env(hashseed: str = HASHSEED) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hashseed)


def spawn(argv: list[str], env: dict[str, str], log: Path) -> tuple[int, float, float, float]:
    """Run one child to its end; return (exit code, wall s, CPU s, max RSS MB)
    with CPU and RSS from the child's own rusage."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            wall = time.perf_counter() - start
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def ref_loop_s() -> float:
    """Mean time of one pass of a fixed pure-Python loop (string keys, dict
    lookups and inserts, a sort) over REF_LOOP_PASSES passes on this CPU."""
    start = time.perf_counter()
    for _ in range(REF_LOOP_PASSES):
        table: dict[str, int] = {}
        for i in range(REF_LOOP_ITEMS):
            key = f"v{i:05d}"
            table[key] = table.get(key[:-1], 0) + i % 7
        sorted(table.items(), key=lambda kv: kv[1])
    return (time.perf_counter() - start) / REF_LOOP_PASSES


def setup_sample(work: Path) -> float:
    """Wall time of a child that starts Python, imports venuenet.cli and exits."""
    code, wall, _, _ = spawn([sys.executable, "-c", "import venuenet.cli"], child_env(), work / "setup.log")
    if code != 0:
        raise RuntimeError("importing venuenet.cli failed: " + (work / "setup.log").read_text())
    return wall


def q_hashseed_ok(graph: Path, partition: Path, work: Path) -> bool:
    """Q of the same graph and partition, computed by community.modularity in
    two children pinned to different hash seeds, must be bit-identical."""
    values = []
    for hashseed in ("0", "1"):
        log = work / f"q{hashseed}.log"
        code, *_ = spawn([sys.executable, "-c", Q_SCRIPT, str(graph), str(partition)], child_env(hashseed), log)
        values.append(log.read_text().strip() if code == 0 else f"exit {code}")
    return values[0] == values[1] and not values[0].startswith("exit")


class Loop:
    """Closed loop of whole rounds: one pipeline run, then (on workloads
    that carry it) the q-hashseed operation."""

    def __init__(self, inputs, work: Path, seconds: float):
        self.inputs = inputs
        self.work = work
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_out: Path | None = None
        self.hashes: dict[str, str] | None = None
        self.q_files = workloads.write_q_hashseed_input(work / "qhash") if inputs.workload.q_hashseed else None

    def accept(self, out: Path) -> None:
        """Verify a finished run's manifest and that its artifacts equal the
        first run's; keep only the first output directory."""
        try:
            hashes = checks.artifact_hashes(out, bool(self.inputs.workload.slice_years))
        except (checks.CheckError, OSError, KeyError, ValueError) as exc:
            self.errors.append(f"{out.name}: manifest: {exc}")
            return
        if self.hashes is None:
            self.hashes, self.first_out = hashes, out
            return
        if hashes != self.hashes:
            differ = sorted(p for p in set(hashes) | set(self.hashes) if hashes.get(p) != self.hashes.get(p))
            self.errors.append(f"{out.name}: artifacts differ from the first run: {differ}")
        shutil.rmtree(out)

    def run(self, one_run) -> None:
        start = time.perf_counter()
        while True:
            out = self.work / f"out{self.attempted}"
            self.attempted += 1
            if one_run(out):
                self.accept(out)
            else:
                self.failed += 1
            if self.q_files is not None:
                self.attempted += 1
                self.failed += not q_hashseed_ok(*self.q_files, self.work)
            if time.perf_counter() - start >= self.seconds:
                return

    def check(self) -> list[str]:
        if self.first_out is None:
            return self.errors + ["no run finished"]
        failures, notes = checks.check_outputs(self.inputs, self.first_out)
        for note in notes:
            print(f"note: {note}")
        return self.errors + failures


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4f} (q1 {q1:.4f}, q3 {q3:.4f}, min {min(values):.4f}, max {max(values):.4f})"


def run_untraced(inputs, work: Path, seconds: float) -> tuple[Loop, dict[str, float]]:
    # One CPU for this process and every child, so that the reference loop
    # times the core the child runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_sample(work)  # warm-up: the first import in a checkout writes the bytecode cache
    setups, setup_scales, walls, cpus, rss, scales = [], [], [], [], [], []

    def one_run(out: Path) -> bool:
        # Set-up samples in every round spread them over the same window as
        # the runs. The round goes: reference loop, set-up children,
        # reference loop, run child, reference loop; each batch of children
        # is scaled by the mean of the two loops around it.
        before = ref_loop_s()
        batch = [setup_sample(work) for _ in range(SETUP_SAMPLES_PER_ROUND)]
        middle = ref_loop_s()
        setups.extend(batch)
        setup_scales.extend([REF_LOOP_S / ((before + middle) / 2)] * len(batch))
        argv = [sys.executable, "-m", "venuenet.cli", "run", "--config", str(inputs.config_path), "--out-dir", str(out)]
        code, wall, cpu, peak = spawn(argv, child_env(), work / "run.log")
        scale = REF_LOOP_S / ((middle + ref_loop_s()) / 2)
        if code != 0:
            print(f"run failed with exit {code}: {(work / 'run.log').read_text()[-2000:]}", file=sys.stderr)
            return False
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        scales.append(scale)
        return True

    loop = Loop(inputs, work, seconds)
    loop.run(one_run)
    if not walls:
        return loop, {}
    wall_ref = [w * k for w, k in zip(walls, scales)]
    samples = {
        "setup_s": [w * k for w, k in zip(setups, setup_scales)],
        "wall_ref_s": wall_ref,
        "cpu_ref_s": [c * k for c, k in zip(cpus, scales)],
        "peak_rss_mb": rss,
        "pubs_per_ref_s": [inputs.publications / w for w in wall_ref],
        # Raw figures, for reference only.
        "setup_raw_s": setups,
        "wall_s": walls,
        "cpu_s": cpus,
        "ref_loop_ms": [1000 * REF_LOOP_S / k for k in scales],
    }
    for name, values in samples.items():
        print(f"{inputs.workload.name} {name} n={len(values)} median {quartiles(values)}")
    return loop, {name: statistics.median(samples[name]) for name in END_TO_END}


def run_traced(inputs, work: Path, seconds: float) -> tuple[Loop, dict[str, float]]:
    from venuenet import pipeline

    walls = []

    def in_process(out: Path, tracer: tracing.Tracer | None = None) -> bool:
        cfg = pipeline.PipelineConfig.load(inputs.config_path)
        cfg.out_dir = str(out)
        gc.collect()
        call = pipeline.run_pipeline if tracer is None else tracer.span(tracing.ROOT, pipeline.run_pipeline)
        start = time.perf_counter()
        try:
            call(cfg)
        except pipeline.PipelineError as exc:
            print(f"run failed: {exc}", file=sys.stderr)
            return False
        if tracer is None:
            walls.append(time.perf_counter() - start)
        return True

    loop = Loop(inputs, work, seconds)
    loop.run(in_process)
    if not walls:
        return loop, {}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        loop.seconds = 0  # exactly one traced round
        loop.run(lambda out: in_process(out, tracer))
    finally:
        tracer.uninstall()
    values = tracer.metrics(statistics.median(walls))
    if values["pipeline.self_s"] > PIPELINE_SELF_MAX_SHARE * tracer.root_wall():
        loop.errors.append(f"pipeline.self_s is {values['pipeline.self_s']:.4f} s of a {tracer.root_wall():.4f} s "
                           f"traced run_pipeline, over {PIPELINE_SELF_MAX_SHARE:.0%}: some work is not traced")
    print(f"{inputs.workload.name} untraced run_pipeline n={len(walls)} median {quartiles(walls)} s; "
          f"traced {tracer.root_wall():.4f} s")
    for name, unit in tracing.PER_LAYER.items():
        print(f"{inputs.workload.name} {name} [{unit}] {values[name]}")
    return loop, values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs_work = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    try:
        inputs = workloads.generate(workloads.WORKLOADS[name], seed, inputs_work)
        loop, values = (run_traced if trace else run_untraced)(inputs, inputs_work, seconds)
        failures = loop.check()
    finally:
        shutil.rmtree(inputs_work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run's files are still there
            pass
    for failure in failures:
        print(f"CHECK FAILED {name}: {failure}")
    units = tracing.PER_LAYER if trace else END_TO_END
    print(f"{name}: attempted {loop.attempted}, failed {loop.failed}, correct {not failures}")
    return {
        "correct": not failures and bool(values),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items() if n in values},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if args.workload == "all":
        for name, result in results.items():
            print(json.dumps({"workload": name, **result}))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if not (SRC / "venuenet" / "cli.py").is_file():
        print(f"bench: no src/venuenet under {ROOT}; run from the repository root", file=sys.stderr)
        sys.exit(2)
    if os.environ.get("PYTHONHASHSEED") != HASHSEED:
        # Pin the hash seed of this process too, so the in-process traced
        # run writes the same bytes as the pinned CLI children.
        os.execve(sys.executable, [sys.executable, *sys.argv], child_env())
    sys.path.insert(0, str(SRC))
    sys.exit(main())
