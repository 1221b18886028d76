"""The skewform benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the package is imported from
the checkout's src/ directory and nothing is installed.  One run repeats
the workload's CLI job (a fresh `skewform` process each time, with the
same seeded inputs) until --seconds have passed, checks every job's exit
code and outputs (checks.py), and prints one JSON object as its last line:

    {"correct": ..., "attempted": jobs, "failed": jobs, "metrics": {...}}

failed/attempted is the failed fraction; it is printed, not a metric.

The host's vCPUs switch between a fast and a slow state every few seconds
(probe.py).  The benchmark and its jobs run pinned to one CPU, a reference
kernel is sampled on that CPU while each job runs, and every time below is
divided by the job's slowness (rates multiplied by it): the metrics are at
the reference speed.  The figures as taken are printed beside them.

--trace 0: end-to-end metrics over the untraced jobs, from a few hundred
timestamps per job (child.py, light hooks):
    wall_s            median job wall time, process start to exit
    setup_s           median time from process start to the first unit of
                      work: entry to timeint.march, or the first verify suite
    step_ms_p50       median over jobs of the mean iteration time (see
                      e2e_metrics); an iteration is one march step, timed
                      between rk4_step entries and from the last one to
                      march returning, or for verify the work on one
                      operator set
    step_ms_p90       90th percentile of all iterations of the run; it has
                      at least 10 iterations beyond it on swe_inflow_65 and
                      verify_all, fewer on swe_periodic_257
    node_steps_per_s  grid nodes x iterations / time inside march (verify:
                      nodes of the operator sets built / time in the suites)
    peak_rss_mb       median peak resident memory of the job process

--trace 1: per-layer metrics (per_layer_specs).  Jobs alternate untraced
and traced; a traced job wraps every function in child.LAYERS, and the
metrics are medians over the traced jobs: calls and self time per
function, the apply's flop and byte counts computed from nnz(D) and the
array sizes, output bytes, exact work ratios per march step, the share of
timeint.march covered by wrapped calls (its self time is the untraced
remainder), and the tracing overhead against the untraced jobs.  The spans
of the first traced job are written to .perfbench_work/ when it ends.

Every workload's working set fits the host's 300 MiB L3 (the largest is
the 9.5 MB coefficient field of swe_periodic_257), so the byte counts are
computed traffic, not DRAM traffic, and no bandwidth or roofline ratio is
reported; a bandwidth test would need arrays of at least 1.2 GB.

Each job's median kernel time and slowness are printed, so a slow machine
can be told from a slow change; they are context, not metrics.

The exit code is 0 when every job was correct, 1 when any failed, and 2
when the checkout holds no program to run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from child import LAYERS
from probe import Probe
from workloads import DEFAULT_SEED, WORKLOADS, Job, make_job, materialise

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# A run ends within this many seconds whatever --seconds asks for.
RUN_LIMIT_S = 170.0

E2E = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("node_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

RESIDUAL_EVALS = ("spatial_op.eval_primal_residual", "spatial_op.eval_dual_residual",
                  "spatial_op.eval_new_linearised_pair")


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    specs = []
    for module, names in LAYERS.items():
        for name in names:
            specs.append((f"{module}.{name}.calls", "count", "lower"))
            specs.append((f"{module}.{name}.self_s", "s", "lower"))
    specs += [
        ("sbp_core.apply_derivative.flop_computed", "flop", "lower"),
        ("sbp_core.apply_derivative.bytes_computed", "B", "lower"),
        ("cli.output_bytes", "B", "lower"),
        ("spatial_op.residual_evals_per_step", "ratio", "lower"),
        ("sbp_core.apply_derivative.calls_per_step", "ratio", "lower"),
        ("models.check_admissible.calls_per_residual", "ratio", "lower"),
        ("timeint.march.covered_frac", "ratio", "higher"),
        ("trace_overhead_frac", "ratio", "lower"),
    ]
    return specs


@dataclass
class JobRun:
    job: Job
    traced: bool
    code: int
    t0: float  # monotonic stamp just before the process was started
    wall_s: float
    rss_mb: float
    slowness: float  # mean kernel time over the reference (probe.py)
    kernel_ms: float  # median kernel time while the job ran
    result: dict | None
    problems: list[str]
    hashes: dict = field(default_factory=dict)
    output_bytes: int = 0


def run_job(job: Job, traced: bool, workdir: Path, deadline: float,
            spans_path: Path | None = None) -> JobRun:
    """Runs one CLI job in its own process and checks its outputs."""
    argv, out = materialise(job, workdir)
    result_path = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"),
           "trace" if traced else "light", str(result_path)]
    if spans_path is not None:
        cmd.append(str(spans_path))
    cmd += ["--", *argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # Trial threads in verify would interleave the tracer's spans.
    env.pop("SKEWFORM_THREADS", None)
    with (open(workdir / "stdout.txt", "w") as so, open(workdir / "stderr.txt", "w") as se,
          Probe() as probe):
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=so, stderr=se)
        watchdog = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.monotonic() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)

    stdout = (workdir / "stdout.txt").read_text()
    result = None
    if result_path.is_file():
        result = json.loads(result_path.read_text())
    problems = checks.check_job(job, code, stdout, out)
    if code == 0 and result is None:
        problems.append("the job wrote no timing result")
    if result is not None and not Path(result["package"]).resolve().is_relative_to(SRC):
        problems.append(f"imported skewform from {result['package']}, not {SRC}")
    if problems:
        tail = (workdir / "stderr.txt").read_text().strip().splitlines()[-5:]
        problems += [f"stderr: {line}" for line in tail]
    run = JobRun(job=job, traced=traced, code=code, t0=t0, wall_s=wall,
                 rss_mb=usage.ru_maxrss / 1024.0, slowness=probe.slowness(),
                 kernel_ms=float(np.median(probe.samples)) * 1e3,
                 result=result, problems=problems,
                 hashes=checks.hash_outputs(job, out),
                 output_bytes=checks.output_bytes(job, out))
    shutil.rmtree(workdir)
    return run


def measure(job: Job, seconds: float, trace: bool, rundir: Path) -> list[JobRun]:
    """Repeats the job until `seconds` have passed.  With tracing on the
    jobs alternate untraced, traced, untraced, ...; both kinds run at least
    once."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    spans_path = WORK / f"spans-{job.workload}-seed{job.seed}.json"
    runs: list[JobRun] = []
    while True:
        traced = trace and len(runs) % 2 == 1
        first_traced = traced and not any(r.traced for r in runs)
        runs.append(run_job(job, traced, rundir / f"job{len(runs)}", deadline,
                            spans_path if first_traced else None))
        now = time.monotonic()
        longest = max(r.wall_s for r in runs)
        enough = now - start >= seconds and (not trace or len(runs) >= 2)
        if enough or now + 1.5 * longest > deadline:
            return runs


def gate_bytes(runs: list[JobRun], seed: int) -> None:
    """Adds byte-gate problems: every job of the run must match the stored
    hashes (default seed) or else the first job's."""
    stored = checks.expected_hashes(runs[0].job.workload, seed)
    reference, what = stored, f"the stored hash for seed {seed}"
    if reference is None:
        reference, what = runs[0].hashes, "the run's first job"
    for run in runs:
        if run.code == 0:
            run.problems += checks.byte_problems(run.hashes, reference, what)


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _march_samples(ev: dict):
    """Iteration times between successive rk4_step entries and from the
    last one to march returning; node-steps per second inside march."""
    steps, rates = [], []
    for start, end, nodes in ev["march"]:
        stamps = [t for t in ev["steps"] if start <= t <= end]
        steps += list(np.diff(stamps + [end]))
        rates.append(nodes * len(stamps) / (end - start))
    return ev["march"][0][0], steps, rates


def _verify_samples(ev: dict):
    """A verify iteration is the work on one operator set: the time between
    successive operator builds, split at suite boundaries (a suite that
    builds none is one iteration).  Node-steps are the grid nodes of the
    operator sets built, per second inside the suites."""
    steps, node_steps, busy = [], 0, 0.0
    for start, end in ev["suites"]:
        builds = [(t, n) for t, n in ev["builds"] if start <= t <= end]
        marks = [t for t, _ in builds] or [start]
        steps += list(np.diff(marks + [end]))
        node_steps += sum(n for _, n in builds)
        busy += end - start
    return min(s for s, _ in ev["suites"]), steps, [node_steps / busy]


def e2e_metrics(runs: list[JobRun], normalise: bool = True
                ) -> tuple[dict[str, float], int]:
    """End-to-end metrics over the run's untraced jobs, and the number of
    iterations they pooled; with normalise, each job's times are divided by
    its slowness and its rates multiplied by it.

    step_ms_p50 is the median over jobs of each job's mean iteration time,
    and step_ms_p90 the 90th percentile of all iterations pooled.  On a
    shared host iterations run in fast and slow phases lasting seconds, so
    the median of single iterations jumps between the two phases from run
    to run; a job's mean moves only with the share of slow phases.
    """
    good = [r for r in runs if not r.problems and not r.traced]
    walls, setups, job_means, steps, rates = [], [], [], [], []
    for run in good:
        slow = run.slowness if normalise else 1.0
        ev = run.result["events"]
        first, samples, job_rates = (_march_samples(ev) if ev["march"]
                                     else _verify_samples(ev))
        walls.append(run.wall_s / slow)
        setups.append((first - run.t0) / slow)
        job_means.append(float(np.mean(samples)) / slow)
        steps += [s / slow for s in samples]
        rates += [r * slow for r in job_rates]
    return {
        "wall_s": _median(walls),
        "setup_s": _median(setups),
        "step_ms_p50": _median(job_means) * 1e3,
        "step_ms_p90": float(np.percentile(steps, 90)) * 1e3 if steps else 0.0,
        "node_steps_per_s": _median(rates),
        "peak_rss_mb": _median([r.rss_mb for r in good]),
    }, len(steps)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(run: JobRun) -> dict[str, float]:
    """Per-layer values of one traced job, self times at the reference
    speed."""
    layers = run.result["layers"]
    out = {}
    for name, (calls, _, self_s) in layers.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s / run.slowness
    flop, nbytes = run.result["work"]["sbp_core.apply_derivative"]
    steps = layers["timeint.rk4_step"][0]
    residuals = sum(layers[name][0] for name in RESIDUAL_EVALS)
    _, march_total, march_self = layers["timeint.march"]
    out.update({
        "sbp_core.apply_derivative.flop_computed": flop,
        "sbp_core.apply_derivative.bytes_computed": nbytes,
        "cli.output_bytes": run.output_bytes,
        "spatial_op.residual_evals_per_step": _ratio(residuals, steps),
        "sbp_core.apply_derivative.calls_per_step":
            _ratio(layers["sbp_core.apply_derivative"][0], steps),
        "models.check_admissible.calls_per_residual":
            _ratio(layers["models.check_admissible"][0], residuals),
        "timeint.march.covered_frac": _ratio(march_total - march_self, march_total),
    })
    return out


def layer_metrics(runs: list[JobRun]) -> dict[str, float]:
    traced = [layer_values(r) for r in runs if r.traced and not r.problems]
    plain = [(r.result["cli_done"] - r.t0) / r.slowness for r in runs
             if not r.traced and not r.problems]
    hooked = [(r.result["cli_done"] - r.t0) / r.slowness for r in runs
              if r.traced and not r.problems]
    metrics = {}
    for name, _, _ in per_layer_specs():
        if name == "trace_overhead_frac":
            metrics[name] = _ratio(_median(hooked) - _median(plain), _median(plain))
        else:
            metrics[name] = _median([values[name] for values in traced])
    return metrics


def report_jobs(runs: list[JobRun]) -> None:
    for k, run in enumerate(runs):
        kind = "traced" if run.traced else "plain"
        state = "ok" if not run.problems else "FAILED"
        print(f"job {k} {kind:6s} wall {run.wall_s:8.3f} s  rss {run.rss_mb:7.1f} MB"
              f"  kernel {run.kernel_ms:5.2f} ms  slowness {run.slowness:5.3f}  {state}")
        for problem in run.problems:
            print(f"    {problem}")
    slow = [run.slowness for run in runs]
    print(f"machine speed (context, not a metric): slowness median {np.median(slow):.3f},"
          f" min {min(slow):.3f}, max {max(slow):.3f} over {len(slow)} jobs")


def report_layers(metrics: dict[str, float]) -> None:
    rows = [(metrics[f"{m}.{n}.self_s"], metrics[f"{m}.{n}.calls"], f"{m}.{n}")
            for m, names in LAYERS.items() for n in names]
    print(f"{'layer function':48s} {'calls':>9s} {'self_s':>10s}")
    for self_s, calls, name in sorted(rows, reverse=True):
        if calls:
            print(f"{name:48s} {calls:9.0f} {self_s:10.4f}")
    print(f"untraced remainder inside timeint.march: {metrics['timeint.march.self_s']:.4f} s"
          f" (covered share {metrics['timeint.march.covered_frac']:.4f})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "skewform" / "cli.py").is_file():
        print(f"no skewform sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(SRC / "skewform", quiet=1)
    # The probe must run on the CPU the jobs run on (probe.py); children
    # inherit the mask.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    job = make_job(args.workload, args.seed)
    try:
        runs = measure(job, args.seconds, bool(args.trace), rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    gate_bytes(runs, args.seed)

    failed = sum(1 for r in runs if r.problems)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}:"
          f" {len(runs)} jobs, failed {failed}/{len(runs)}"
          f" (failed_frac {failed / len(runs):g})")
    report_jobs(runs)
    if args.trace:
        values = layer_metrics(runs)
        specs = per_layer_specs()
        report_layers(values)
        for name, unit, _ in specs:
            print(f"{name:48s} {values[name]:.6g} {unit}")
    else:
        values, samples = e2e_metrics(runs)
        taken, _ = e2e_metrics(runs, normalise=False)
        specs = [(name, unit, None) for name, unit in E2E]
        print(f"iterations pooled: {samples}"
              + ("" if samples >= 100 else "; fewer than 10 lie beyond step_ms_p90"))
        print(f"{'metric (at reference speed)':48s} {'value':>12s}   as taken")
        for name, unit in E2E:
            print(f"{name:48s} {values[name]:12.6g}   {taken[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in specs},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
