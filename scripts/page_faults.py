"""Minor page faults and wall time of the benchmark's march jobs, per tree.

    python3 scripts/page_faults.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are checkouts (or their src/ directories).  For
each march workload of perfbench/workloads.py, the seed-0 job runs once per
tree, parent first, in a fresh python process pinned to one CPU (the
lowest of this process's affinity set) that calls `skewform.cli.main` in
process.  The child prints the job's exit code, its wall time, the minor
page faults (`ru_minflt`) the job took and the process's peak resident
memory; the imports before the job are not counted.

Minor faults show how often the allocator hands pages back to the kernel
and faults them in again: glibc raises its mmap threshold to the largest
mmapped block that is freed, so removing one large array can move every
residual's temporaries from a kept heap to fresh pages.  The exit code is
0 when every job exited 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave perfbench/ as it is checked out
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import DEFAULT_SEED, WORKLOADS, make_job, materialise  # noqa: E402
from compare_cli_outputs import package_root  # noqa: E402

CHILD = """\
import json, os, resource, sys, time
os.sched_setaffinity(0, {int(sys.argv[1])})
from skewform.cli import main
argv = json.loads(sys.argv[2])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
start = time.perf_counter()
code = main(argv)
wall = time.perf_counter() - start
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({"exit": code, "wall_s": wall, "minflt": usage.ru_minflt - before,
                  "peak_rss_mb": usage.ru_maxrss / 1024.0}))
"""


def run_job(root: Path, job, workdir: Path, cpu: int) -> dict:
    argv, _ = materialise(job, workdir)
    env = dict(os.environ, PYTHONPATH=str(root), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, str(cpu), json.dumps(argv)],
                          cwd=workdir, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit": proc.returncode, "error": proc.stderr.strip()[-500:]}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    roots = {"parent": package_root(args.parent), "change": package_root(args.change)}
    cpu = min(os.sched_getaffinity(0))
    marches = [make_job(name, DEFAULT_SEED) for name in WORKLOADS]
    marches = [job for job in marches if job.nodes]
    bad = 0
    print(f"{'workload':<18} {'tree':<7} {'exit':>4} {'wall_s':>8}"
          f" {'minflt':>9} {'peak_rss_mb':>11}")
    with tempfile.TemporaryDirectory() as tmp:
        for job in marches:
            for tree, root in roots.items():
                got = run_job(root, job, Path(tmp) / tree / job.workload, cpu)
                if got["exit"] != 0:
                    bad += 1
                    print(f"{job.workload:<18} {tree:<7} {got['exit']:>4}"
                          f"  {got.get('error', '')}")
                    continue
                print(f"{job.workload:<18} {tree:<7} {got['exit']:>4}"
                      f" {got['wall_s']:>8.3f} {got['minflt']:>9d}"
                      f" {got['peak_rss_mb']:>11.1f}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
