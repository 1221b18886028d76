"""Minor page faults and wall time of the benchmark's jobs, per tree and phase.

    python3 scripts/page_faults.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are checkouts (or their src/ directories).  For
each workload of perfbench/workloads.py, the seed-0 job runs once per tree,
parent first, in a fresh python process pinned to one CPU (the lowest of
this process's affinity set) that calls `skewform.cli.main` in process.
The child prints the job's exit code, its wall time, the minor page faults
(`ru_minflt`) the whole job took, those taken inside the march and inside
the final-state write, the peak resident memory (`ru_maxrss`) after
`from skewform import cli` and before the job (import_rss_mb), that peak
when the march is entered, and the process's peak resident memory
(peak_rss_mb); the page faults of the imports before the job are not
counted, but both later peaks include import_rss_mb.  The peak at the
march's entry is what the setup reached, so a peak above it was reached in
the march or after it.
The phases are counted by rebinding `cli.march` and `cli.write_final_state`
in the child, as the light hooks of perfbench/child.py rebind the functions
they time; verify_all has neither phase, so it reports the whole job only.

The children read bytecode, whether or not a checkout holds `__pycache__`:
before any job, each tree's modules, and the modules of python and numpy
that its jobs import, are compiled once into that tree's own
PYTHONPYCACHEPREFIX under the temporary directory, and the tree's children
run with it.  The checkouts stay untouched.  A child that compiled its
imports itself would count that work in its peak resident memory.

Minor faults show how often the allocator hands pages back to the kernel
and faults them in again: glibc raises its mmap threshold to the largest
mmapped block that is freed, and trims the heap top when more than twice
that is free, so a march that frees and regrows its fields every step can
fault in fresh pages at each step.  The exit code is 0 when every job
exited 0.
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
from skewform import cli


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


import_rss_mb = maxrss_mb()


phases = {}
entry_rss_mb = {}


def counted(phase, fn):
    phases[phase] = None
    entry_rss_mb[phase] = None

    def wrapper(*args, **kwargs):
        if entry_rss_mb[phase] is None:
            entry_rss_mb[phase] = maxrss_mb()
        before = minflt()
        try:
            return fn(*args, **kwargs)
        finally:
            phases[phase] = (phases[phase] or 0) + minflt() - before
    return wrapper


cli.march = counted("march", cli.march)
cli.write_final_state = counted("write", cli.write_final_state)
argv = json.loads(sys.argv[2])
before = minflt()
start = time.perf_counter()
code = cli.main(argv)
wall = time.perf_counter() - start
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({"exit": code, "wall_s": wall, "minflt": usage.ru_minflt - before,
                  **phases, "import_rss_mb": import_rss_mb,
                  "march_entry_rss_mb": entry_rss_mb["march"],
                  "peak_rss_mb": usage.ru_maxrss / 1024.0}))
"""


# What a child imports before and during its job: the march's text files
# need locale, and verify's generators numpy.random.  The rest is what
# perfbench/run.py and its job script perfbench/child.py import, so that
# scripts/bench_pairs.py can give perfbench the same compiled tree.
IMPORTS = ("import argparse, compileall, csv, dataclasses, hashlib, importlib, json,"
           " locale, math, os, pathlib, random, resource, shutil, subprocess, sys,"
           " tempfile, threading, time, numpy.random\nfrom skewform import cli")


def tree_env(root: Path, pycache: Path) -> dict:
    """The environment of root's children, with its imports compiled into
    pycache by one process first."""
    env = dict(os.environ, PYTHONPATH=str(root), PYTHONPYCACHEPREFIX=str(pycache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run([sys.executable, "-c", IMPORTS], env=env, capture_output=True)
    return env


def run_job(env: dict, job, workdir: Path, cpu: int) -> dict:
    argv, _ = materialise(job, workdir)
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
    jobs = [make_job(name, DEFAULT_SEED) for name in WORKLOADS]
    bad = 0
    print(f"{'workload':<18} {'tree':<7} {'exit':>4} {'wall_s':>8} {'march':>8}"
          f" {'write':>8} {'job':>8} {'import_rss_mb':>13} {'march_rss_mb':>12}"
          f" {'peak_rss_mb':>11}")
    with tempfile.TemporaryDirectory() as tmp:
        envs = {tree: tree_env(root, Path(tmp) / "pycache" / tree)
                for tree, root in roots.items()}
        for job in jobs:
            for tree, env in envs.items():
                got = run_job(env, job, Path(tmp) / tree / job.workload, cpu)
                if got["exit"] != 0:
                    bad += 1
                    print(f"{job.workload:<18} {tree:<7} {got['exit']:>4}"
                          f"  {got.get('error', '')}")
                    continue
                march, write = (("-" if got[phase] is None else got[phase])
                                for phase in ("march", "write"))
                entry = got["march_entry_rss_mb"]
                entry = "-" if entry is None else f"{entry:.1f}"
                print(f"{job.workload:<18} {tree:<7} {got['exit']:>4}"
                      f" {got['wall_s']:>8.3f} {march:>8} {write:>8}"
                      f" {got['minflt']:>8d} {got['import_rss_mb']:>13.1f} {entry:>12}"
                      f" {got['peak_rss_mb']:>11.1f}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
