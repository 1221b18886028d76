"""Paired benchmark of two checkouts: alternating perfbench runs per workload.

    python3 scripts/bench_pairs.py PARENT CHANGE [--workload W ...]
        [--pairs N] [--seconds S] --json BENCH_<n>.json

PARENT and CHANGE are source checkouts, each with its own perfbench/ and
src/.  For every workload (by default every one in BENCHMARK.json), pair
k = 1 .. N runs `python3 perfbench/run.py --workload W --seed k-1
--seconds S` in each checkout, the parent first in odd-numbered pairs and
the change first in even-numbered ones, so a drift of the host's speed
falls on both sides alike.

Both checkouts import alike, whatever they hold in `__pycache__` and
whatever PYTHONDONTWRITEBYTECODE says: before the first pair, each
checkout's package and the python and numpy modules that perfbench and its
jobs import are compiled once into that checkout's own PYTHONPYCACHEPREFIX
under a temporary directory (page_faults.tree_env, as scripts/page_faults.py
does), and every perfbench run of the checkout, with its jobs, reads its
bytecode from there.  A job that compiled a module itself would count the
compiler in its wall time and peak resident memory.  The checkouts stay
untouched.

A run counts when it exits 0 and prints perfbench's JSON line.  Every run
keeps its exit code, its elapsed time and the tail of its stderr, so a
run that dies leaves its reason.  A pair with a run that does not count
goes to `runs_not_in_pairs` and is run again, at most N extra times per
workload.

The JSON file holds, per workload and per end-to-end metric of
BENCHMARK.json: both sides' values in pair order, their medians and
quartiles, the pairs the change won, the change's relative worsening
against the metric's bound (negative is better), and whether the medians
differ by more than the parent's interquartile range.  Each checkout is
identified by its git commit when it is a git work tree, and always by a
SHA-256 digest of its src/ and perfbench/ files.  The exit code is 0 when
every workload got its N pairs and 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from compare_cli_outputs import package_root
from page_faults import tree_env

STDERR_TAIL = 2000  # characters of stderr kept per run


def source_digest(root: Path, parts=("src", "perfbench")) -> str:
    """SHA-256 over the relative paths and bytes of the checkout's files."""
    digest = hashlib.sha256()
    for part in parts:
        for path in sorted((root / part).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode() + b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()


def identify(root: Path) -> dict:
    ident = {"src_perfbench_sha256": source_digest(root)}
    if (root / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(root), *args], check=True,
                                  capture_output=True, text=True).stdout.strip()
        ident["commit"] = git("rev-parse", "HEAD")
        ident["uncommitted_changes"] = bool(git("status", "--porcelain"))
    return ident


def run_once(root: Path, env: dict, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in the checkout, in its environment env: its exit
    code, elapsed time, stderr tail and, when it printed one, its JSON
    result."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, env=env, capture_output=True, text=True)
    run = {"exit_code": proc.returncode,
           "elapsed_s": round(time.perf_counter() - start, 1),
           "stderr_tail": proc.stderr[-STDERR_TAIL:]}
    lines = proc.stdout.strip().splitlines()
    try:
        run["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run["stdout_tail"] = proc.stdout[-STDERR_TAIL:]
    return run


def counts(run: dict) -> bool:
    return run["exit_code"] == 0 and "result" in run


def summarise(spec: dict, parent: list, change: list) -> dict:
    lower = spec["better"] == "lower"
    p_med, c_med = float(np.median(parent)), float(np.median(change))
    q1, q3 = (float(q) for q in np.percentile(parent, [25, 75]))
    worsening = (c_med - p_med) / p_med if lower else (p_med - c_med) / p_med
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent": parent, "change": change,
        "parent_median": p_med, "change_median": c_med,
        "parent_quartiles": [q1, q3],
        "change_quartiles": [float(q) for q in np.percentile(change, [25, 75])],
        "change_wins": sum((c < p) if lower else (c > p) for p, c in zip(parent, change)),
        "pairs": len(parent),
        "relative_worsening": worsening,
        "worsening_over_bound": worsening / spec["bound"],
        "median_gap_exceeds_parent_iqr": abs(c_med - p_med) > q3 - q1,
    }


def bench_workload(roots: dict, envs: dict, workload: str, pairs: int, seconds: float,
                   metrics: list, stray: list) -> dict:
    kept = []
    attempts = 0
    while len(kept) < pairs and attempts < 2 * pairs:
        attempts += 1
        k = len(kept) + 1
        order = ("parent", "change") if k % 2 else ("change", "parent")
        runs = {}
        for side in order:
            runs[side] = run_once(roots[side], envs[side], workload, k - 1, seconds)
            print(f"{workload} pair {k} {side}: exit {runs[side]['exit_code']},"
                  f" {runs[side]['elapsed_s']} s", file=sys.stderr, flush=True)
        if all(counts(run) for run in runs.values()):
            kept.append((k, order[0], runs))
            continue
        for side in order:
            stray.append({"workload": workload, "pair": k, "seed": k - 1, "side": side,
                          **{key: value for key, value in runs[side].items()
                             if key != "result"}})
    out = {"pairs": [], "metrics": {}}
    for k, first, runs in kept:
        out["pairs"].append({"pair": k, "seed": k - 1, "first": first, **{
            side: {"correct": run["result"]["correct"],
                   "attempted": run["result"]["attempted"],
                   "failed": run["result"]["failed"],
                   "exit_code": run["exit_code"], "elapsed_s": run["elapsed_s"],
                   "stderr_tail": run["stderr_tail"]}
            for side, run in runs.items()}})
    for spec in metrics:
        values = {side: [runs[side]["result"]["metrics"][spec["name"]]["value"]
                         for _, _, runs in kept] for side in roots}
        if kept:
            out["metrics"][spec["name"]] = summarise(spec, values["parent"], values["change"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append",
                        help="a workload of BENCHMARK.json (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--json", required=True, help="file to write the results to")
    args = parser.parse_args(argv)
    roots = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for root in roots.values():
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {root}")
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workloads {unknown}; BENCHMARK.json has {known}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    stray: list = []
    report = {
        "description": (
            f"Paired benchmark of the parent against the change: {args.pairs}"
            " alternating pairs per workload; pair k runs `python3 perfbench/run.py"
            f" --workload W --seed k-1 --seconds {seconds:g}` in each checkout, the"
            " parent first in odd-numbered pairs, and each checkout reads bytecode"
            " compiled once into its own PYTHONPYCACHEPREFIX.  Per end-to-end"
            " metric: each side's values in pair order, medians, quartiles, the"
            " pairs the change won and the relative worsening against the"
            " BENCHMARK.json bound (negative is better).  Written by"
            " scripts/bench_pairs.py."),
        "parent": identify(roots["parent"]),
        "change": identify(roots["change"]),
        "run_seconds": seconds,
        "host": (f"{os.cpu_count()} CPUs, jobs pinned to one CPU by perfbench,"
                 f" python {platform.python_version()}, numpy {np.__version__}"),
        "workloads": {},
        "runs_not_in_pairs": stray,
    }
    complete = True
    with tempfile.TemporaryDirectory() as tmp:
        envs = {side: tree_env(package_root(str(root)), Path(tmp) / "pycache" / side)
                for side, root in roots.items()}
        for workload in workloads:
            got = bench_workload(roots, envs, workload, args.pairs, seconds,
                                 spec["end_to_end"], stray)
            report["workloads"][workload] = got
            complete &= len(got["pairs"]) == args.pairs
            Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
            for name, m in got["metrics"].items():
                print(f"{workload:18s} {name:18s} {m['parent_median']:12.6g}"
                      f" -> {m['change_median']:12.6g}"
                      f"  wins {m['change_wins']}/{m['pairs']}"
                      f"  over bound {m['worsening_over_bound']:+.3f}")
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
