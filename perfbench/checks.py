"""Correctness and byte gate for one CLI job.

A job fails on a non-zero exit, a verify suite that does not PASS, a
report row whose |volume_residual| exceeds 1e-12 (1 + |rate| +
|boundary_flux|), a missing or short output file, or output bytes that
differ from those of the same seed (another job of the run, or the hashes
stored for the default seed).
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from workloads import Job

# sha256 of each output file for the default seed, made by the code the
# benchmark was defined on.  A change that alters output bytes on purpose
# replaces the entry with the hashes its failing run prints, and says so.
EXPECTED_HASHES = Path(__file__).resolve().parent / "expected_hashes.json"

VOLUME_TOL = 1e-12


def hash_outputs(job: Job, out: Path) -> dict[str, str]:
    """sha256 of each output file the job should have written."""
    hashes = {}
    for name in job.outputs:
        path = out / name
        if path.is_file():
            hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def output_bytes(job: Job, out: Path) -> int:
    return sum((out / name).stat().st_size for name in job.outputs
               if (out / name).is_file())


def _check_reports(job: Job, path: Path) -> list[str]:
    problems = []
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    col = {name: header.index(name)
           for name in ("rate", "boundary_flux", "volume_residual")}
    if len(body) != job.reports:
        problems.append(f"{path.name}: {len(body)} report rows, expected"
                        f" {job.reports}")
    for lineno, row in enumerate(body, start=2):
        rate = float(row[col["rate"]])
        flux = float(row[col["boundary_flux"]])
        vr = float(row[col["volume_residual"]])
        if not abs(vr) <= VOLUME_TOL * (1.0 + abs(rate) + abs(flux)):
            problems.append(f"{path.name}:{lineno}: |volume_residual| {abs(vr):.3e}"
                            f" exceeds {VOLUME_TOL:g}*(1+|rate|+|boundary_flux|)")
    return problems


def _check_final_state(job: Job, path: Path) -> list[str]:
    with open(path) as fh:
        nodes = sum(1 for line in fh if not line.startswith("#"))
    if nodes != job.nodes:
        return [f"{path.name}: {nodes} node lines, expected {job.nodes}"]
    return []


def _check_verify(stdout: str, out: Path) -> list[str]:
    problems = []
    lines = [line for line in stdout.splitlines() if "max residual" in line]
    if len(lines) != 5:
        problems.append(f"verify printed {len(lines)} suite lines, expected 5")
    problems += [f"suite did not pass: {line.strip()}" for line in lines
                 if " PASS " not in line]
    if "5/5 suites passed" not in stdout:
        problems.append("verify did not report 5/5 suites passed")
    with open(out / "checks.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 5 or any(row["passed"] != "1" for row in rows):
        problems.append("checks.csv does not hold 5 passing suites")
    return problems


def check_job(job: Job, code: int, stdout: str, out: Path) -> list[str]:
    """Problems with one job's exit code and outputs (empty when correct)."""
    problems = [f"exit code {code}"] if code != 0 else []
    missing = [name for name in job.outputs if not (out / name).is_file()]
    if missing:
        return problems + [f"missing output {name}" for name in missing]
    if job.workload == "verify_all":
        return problems + _check_verify(stdout, out)
    for name in job.outputs:
        if name.endswith(".csv"):
            problems += _check_reports(job, out / name)
        else:
            problems += _check_final_state(job, out / name)
    return problems


def byte_problems(hashes: dict, reference: dict, what: str) -> list[str]:
    """One line per output file whose hash differs from the reference."""
    return [f"{name}: sha256 {hashes.get(name, 'missing')} differs from"
            f" {what} {ref}"
            for name, ref in sorted(reference.items()) if hashes.get(name) != ref]


def expected_hashes(workload: str, seed: int) -> dict | None:
    """Stored hashes for this workload and seed, or None if none are kept."""
    stored = json.loads(EXPECTED_HASHES.read_text())
    entry = stored.get(workload)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["files"]
