"""Seeded inputs for the benchmark workloads.

Each workload turns a seed into one CLI job: the argument list for
``skewform`` and, for the marches, the text of the ``.cfg`` it reads.  The
program sees nothing else.  Every draw stays inside ranges that are
admissible (depth >= 0.5 everywhere) and CFL-safe at the default
``cfl = 0.2``, both for the splitting-matrix radius the guard uses today
and for the characteristic speed |u_n| + sqrt(phi), so no seed makes a
job fail.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("swe_periodic_257", "swe_inflow_65", "verify_all")

# Seed the benchmark uses when none is given; its output hashes are stored
# in expected_hashes.json.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Job:
    """One CLI invocation of a workload."""

    workload: str
    seed: int
    argv: tuple[str, ...]  # after the program name; {out} is the output dir
    config: str | None  # .cfg text written to {cfg} before the job
    nodes: int  # grid nodes of a march (0 for verify)
    reports: int  # energy report rows the march writes (0 for verify)
    outputs: tuple[str, ...]  # files the job writes into {out}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _pick(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _factor(rng: random.Random) -> str:
    return f"{rng.choice(('sin', 'cos'))}:{rng.randint(1, 3)}"


def _trig(rng: random.Random, offset: float, amp: float) -> str:
    """A trig component: offset + amp * f_x(k_x x) * f_y(k_y y)."""
    return f"{offset!r} {amp!r} {_factor(rng)} {_factor(rng)}"


def _swe_config(*, prefix, shape, periodic, alpha, beta, f0, f1, dt, steps,
                stride, comps, sat=None) -> str:
    t_final = dt * steps
    lines = [
        "[model]", "kind = swe2d", f"alpha = {alpha!r}", f"beta = {beta!r}",
        f"f0 = {f0!r}", f"f1 = {f1!r}", "",
        "[grid]", "extents = 0,1 / 0,1", f"shape = {shape} / {shape}",
        f"periodic = {periodic}", "",
        "[scheme]", "order = 4,2", "mode = nonlinear", f"dt = {dt!r}",
        f"t_final = {t_final!r}", f"stride = {stride}", "",
        "[initial]", "family = trig", "variables = primitive",
        *(f"comp{c} = {text}" for c, text in enumerate(comps)), "",
    ]
    if sat:
        lines += ["[sat]", *sat, ""]
    lines += ["[output]", f"prefix = {prefix}", ""]
    return "\n".join(lines)


def swe_periodic_257(seed: int) -> Job:
    """Nonlinear (4,2) swe2d on a 257^2 doubly periodic grid with Coriolis.

    Ten RK4 steps; the stride covers the whole march, so only the t = 0
    and final reports are written.  dt = 2.5e-4 against h = 1/257 keeps
    dt below half the CFL limit for speeds up to 2 (the largest the drawn
    ranges reach is about 1.8).
    """
    rng = _rng("swe_periodic_257", seed)
    steps = 10
    comps = (
        _trig(rng, _pick(rng, 1.0, 1.4), _pick(rng, 0.05, 0.25)),
        _trig(rng, _pick(rng, -0.3, 0.3), _pick(rng, 0.05, 0.2)),
        _trig(rng, _pick(rng, -0.3, 0.3), _pick(rng, 0.05, 0.2)),
    )
    cfg = _swe_config(
        prefix="swe_periodic_257", shape=257, periodic="true / true",
        alpha=_pick(rng, 0.25, 0.75), beta=_pick(rng, 0.25, 0.75),
        f0=_pick(rng, 0.2, 1.0), f1=_pick(rng, 0.1, 0.5),
        dt=0.00025, steps=steps, stride=steps, comps=comps,
    )
    return Job("swe_periodic_257", seed,
               ("run", "--config", "{cfg}", "--out-dir", "{out}"),
               cfg, 257 * 257, 2,
               ("swe_periodic_257.csv", "swe_periodic_257_final.txt"))


def swe_inflow_65(seed: int) -> Job:
    """Nonlinear (4,2) swe2d on 65^2, bounded in x and periodic in y.

    A two-condition inflow SAT closes x_low with boundary data taken from
    the mean inflow state; x_high is open.  Reports at every step.  The
    mean normal velocity of at least 0.5 keeps every inflow node strictly
    inflow, and dt = 1e-3 against h = 1/65 keeps dt below 0.7 of the CFL
    limit for the largest speed the ranges reach (about 2.1).
    """
    rng = _rng("swe_inflow_65", seed)
    steps = 150
    phi0, u0, v0 = _pick(rng, 0.9, 1.2), _pick(rng, 0.5, 0.9), _pick(rng, -0.2, 0.2)
    comps = (
        _trig(rng, phi0, _pick(rng, 0.02, 0.08)),
        _trig(rng, u0, _pick(rng, 0.0, 0.05)),
        _trig(rng, v0, _pick(rng, 0.0, 0.05)),
    )
    # Boundary data of the mean state: a2 = U_n^2 + phi^2, a3 = U_n U_tau
    # with U = sqrt(phi) (u, v); the closure takes g2 = a2^(1/2) and
    # g3 = |a3|^(1/2).
    root = math.sqrt(phi0)
    g2 = math.sqrt((root * u0) ** 2 + phi0 ** 2)
    g3 = math.sqrt(abs(root * u0 * root * v0))
    cfg = _swe_config(
        prefix="swe_inflow_65", shape=65, periodic="false / true",
        alpha=_pick(rng, 0.25, 0.75), beta=_pick(rng, 0.25, 0.75),
        f0=_pick(rng, 0.2, 1.0), f1=_pick(rng, 0.1, 0.5),
        dt=0.001, steps=steps, stride=1, comps=comps,
        sat=(f"x_low = swe_two_condition g2={g2!r} g3={g3!r} scale=1.0",
             "x_high = none"),
    )
    return Job("swe_inflow_65", seed,
               ("run", "--config", "{cfg}", "--out-dir", "{out}"),
               cfg, 65 * 65, steps + 1,
               ("swe_inflow_65.csv", "swe_inflow_65_final.txt"))


def verify_all(seed: int) -> Job:
    """`skewform verify all` at the default trial count."""
    return Job("verify_all", seed,
               ("verify", "all", "--seed", str(seed), "--out-dir", "{out}"),
               None, 0, 0, ("checks.csv",))


_MAKERS = {
    "swe_periodic_257": swe_periodic_257,
    "swe_inflow_65": swe_inflow_65,
    "verify_all": verify_all,
}


def make_job(workload: str, seed: int) -> Job:
    return _MAKERS[workload](seed)


def materialise(job: Job, workdir: Path) -> tuple[list[str], Path]:
    """Writes the job's config into workdir and returns (argv, out_dir)."""
    out = workdir / "out"
    out.mkdir(parents=True, exist_ok=True)
    cfg = workdir / f"{job.workload}.cfg"
    if job.config is not None:
        cfg.write_text(job.config)
    argv = [a.format(cfg=cfg, out=out) for a in job.argv]
    return argv, out
