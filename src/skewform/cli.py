"""Command line front-end.

Subcommands:
    verify            run the seeded identity check suites
    run               march (or statically sample) a configured scenario
    analyze-boundary  eigen-count boundary conditions for one face state
    convergence       refinement study on a configured scenario

Configs are plain text, line oriented, with [section] headers and
key = value pairs; '#' starts a full-line comment.  Each scheme mode is one
row of _RUNS, the runs it marches, and reads only the fields they name.
Unknown sections or keys, and input the mode never reads, are rejected
with the offending line number.  All outputs are plain CSV / text so runs
diff cleanly; identical config and seed give identical bytes per build
configuration.

Exit status: 0 success, 1 failing checks, a failed run or a closed stdout
(every file is written before a job prints), 2 usage or config errors.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import os
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from .boundary import (
    ANALYSIS_CSV_HEADER,
    analysis_csv_row,
    analysis_table,
    analyze_boundary,
    make_sat_config,
)
from .energy import energy_report
from .models import (MODEL_KINDS, MODEL_PARAMS, make_model, sample_state, swe_inverse,
                     swe_transform, with_params)
from .sbp_core import (ACCURACIES, ArgumentError, build_operators, face_label, faces,
                       make_grid)
from .timeint import MEAN_MODES, Scenario, march, validate_scenario
from .verify import (
    CHECK_CSV_HEADER,
    CHECKS,
    ansatz_defect,
    check_csv_row,
    format_check_line,
)

# Each scheme mode the runner accepts and the runs it marches: (name suffix,
# march mode, section of the marched state, section of its mean or None).
_RUNS = {
    "nonlinear": (("", "nonlinear", "initial", None),),
    "frozen": (("", "frozen", "initial", "coefficient"),),
    "new_linearised_coupled": (("", "new_linearised_coupled", "perturbation", "initial"),),
    "standard_linearised": (("", "standard_linearised", "perturbation", "coefficient"),),
    "dual": (("", "dual", "initial", "coefficient"),),
    "identity": (),
    "standard_vs_new": (("_standard", "standard_linearised", "perturbation", "coefficient"),
                        ("_new", "new_linearised_coupled", "perturbation", "coefficient")),
}
RUN_MODES = tuple(_RUNS)

_FIELD_KEYS = frozenset({"family", "variables"} | {f"comp{i}" for i in range(4)})

_SCHEMA = {
    "model": frozenset({"kind", *MODEL_PARAMS}),
    "grid": frozenset({"extents", "shape", "periodic"}),
    "scheme": frozenset({"order", "mode", "dt", "t_final", "stride", "cfl"}),
    "initial": _FIELD_KEYS,
    "coefficient": _FIELD_KEYS,
    "perturbation": _FIELD_KEYS,
    "sat": None,
    "identity": frozenset({"trials", "seed", "mode"}),
    "output": frozenset({"prefix"}),
}


class ConfigError(Exception):
    """Config parse or consistency error, message carries file:line."""


def _number(text, where, kind=float, error=ConfigError):
    """text as a finite float, or an int for kind=int.  Anything else
    raises error, naming where (see Config.at, or a command line option)."""
    try:
        value = kind(text)
        if kind is int or math.isfinite(value):
            return value
    except ValueError:
        pass
    noun = "an integer" if kind is int else "a finite number"
    raise error(f"{where} must be {noun}, got {text!r}")


class Config(dict):
    """A parsed config, {section: {key: (value, lineno)}}, that says where each
    value came from: path is the config's name in messages, and headers maps
    each section to its header's line."""

    def __init__(self, path):
        super().__init__()
        self.path = path
        self.headers = {}

    def line(self, section, key):
        """<cfg>:<line> of [section] key, line 0 when the key is absent."""
        return f"{self.path}:{self.get(section, {}).get(key, ('', 0))[1]}"

    def at(self, section, key):
        """Where a config key is, for messages: <cfg>:<line>: 'key'."""
        return f"{self.line(section, key)}: '{key}'"

    def value(self, section, key, default=None):
        """[section] key, default when absent; without a default the key is
        required, and its absence is refused at the section header."""
        value = self.get(section, {}).get(key, (default,))[0]
        if value is not None:
            return value
        where = f"{self.path}:{self.headers[section]}" if section in self else self.path
        raise ConfigError(f"{where}: missing required key '{key}' in [{section}]")

    def number(self, section, key, default=None, kind=float, least=None):
        """[section] key through _number, default when absent (see value), and
        refused below least."""
        value = _number(self.value(section, key, default), self.at(section, key), kind)
        if least is not None and value < least:
            raise ConfigError(f"{self.at(section, key)} must be at least {least},"
                              f" got {value}")
        return value


def parse_config_text(text: str, path: str = "<config>") -> Config:
    """Parses the line-oriented config format.

    Rejects unknown sections, unknown keys, duplicates, and malformed lines,
    citing line numbers.
    """
    sections = Config(path)
    current = None
    current_name = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(
                    f"{path}:{lineno}: unknown section [{name}];"
                    f" expected one of {sorted(_SCHEMA)}"
                )
            if name in sections:
                raise ConfigError(f"{path}:{lineno}: duplicate section [{name}]")
            current = sections[name] = {}
            sections.headers[name] = lineno
            current_name = name
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value' or '[section]',"
                f" got {line!r}"
            )
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        allowed = _SCHEMA[current_name]
        if allowed is not None and key not in allowed:
            raise ConfigError(
                f"{path}:{lineno}: unknown key '{key}' in [{current_name}];"
                f" expected one of {sorted(allowed)}"
            )
        if key in current:
            raise ConfigError(
                f"{path}:{lineno}: duplicate key '{key}' in [{current_name}]"
            )
        current[key] = (value, lineno)
    return sections


def _parse_axes(value: str):
    return [part.strip() for part in value.split("/")]


def build_model(cfg):
    kind = cfg.value("model", "kind")
    params = {key: cfg.number("model", key)
              for key in MODEL_PARAMS if key in cfg["model"]}
    try:
        return make_model(kind, **params)
    except ValueError as exc:
        raise ConfigError(f"{cfg.line('model', 'kind')}: [model] {exc}")


def build_grid(cfg, model):
    def axes(key):
        """[grid] key, one '/'-separated entry per model axis."""
        parts = _parse_axes(cfg.value("grid", key))
        if len(parts) != model.dim:
            raise ConfigError(f"{cfg.at('grid', key)} needs {model.dim}"
                              f" '/'-separated axis entries for model '{model.kind}'")
        return parts

    extents = []
    for part in axes("extents"):
        pieces = part.split(",")
        if len(pieces) != 2:
            raise ConfigError(f"{cfg.line('grid', 'extents')}: each axis extent"
                              f" is 'lo,hi', got {part!r}")
        extents.append(tuple(_number(piece, cfg.at("grid", "extents"))
                             for piece in pieces))
    shape = tuple(_number(part, cfg.at("grid", "shape"), int)
                  for part in axes("shape"))
    periodic = None
    if "periodic" in cfg["grid"]:
        periodic = []
        for part in axes("periodic"):
            if part.lower() not in ("true", "false"):
                raise ConfigError(f"{cfg.line('grid', 'periodic')}: periodic"
                                  f" entries are 'true' or 'false', got {part!r}")
            periodic.append(part.lower() == "true")
    try:
        return make_grid(tuple(extents), shape, periodic=periodic,
                         axis_names=model.axis_names)
    except ArgumentError as exc:
        raise ConfigError(f"{cfg.line('grid', exc.arg)}: [grid] {exc}")


def build_field(cfg, section, model, grid):
    """Evaluates a configured field on the grid.

    Families: 'constant' (compI = value) and 'trig'
    (compI = offset amp factor-per-axis, factor one of one, sin:k, cos:k
    with the argument 2*pi*k*coordinate).  For swe2d, variables = primitive
    means components are (phi, u, v) and are transformed to the state
    variables (phi, sqrt(phi) u, sqrt(phi) v).
    """
    if section not in cfg:
        raise ConfigError(f"{cfg.path}: missing required section [{section}]")
    family = cfg.value(section, "family")
    variables = cfg.value(section, "variables", "state")
    if variables not in ("state", "primitive"):
        raise ConfigError(
            f"{cfg.line(section, 'variables')}: variables is 'state'"
            f" or 'primitive', got {variables!r}"
        )
    if variables == "primitive" and model.kind != "swe2d":
        raise ConfigError(f"{cfg.line(section, 'variables')}: primitive"
                          " variables apply to swe2d only")
    comps = []
    for c in range(model.n_comp):
        key = f"comp{c}"
        value = cfg.value(section, key)
        where = cfg.at(section, key)
        if family == "constant":
            comps.append(np.full(grid.shape, _number(value, where)))
        elif family == "trig":
            tokens = value.split()
            if len(tokens) != 2 + grid.dim:
                raise ConfigError(
                    f"{cfg.line(section, key)}: trig components are"
                    f" 'offset amp' plus {grid.dim} axis factors,"
                    f" got {value!r}"
                )
            offset = _number(tokens[0], where)
            amp = _number(tokens[1], where)
            wave = np.ones(grid.shape)
            for ax, token in enumerate(tokens[2:]):
                if token == "one":
                    continue
                name, _, k = token.partition(":")
                if name not in ("sin", "cos") or not k:
                    raise ConfigError(
                        f"{cfg.line(section, key)}: axis factors are"
                        f" 'one', 'sin:k', or 'cos:k', got {token!r}"
                    )
                fn = np.sin if name == "sin" else np.cos
                # one value per coordinate of the axis, broadcast into wave
                wave = wave * fn(2.0 * np.pi * _number(k, where, int) * grid.positions[ax])
            comps.append(offset + amp * wave)
        else:
            raise ConfigError(
                f"{cfg.line(section, 'family')}: family is 'constant'"
                f" or 'trig', got {family!r}"
            )
    if variables == "primitive":
        try:
            return swe_transform(*comps)
        except ValueError as exc:
            raise ConfigError(f"{cfg.line(section, 'comp0')}: [{section}] {exc}")
    return np.stack(comps)


def build_sat_from_config(cfg, model, grid):
    """The [sat] entries, each the dict of options it writes, resolved by
    boundary.make_sat_config; a refused entry is a config error at its line."""
    if "sat" not in cfg:
        return None
    entries = {}
    for key, (value, _) in cfg["sat"].items():
        where = cfg.line("sat", key)
        tokens = value.split()
        if not tokens:
            raise ConfigError(f"{where}: empty closure for '{key}'")
        entries[key] = {"kind": tokens[0]}
        for token in tokens[1:]:
            name, eq, val = token.partition("=")
            if not eq or name in entries[key]:
                raise ConfigError(f"{where}: options are name=value, each name"
                                  f" once, got {token!r}")
            entries[key][name] = _number(val, f"{where}: '{name}'")
    try:
        return make_sat_config(model, grid, entries, where=lambda label:
                               f"{cfg.line('sat', label)}: [sat] '{label}'")
    except ValueError as exc:
        raise ConfigError(str(exc))


def build_scheme(cfg):
    order_raw = cfg.value("scheme", "order")
    pieces = order_raw.replace(",", " ").split()
    if len(pieces) != 2:
        raise ConfigError(
            f"{cfg.line('scheme', 'order')}: order is two integers"
            f" like '4,2', got {order_raw!r}"
        )
    order = tuple(_number(piece, cfg.at("scheme", "order"), int)
                  for piece in pieces)
    if order not in ACCURACIES:
        raise ConfigError(f"{cfg.at('scheme', 'order')} must be one of"
                          f" {ACCURACIES}, got {order}")
    mode = cfg.value("scheme", "mode")
    if mode not in RUN_MODES:
        raise ConfigError(
            f"{cfg.line('scheme', 'mode')}: unknown mode '{mode}';"
            f" expected one of {RUN_MODES}"
        )
    # A marching mode reads its runs' fields, [sat] and the march keys.  The first
    # unread key is refused at its line, an unread empty section at its header.
    runs = _RUNS[mode]
    fields = {section for run in runs for section in run[2:]} - {None}
    reads = {"model", "grid", "scheme", "output"} | (fields | {"sat"} if runs else {"identity"})
    unread_keys = () if runs else _SCHEMA["scheme"] - {"order", "mode"}
    for section, keys in cfg.items():
        if section not in reads and not keys:
            raise ConfigError(f"{cfg.path}:{cfg.headers[section]}: empty [{section}] is"
                              f" not read by mode '{mode}'")
        for key in keys:
            if section not in reads or section == "scheme" and key in unread_keys:
                raise ConfigError(f"{cfg.at(section, key)} in [{section}] is"
                                  f" not read by mode '{mode}'")
    return order, mode


def _march_fields(cfg, model, grid) -> dict:
    """The Scenario fields a marching config sets: dt, t_final, cfl,
    stride and sat; an absent stride or cfl takes Scenario's default."""
    return dict(stride=cfg.number("scheme", "stride", str(Scenario.stride), int, 1),
                dt=cfg.number("scheme", "dt"),
                t_final=cfg.number("scheme", "t_final"),
                cfl=cfg.number("scheme", "cfl", repr(Scenario.cfl)),
                sat=build_sat_from_config(cfg, model, grid))


def _load_config(spec: str) -> tuple[str, str]:
    """Reads a config from a path, or from the bundled scenarios by name."""
    path = Path(spec)
    if path.is_file():
        return path.read_text(), str(path)
    name = spec[:-4] if spec.endswith(".cfg") else spec
    packaged = resources.files("skewform").joinpath(f"scenarios/{name}.cfg")
    if packaged.is_file():
        return packaged.read_text(), f"scenarios/{name}.cfg"
    raise ConfigError(
        f"config '{spec}' is neither a file nor a bundled scenario"
        f" (bundled: {', '.join(bundled_scenarios())})"
    )


def bundled_scenarios() -> tuple[str, ...]:
    root = resources.files("skewform").joinpath("scenarios")
    names = sorted(entry.name[:-4] for entry in root.iterdir()
                   if entry.name.endswith(".cfg"))
    return tuple(names)


def write_csv(out_dir, name, header, rows) -> Path:
    """Writes the header and rows to out_dir/name, making out_dir first;
    returns the path written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / name
    with open(target, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return target


def write_reports_csv(out_dir, name, grid, reports) -> Path:
    labels = [face_label(grid, f) for f in faces(grid)]
    return write_csv(out_dir, name, ["t", "E", "rate", "boundary_flux", "volume_residual"]
                     + [f"flux_{label}" for label in labels],
                     ([repr(rep.t), repr(rep.energy), repr(rep.rate),
                       repr(rep.boundary_flux), repr(rep.volume_residual)]
                      + [repr(rep.face_fluxes[label]) for label in labels]
                      for rep in reports))


# Nodes per block of the final-state writer.  Each block's text is joined
# whole: on a 257 x 257 swe2d state the writer's traced peak is 0.31 MiB
# with 1024 and 1.14 MiB with 4096.
_STATE_BLOCK = 1024


def write_final_state(target, model, grid, state) -> None:
    """Writes state, refused unless its shape is (n_comp, *grid.shape), to
    target: the header lines, then one node per line in C order, its
    integer indices and then each component as repr, the shortest text
    that reads back to the same double."""
    state = np.asarray(state, dtype=np.float64)
    if state.shape != (model.n_comp,) + grid.shape:
        raise ValueError(f"final state has shape {state.shape}; the grid takes"
                         f" {(model.n_comp,) + grid.shape}")
    idx_cols = " ".join(f"i_{name}" for name in grid.axis_names)
    with open(target, "w") as fh:
        fh.write("# skewform final state\n")
        fh.write(f"# model: {model.kind}\n")
        for ax in range(grid.dim):
            lo, hi = grid.extents[ax]
            fh.write(
                f"# axis {grid.axis_names[ax]}: [{lo!r}, {hi!r}]"
                f" n={grid.shape[ax]} periodic={str(grid.periodic[ax]).lower()}\n"
            )
        fh.write(f"# layout: one node per line, C order; columns: {idx_cols} "
                 + " ".join(model.components) + "\n")
        # A block of nodes at a time, so that the Python floats and strings do
        # not grow with the grid, and a column at a time: each line is its
        # "i j " prefix, drawn from the product of each axis's index strings,
        # then each component's repr and its separator.
        columns = state.reshape(model.n_comp, -1)
        prefixes = map("".join, itertools.product(
            *([f"{i} " for i in range(n)] for n in grid.shape)))
        ends = [itertools.repeat(" ")] * (model.n_comp - 1) + [itertools.repeat("\n")]
        for start in range(0, columns.shape[1], _STATE_BLOCK):
            block = columns[:, start:start + _STATE_BLOCK].tolist()
            parts = [itertools.islice(prefixes, len(block[0]))]
            for column, end in zip(block, ends):
                parts += (map(repr, column), end)
            fh.write("".join(map("".join, zip(*parts))))


def build_scenarios(cfg, mode, prefix, model, grid, ops, **scheme):
    """The named scenarios a marching config describes on one grid, one per
    row of _RUNS[mode], named prefix + suffix.

    Each field section is built once, in schema order.  A mean is required
    where its march mode needs one (timeint.MEAN_MODES), else read when
    given.  scheme holds the remaining Scenario fields (dt, t_final, sat,
    stride, cfl).  Every scenario is validated here: malformed or
    unsupported scenarios are config errors (exit 2), while failures during
    the march itself (CFL, blow-up, admissibility) are run failures (exit 1).
    """
    runs = _RUNS[mode]
    required = {state for _, _, state, _ in runs} | {
        mean for _, run_mode, _, mean in runs if run_mode in MEAN_MODES}
    means = {mean for *_, mean in runs}
    fields = {section: build_field(cfg, section, model, grid) for section in _SCHEMA
              if section in required or section in means and section in cfg}
    scenarios = []
    for suffix, run_mode, state, mean_section in runs:
        initial, mean, run_model = fields[state], fields.get(mean_section), model
        if run_mode == "standard_linearised" and model.kind == "swe2d":
            # it marches and writes a primitive (phi, u, v) perturbation: the
            # configured one, taken to primitive variables about the mean
            run_model = replace(model, components=("phi", "u", "v"))
            try:
                primitive = np.stack(swe_inverse(mean))
                initial = np.stack(swe_inverse(mean + initial)) - primitive
            except ValueError as exc:
                raise ConfigError(f"{cfg.path}:{cfg.headers[mean_section]}: primitive mean"
                                  f" or mean + perturbation: {exc}")
        sc = Scenario(model=run_model, grid=grid, ops=ops, mode=run_mode,
                      initial=initial, mean=mean, **scheme)
        try:
            validate_scenario(sc)
        except ArgumentError as exc:
            raise ConfigError(f"{cfg.line('scheme', exc.arg)}: {exc}")
        except ValueError as exc:
            raise ConfigError(f"{cfg.path}: {exc}")
        scenarios.append((prefix + suffix, sc))
    return scenarios


def run_identity(cfg, model, grid, ops):
    trials = cfg.number("identity", "trials", "50", int, 1)
    seed = cfg.number("identity", "seed", "0", int, 0)
    mode_kind = cfg.value("identity", "mode", "nonlinear")
    if mode_kind not in ("nonlinear", "frozen", "dual"):
        raise ConfigError(f"{cfg.at('identity', 'mode')} must be nonlinear,"
                          f" frozen or dual, got {mode_kind!r}")
    reports = []
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        U = sample_state(model, grid.shape, rng)
        V = sample_state(model, grid.shape, rng) if mode_kind == "frozen" else None
        reports.append(energy_report(model, grid, ops, U, V, mode_kind == "dual",
                                     t=float(trial)))
    return reports


def _load_scheme(spec):
    """A config's (cfg, model, grid, order, mode), each checked."""
    cfg = parse_config_text(*_load_config(spec))
    model = build_model(cfg)
    grid = build_grid(cfg, model)
    return (cfg, model, grid, *build_scheme(cfg))


def cmd_run(args) -> int:
    cfg, model, grid, order, mode = _load_scheme(args.config)
    try:
        ops = build_operators(grid, order)
    except ValueError as exc:
        raise ConfigError(f"{cfg.line('grid', 'shape')}: [grid] {exc}")
    prefix = cfg.value("output", "prefix", "run")
    out_dir = Path(args.out_dir)

    if mode == "identity":
        reports = run_identity(cfg, model, grid, ops)
        target = write_reports_csv(out_dir, f"{prefix}.csv", grid, reports)
        worst = max(abs(r.volume_residual) for r in reports)
        print(f"wrote {target} ({len(reports)} sampled states,"
              f" max |volume_residual| {worst:.3e})")
        return 0

    runs = build_scenarios(cfg, mode, prefix, model, grid, ops,
                           **_march_fields(cfg, model, grid))
    results = []
    try:
        for name, sc in runs:
            results.append((name, sc, *march(sc)))
    except (RuntimeError, ValueError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1

    lines = []
    for name, sc, reports, final in results:
        target = write_reports_csv(out_dir, f"{name}.csv", grid, reports)
        worst = max(abs(r.volume_residual) for r in reports)
        drift = reports[-1].energy - reports[0].energy
        lines.append(f"wrote {target} ({len(reports)} reports, max"
                     f" |volume_residual| {worst:.3e}, energy drift {drift:.3e})")
        coupled = sc.mode == "new_linearised_coupled"
        for tag, state in zip(("_mean", "_pert"), final) if coupled else [("", final)]:
            statefile = out_dir / f"{name}{tag}_final.txt"
            write_final_state(statefile, sc.model, grid, state)
            lines.append(f"wrote {statefile}")
    print(*lines, sep="\n")
    return 0


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    names = list(CHECKS) if args.suite == "all" else [args.suite]
    # the ansatz suite refines grids instead of drawing trials
    reports = [CHECKS[name](seed=args.seed) if name == "ansatz"
               else CHECKS[name](trials=args.trials, seed=args.seed) for name in names]
    lines = [format_check_line(report) for report in reports]
    passed = sum(1 for r in reports if r.passed)
    lines.append(f"{passed}/{len(reports)} suites passed")
    if args.out_dir is not None:
        target = write_csv(args.out_dir, "checks.csv", CHECK_CSV_HEADER,
                           map(check_csv_row, reports))
        lines.append(f"wrote {target}")
    print(*lines, sep="\n")
    return 0 if passed == len(reports) else 1


def cmd_analyze_boundary(args) -> int:
    model = with_params(make_model(args.model), alpha=args.alpha, beta=args.beta)
    state = np.array([_number(v, "--state", error=ValueError)
                      for v in args.state.split(",")])
    normal = tuple(_number(v, "--normal", error=ValueError)
                   for v in args.normal.split(","))
    pos = None
    if args.model == "euler3d_cyl":
        if args.radius is None or not 0.0 < args.radius < math.inf:
            raise ValueError("euler3d_cyl face states need a finite --radius > 0,"
                             f" got {args.radius}")
        pos = (np.float64(args.radius),) + (np.float64(0.0),) * 2
    elif args.radius is not None:
        raise ValueError(f"--radius applies to euler3d_cyl face states only,"
                         f" not {args.model}")
    analysis = analyze_boundary(model, state, normal, args.formulation, args.face, pos)
    lines = [analysis_table(analysis)]
    if args.out_dir is not None:
        target = write_csv(args.out_dir, "boundary.csv", ANALYSIS_CSV_HEADER,
                           [analysis_csv_row(analysis)])
        lines.append(f"wrote {target}")
    print(*lines, sep="\n")
    return 0


def _shared_nodes_error(coarse, fine) -> float:
    """Sup-norm difference on the coarse nodes of a nested refinement."""
    take = (slice(None),) + (slice(0, None, 2),) * (coarse.ndim - 1)
    return float(np.max(np.abs(coarse - fine[take])))


def cmd_convergence(args) -> int:
    levels = [_number(v, "--levels", int, ValueError)
              for v in args.levels.split(",")]
    if len(levels) < 3:
        raise ValueError("need at least 3 refinement levels")
    cfg, model, base_grid, order, mode = _load_scheme(args.config)
    if len(_RUNS[mode]) != 1:
        raise ConfigError(f"{cfg.line('scheme', 'mode')}: convergence studies"
                          " need a single marching mode")
    # The config's stride is checked but unused: only the final states count.
    fields = _march_fields(cfg, model, base_grid) | {"stride": 10 ** 9}
    dt0 = fields.pop("dt")

    # Every level is built and validated before any is marched.
    scenarios = []
    for k, n in enumerate(levels):
        nc = levels[k - 1]
        for name, periodic in zip(base_grid.axis_names, base_grid.periodic):
            if k and n != (2 * nc if periodic else 2 * nc - 1):
                raise ValueError(
                    f"levels are not nested on axis {name}: {nc} then {n}"
                    " (need doubling: 2n periodic, 2n-1 bounded)"
                )
        try:
            grid = make_grid(base_grid.extents, (n,) * model.dim,
                             periodic=base_grid.periodic, axis_names=model.axis_names)
            ops = build_operators(grid, order)
        except ValueError as exc:
            raise ValueError(f"--levels: {exc}")
        # h halves per level and dt = dt0 / 4^k falls with h^2: the RK4 error
        # stays below the spatial error and t_final a whole number of steps.
        [(_, sc)] = build_scenarios(cfg, mode, "", model, grid, ops,
                                    dt=dt0 * 0.25 ** k, **fields)
        scenarios.append(sc)

    finals = []
    vr_initial = []
    for n, sc in zip(levels, scenarios):
        try:
            reports, final = march(sc)
        except (RuntimeError, ValueError) as exc:
            print(f"run failed at level {n}: {exc}", file=sys.stderr)
            return 1
        finals.append(final[1] if mode == "new_linearised_coupled" else final)
        vr_initial.append(reports[0].volume_residual)

    lines = [f"solution self-convergence ({order[0]},{order[1]}), final time"
             f" {fields['t_final']}:"]
    rows = []
    errors = [_shared_nodes_error(coarse, fine) for coarse, fine in zip(finals, finals[1:])]
    scale = 1.0 + float(np.max(np.abs(finals[-1])))
    for k, err in enumerate(errors):
        pair = f"{levels[k]} -> {levels[k + 1]}"
        if err <= 1e-13 * scale:
            order_txt = "exact"
        elif k == 0:
            order_txt = ""
        else:
            order_txt = f"{np.log2(errors[k - 1] / err):.3f}"
        rows.append((pair, err, order_txt))
        lines.append(f"  {pair:>12s}   error {err:.6e}   order {order_txt}")

    if model.kind == "swe2d":
        lines.append("quasilinear ansatz defect on the initial/mean field:")
        defects = [ansatz_defect(model, sc.grid, sc.ops,
                                 sc.initial if sc.mean is None else sc.mean)
                   for sc in scenarios]
        for k, d in enumerate(defects):
            line = f"  n={levels[k]:<5d} defect {d:.6e}"
            if k > 0 and d > 0.0:
                line += f"   order {np.log2(defects[k - 1] / d):.3f}"
            lines.append(line)

    if mode == "standard_linearised":
        lines.append("standard-linearisation volume residual (t = 0), converging to"
                     " its continuum quadrature limit:")
        for k, vr in enumerate(vr_initial):
            line = f"  n={levels[k]:<5d} volume_residual {vr!r}"
            if k >= 2:
                num = vr_initial[k - 2] - vr_initial[k - 1]
                den = vr_initial[k - 1] - vr_initial[k]
                if den != 0.0:
                    line += f"   order {np.log2(abs(num / den)):.3f}"
            lines.append(line)

    if args.out_dir is not None:
        target = write_csv(args.out_dir, "convergence.csv", ("levels", "error", "order"),
                           [(pair, repr(err), order_txt) for pair, err, order_txt in rows])
        lines.append(f"wrote {target}")
    print(*lines, sep="\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="skewform",
        description="Skew-form SBP schemes: runs, checks, boundary analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the seeded identity check suites")
    p.add_argument("suite", nargs="?", default="all",
                   choices=tuple(CHECKS) + ("all",),
                   help="which suite to run (default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50,
                   help="trials per model/order combination")
    p.add_argument("--out-dir", default=None,
                   help="also write checks.csv here")

    p = sub.add_parser("run", help="march or sample a configured scenario")
    p.add_argument("--config", required=True,
                   help="config path or bundled scenario name")
    p.add_argument("--out-dir", default=".",
                   help="directory for CSV and final-state files")

    p = sub.add_parser("analyze-boundary",
                       help="eigen-count boundary conditions for a face state")
    p.add_argument("--model", required=True, choices=MODEL_KINDS)
    p.add_argument("--state", required=True,
                   help="comma-separated face state components (the mean"
                        " state for the linearised formulation); use the"
                        " --state=-1,... form when the first is negative")
    p.add_argument("--normal", required=True,
                   help="comma-separated outward normal; use the"
                        " --normal=-1,0 form when the first is negative")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--formulation", default="nonlinear",
                   choices=("nonlinear", "linearised", "nonlinear_rewritten"))
    p.add_argument("--radius", type=float, default=None,
                   help="face radius for euler3d_cyl (length units)")
    p.add_argument("--face", default=None, help="face label for the report")
    p.add_argument("--out-dir", default=None)

    p = sub.add_parser("convergence", help="nested-grid refinement study")
    p.add_argument("--config", required=True)
    p.add_argument("--levels", required=True,
                   help="comma-separated nodes per axis, nested by doubling")
    p.add_argument("--out-dir", default=None)

    args = parser.parse_args(argv)
    # Allocate and free one 16 MiB block.  By glibc's dynamic thresholds
    # (mallopt(3)) this raises the mmap threshold to 16 MiB and the trim
    # threshold to 32 MiB for the rest of the process, so a march that frees
    # and regrows its fields every step reuses the heap instead of faulting
    # in fresh pages.  The block is never written; other allocators ignore it.
    np.empty(16 << 20, np.uint8)
    handlers = {
        "verify": cmd_verify,
        "run": cmd_run,
        "analyze-boundary": cmd_analyze_boundary,
        "convergence": cmd_convergence,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed stdout raises here at the latest
    except BrokenPipeError:
        # no traceback; the flush at exit goes to devnull (Python docs, SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
