"""Command line front-end.

Subcommands:
    verify            run the seeded identity check suites
    run               march (or statically sample) a configured scenario
    analyze-boundary  eigen-count boundary conditions for one face state
    convergence       refinement study on a configured scenario

Configs are plain text, line oriented, with [section] headers and
key = value pairs; '#' starts a full-line comment.  Unknown sections or
keys are rejected with the offending line number.  All outputs are plain
CSV / text so runs diff cleanly; identical config and seed give identical
bytes per build configuration.

Exit status: 0 success, 1 failing checks or a failed run, 2 usage or
config errors.
"""

from __future__ import annotations

import argparse
import csv
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .boundary import (
    ANALYSIS_CSV_HEADER,
    FaceClosure,
    analysis_csv_row,
    analysis_table,
    analyze_boundary,
    make_sat_config,
    validate_sat,
)
from .energy import energy_report
from .models import MODEL_KINDS, make_model, sample_state, swe_transform
from .sbp_core import build_operators, face_label, faces, make_grid, position_arrays
from .spatial_op import dual, frozen, nonlinear
from .timeint import MODES, Scenario, march, validate_scenario
from .verify import (
    CHECK_CSV_HEADER,
    CHECKS,
    ansatz_defect,
    check_csv_row,
    format_check_line,
)

# Scheme modes the runner accepts: the marching modes plus the two
# CLI-level composites (identity sampling for the euler models and the
# standard-versus-new comparison pair).
RUN_MODES = MODES + ("identity", "standard_vs_new")

_FIELD_KEYS = frozenset({"family", "variables"} | {f"comp{i}" for i in range(4)})

_SCHEMA = {
    "model": frozenset({"kind", "alpha", "beta", "f0", "f1"}),
    "grid": frozenset({"extents", "shape", "periodic"}),
    "scheme": frozenset({"order", "mode", "dt", "t_final", "stride", "cfl"}),
    "initial": _FIELD_KEYS,
    "coefficient": _FIELD_KEYS,
    "perturbation": _FIELD_KEYS,
    "sat": None,
    "identity": frozenset({"trials", "seed", "mode"}),
    "output": frozenset({"prefix"}),
}

# State component names per model, for final-state file headers.
_COMPONENTS = {
    "burgers1d": ("u",),
    "euler2d": ("u", "v", "p"),
    "euler3d_cyl": ("u", "v", "w", "p"),
    "swe2d": ("U1", "U2", "U3"),
}


class ConfigError(Exception):
    """Config parse or consistency error, message carries file:line."""


def parse_config_text(text: str, path: str = "<config>") -> dict:
    """Parses the line-oriented config format.

    Returns {section: {key: (value, lineno)}}; rejects unknown sections,
    unknown keys, duplicates, and malformed lines, citing line numbers.
    """
    sections: dict = {}
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
            current = {}
            current_name = name
            sections[name] = current
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


def _need(cfg, section, key, path):
    try:
        return cfg[section][key][0]
    except KeyError:
        raise ConfigError(f"{path}: missing required key '{key}' in [{section}]")


def _get(cfg, section, key, default=None):
    entry = cfg.get(section, {}).get(key)
    return default if entry is None else entry[0]


def _line(cfg, section, key):
    return cfg.get(section, {}).get(key, ("", 0))[1]


def _parse_float(cfg, section, key, value, path):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(
            f"{path}:{_line(cfg, section, key)}: '{key}' must be a number,"
            f" got {value!r}"
        )


def _parse_axes(value: str):
    return [part.strip() for part in value.split("/")]


def build_model(cfg, path):
    kind = _need(cfg, "model", "kind", path)
    if kind not in MODEL_KINDS:
        raise ConfigError(
            f"{path}:{_line(cfg, 'model', 'kind')}: unknown model '{kind}';"
            f" expected one of {MODEL_KINDS}"
        )
    params = {}
    for key in ("alpha", "beta", "f0", "f1"):
        value = _get(cfg, "model", key)
        if value is not None:
            params[key] = _parse_float(cfg, "model", key, value, path)
    if params and kind != "swe2d":
        raise ConfigError(
            f"{path}: [model] parameters {sorted(params)} apply to swe2d only"
        )
    return make_model(kind, **params)


def build_grid(cfg, model, path):
    raw_extents = _parse_axes(_need(cfg, "grid", "extents", path))
    raw_shape = _parse_axes(_need(cfg, "grid", "shape", path))
    raw_periodic = _get(cfg, "grid", "periodic")
    if len(raw_extents) != model.dim or len(raw_shape) != model.dim:
        raise ConfigError(
            f"{path}: [grid] needs {model.dim} '/'-separated axis entries for"
            f" model '{model.kind}'"
        )
    extents = []
    for part in raw_extents:
        pieces = part.split(",")
        if len(pieces) != 2:
            raise ConfigError(
                f"{path}:{_line(cfg, 'grid', 'extents')}: each axis extent is"
                f" 'lo,hi', got {part!r}"
            )
        extents.append((float(pieces[0]), float(pieces[1])))
    try:
        shape = tuple(int(part) for part in raw_shape)
    except ValueError:
        raise ConfigError(
            f"{path}:{_line(cfg, 'grid', 'shape')}: shape entries must be"
            f" integers, got {raw_shape}"
        )
    periodic = None
    if raw_periodic is not None:
        flags = []
        for part in _parse_axes(raw_periodic):
            low = part.lower()
            if low not in ("true", "false"):
                raise ConfigError(
                    f"{path}:{_line(cfg, 'grid', 'periodic')}: periodic entries"
                    f" are 'true' or 'false', got {part!r}"
                )
            flags.append(low == "true")
        if len(flags) != model.dim:
            raise ConfigError(
                f"{path}: [grid] periodic needs {model.dim} entries"
            )
        periodic = tuple(flags)
    try:
        return make_grid(tuple(extents), shape, periodic=periodic,
                         axis_names=model.axis_names)
    except ValueError as exc:
        raise ConfigError(f"{path}: [grid] {exc}")


def build_field(cfg, section, model, grid, path):
    """Evaluates a configured field on the grid.

    Families: 'constant' (compI = value) and 'trig'
    (compI = offset amp factor-per-axis, factor one of one, sin:k, cos:k
    with the argument 2*pi*k*coordinate).  For swe2d, variables = primitive
    means components are (phi, u, v) and are transformed to the state
    variables (phi, sqrt(phi) u, sqrt(phi) v).
    """
    if section not in cfg:
        raise ConfigError(f"{path}: missing required section [{section}]")
    family = _need(cfg, section, "family", path)
    variables = _get(cfg, section, "variables", "state")
    if variables not in ("state", "primitive"):
        raise ConfigError(
            f"{path}:{_line(cfg, section, 'variables')}: variables is 'state'"
            f" or 'primitive', got {variables!r}"
        )
    if variables == "primitive" and model.kind != "swe2d":
        raise ConfigError(
            f"{path}: primitive variables apply to swe2d only"
        )
    comps = []
    pos = position_arrays(grid)
    for c in range(model.n_comp):
        key = f"comp{c}"
        value = _get(cfg, section, key)
        if value is None:
            raise ConfigError(
                f"{path}: [{section}] is missing '{key}' for model"
                f" '{model.kind}' ({model.n_comp} components)"
            )
        if family == "constant":
            comps.append(np.full(grid.shape,
                                 _parse_float(cfg, section, key, value, path)))
        elif family == "trig":
            tokens = value.split()
            if len(tokens) != 2 + grid.dim:
                raise ConfigError(
                    f"{path}:{_line(cfg, section, key)}: trig components are"
                    f" 'offset amp' plus {grid.dim} axis factors,"
                    f" got {value!r}"
                )
            offset = _parse_float(cfg, section, key, tokens[0], path)
            amp = _parse_float(cfg, section, key, tokens[1], path)
            wave = np.ones(grid.shape)
            for ax, token in enumerate(tokens[2:]):
                if token == "one":
                    continue
                name, _, k = token.partition(":")
                if name not in ("sin", "cos") or not k:
                    raise ConfigError(
                        f"{path}:{_line(cfg, section, key)}: axis factors are"
                        f" 'one', 'sin:k', or 'cos:k', got {token!r}"
                    )
                fn = np.sin if name == "sin" else np.cos
                wave = wave * fn(2.0 * np.pi * int(k) * pos[ax])
            comps.append(offset + amp * wave)
        else:
            raise ConfigError(
                f"{path}:{_line(cfg, section, 'family')}: family is 'constant'"
                f" or 'trig', got {family!r}"
            )
    if variables == "primitive":
        return swe_transform(comps[0], comps[1], comps[2])
    return np.stack(comps)


def build_sat_from_config(cfg, grid, path):
    if "sat" not in cfg:
        return None
    labels = {f"{name}_{side}" for name in grid.axis_names
              for side in ("low", "high")}
    entries = {}
    for key, (value, lineno) in cfg["sat"].items():
        if key not in labels:
            raise ConfigError(
                f"{path}:{lineno}: unknown face '{key}'; grid faces are"
                f" {sorted(labels)}"
            )
        tokens = value.split()
        if not tokens:
            raise ConfigError(f"{path}:{lineno}: empty closure for '{key}'")
        kwargs = {}
        for token in tokens[1:]:
            name, eq, val = token.partition("=")
            if not eq or name not in ("g", "g2", "g3", "scale"):
                raise ConfigError(
                    f"{path}:{lineno}: closure options are g=, g2=, g3=,"
                    f" scale=, got {token!r}"
                )
            kwargs[name] = float(val)
        entries[key] = FaceClosure(kind=tokens[0], **kwargs)
    try:
        sat = make_sat_config(entries)
        validate_sat(grid, sat)
    except ValueError as exc:
        raise ConfigError(f"{path}: [sat] {exc}")
    return sat


def build_scheme(cfg, path):
    order_raw = _need(cfg, "scheme", "order", path)
    pieces = order_raw.replace(",", " ").split()
    if len(pieces) != 2:
        raise ConfigError(
            f"{path}:{_line(cfg, 'scheme', 'order')}: order is two integers"
            f" like '4,2', got {order_raw!r}"
        )
    order = (int(pieces[0]), int(pieces[1]))
    mode = _need(cfg, "scheme", "mode", path)
    if mode not in RUN_MODES:
        raise ConfigError(
            f"{path}:{_line(cfg, 'scheme', 'mode')}: unknown mode '{mode}';"
            f" expected one of {RUN_MODES}"
        )
    return order, mode


def _scheme_float(cfg, key, default, path):
    value = _get(cfg, "scheme", key)
    if value is None:
        if default is None:
            raise ConfigError(
                f"{path}: [scheme] requires '{key}' for marching modes"
            )
        return default
    return _parse_float(cfg, "scheme", key, value, path)


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


def write_reports_csv(target, grid, reports) -> None:
    labels = [face_label(grid, f) for f in faces(grid)]
    with open(target, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "E", "rate", "boundary_flux", "volume_residual"]
                        + [f"flux_{label}" for label in labels])
        for rep in reports:
            writer.writerow(
                [repr(rep.t), repr(rep.energy), repr(rep.rate),
                 repr(rep.boundary_flux), repr(rep.volume_residual)]
                + [repr(rep.face_fluxes[label]) for label in labels]
            )


def write_final_state(target, model, grid, state) -> None:
    comps = _COMPONENTS[model.kind]
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
                 + " ".join(comps) + "\n")
        for index in np.ndindex(*grid.shape):
            values = " ".join(repr(float(state[(c,) + index]))
                              for c in range(model.n_comp))
            fh.write(" ".join(str(i) for i in index) + " " + values + "\n")


def _identity_mode(kind, model, grid, rng):
    if kind == "nonlinear":
        return nonlinear()
    if kind == "frozen":
        return frozen(sample_state(model, grid.shape, rng))
    if kind == "dual":
        return dual()
    raise ConfigError(f"[identity] mode must be nonlinear, frozen, or dual,"
                      f" got '{kind}'")


def build_scenarios(cfg, path, mode, prefix, model, grid, ops, **scheme):
    """The named scenarios a marching config describes on one grid.

    scheme holds the remaining Scenario fields (dt, t_final, sat, stride,
    cfl).  Every scenario is validated here: malformed or unsupported
    scenarios are config errors (exit 2), while failures during the march
    itself (CFL, blow-up, admissibility) are run failures (exit 1).
    """

    def scenario(run_mode, initial, mean):
        return Scenario(model=model, grid=grid, ops=ops, mode=run_mode,
                        initial=initial, mean=mean, **scheme)

    runs = []
    if mode == "standard_vs_new":
        mean = build_field(cfg, "coefficient", model, grid, path)
        pert = build_field(cfg, "perturbation", model, grid, path)
        runs.append((f"{prefix}_standard",
                     scenario("standard_linearised", pert, mean)))
        runs.append((f"{prefix}_new",
                     scenario("new_linearised_coupled", pert, mean)))
    elif mode in ("new_linearised_coupled", "standard_linearised"):
        mean_section = "initial" if mode == "new_linearised_coupled" \
            else "coefficient"
        mean = build_field(cfg, mean_section, model, grid, path)
        pert = build_field(cfg, "perturbation", model, grid, path)
        runs.append((prefix, scenario(mode, pert, mean)))
    else:
        initial = build_field(cfg, "initial", model, grid, path)
        mean = None
        if mode in ("frozen", "dual") and "coefficient" in cfg:
            mean = build_field(cfg, "coefficient", model, grid, path)
        if mode == "frozen" and mean is None:
            raise ConfigError(f"{path}: frozen mode needs a [coefficient]"
                              " section")
        runs.append((prefix, scenario(mode, initial, mean)))

    for _, sc in runs:
        try:
            validate_scenario(sc)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}")
    return runs


def run_identity(cfg, model, grid, ops, path):
    trials_raw = _get(cfg, "identity", "trials", "50")
    seed_raw = _get(cfg, "identity", "seed", "0")
    mode_kind = _get(cfg, "identity", "mode", "nonlinear")
    try:
        trials = int(trials_raw)
        seed = int(seed_raw)
    except ValueError:
        raise ConfigError(f"{path}: [identity] trials and seed are integers")
    reports = []
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        U = sample_state(model, grid.shape, rng)
        mode = _identity_mode(mode_kind, model, grid, rng)
        reports.append(energy_report(model, grid, ops, U, mode, t=float(trial)))
    return reports


def cmd_run(args) -> int:
    text, display = _load_config(args.config)
    cfg = parse_config_text(text, display)
    model = build_model(cfg, display)
    grid = build_grid(cfg, model, display)
    order, mode = build_scheme(cfg, display)
    ops = build_operators(grid, order)
    prefix = _get(cfg, "output", "prefix", "run")
    out_dir = Path(args.out_dir)

    if mode == "identity":
        reports = run_identity(cfg, model, grid, ops, display)
        out_dir.mkdir(parents=True, exist_ok=True)
        target = out_dir / f"{prefix}.csv"
        write_reports_csv(target, grid, reports)
        worst = max(abs(r.volume_residual) for r in reports)
        print(f"wrote {target} ({len(reports)} sampled states,"
              f" max |volume_residual| {worst:.3e})")
        return 0

    runs = build_scenarios(
        cfg, display, mode, prefix, model, grid, ops,
        dt=_scheme_float(cfg, "dt", None, display),
        t_final=_scheme_float(cfg, "t_final", None, display),
        stride=int(_get(cfg, "scheme", "stride", "1")),
        cfl=_scheme_float(cfg, "cfl", 0.2, display),
        sat=build_sat_from_config(cfg, grid, display),
    )
    results = []
    try:
        for name, sc in runs:
            results.append((name, sc, *march(sc)))
    except (RuntimeError, ValueError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1

    out_dir.mkdir(parents=True, exist_ok=True)
    for name, sc, reports, final in results:
        target = out_dir / f"{name}.csv"
        write_reports_csv(target, grid, reports)
        worst = max(abs(r.volume_residual) for r in reports)
        drift = reports[-1].energy - reports[0].energy
        print(f"wrote {target} ({len(reports)} reports, max"
              f" |volume_residual| {worst:.3e}, energy drift {drift:.3e})")
        if sc.mode == "new_linearised_coupled":
            for tag, state in zip(("mean", "pert"), final):
                statefile = out_dir / f"{name}_{tag}_final.txt"
                write_final_state(statefile, model, grid, state)
                print(f"wrote {statefile}")
        else:
            statefile = out_dir / f"{name}_final.txt"
            write_final_state(statefile, model, grid, final)
            print(f"wrote {statefile}")
    return 0


def cmd_verify(args) -> int:
    names = list(CHECKS) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        fn = CHECKS[name]
        if name == "ansatz":
            reports.append(fn(seed=args.seed))
        else:
            reports.append(fn(trials=args.trials, seed=args.seed))
    for report in reports:
        print(format_check_line(report))
    passed = sum(1 for r in reports if r.passed)
    print(f"{passed}/{len(reports)} suites passed")
    if args.out_dir is not None:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        target = out_dir / "checks.csv"
        with open(target, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CHECK_CSV_HEADER)
            for report in reports:
                writer.writerow(check_csv_row(report))
        print(f"wrote {target}")
    return 0 if passed == len(reports) else 1


def cmd_analyze_boundary(args) -> int:
    model = make_model(args.model)
    state = np.array([float(v) for v in args.state.split(",")])
    normal = tuple(float(v) for v in args.normal.split(","))
    pos = None
    if args.model == "euler3d_cyl":
        if args.radius is None:
            raise ValueError("euler3d_cyl face states need --radius")
        pos = (np.float64(args.radius),) + (np.float64(0.0),) * 2
    analysis = analyze_boundary(
        model,
        state,
        normal,
        alpha=args.alpha,
        beta=args.beta,
        formulation=args.formulation,
        face=args.face,
        pos=pos,
    )
    print(analysis_table(analysis))
    if args.out_dir is not None:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        target = out_dir / "boundary.csv"
        with open(target, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(ANALYSIS_CSV_HEADER)
            writer.writerow(analysis_csv_row(analysis))
        print(f"wrote {target}")
    return 0


def _shared_nodes_error(coarse, fine) -> float:
    """Sup-norm difference on the coarse nodes of a nested refinement."""
    take = (slice(None),) + (slice(0, None, 2),) * (coarse.ndim - 1)
    return float(np.max(np.abs(coarse - fine[take])))


def cmd_convergence(args) -> int:
    levels = [int(v) for v in args.levels.split(",")]
    if len(levels) < 3:
        raise ValueError("need at least 3 refinement levels")
    text, display = _load_config(args.config)
    cfg = parse_config_text(text, display)
    model = build_model(cfg, display)
    base_grid = build_grid(cfg, model, display)
    order, mode = build_scheme(cfg, display)
    if mode in ("identity", "standard_vs_new"):
        raise ConfigError(f"{display}: convergence studies need a single"
                          " marching mode")
    dt0 = _scheme_float(cfg, "dt", None, display)
    t_final = _scheme_float(cfg, "t_final", None, display)
    cfl = _scheme_float(cfg, "cfl", 0.2, display)
    sat = build_sat_from_config(cfg, base_grid, display)

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
        shape = tuple(n for _ in range(model.dim))
        grid = make_grid(base_grid.extents, shape, periodic=base_grid.periodic,
                         axis_names=model.axis_names)
        # dt shrinks quadratically with refinement so the RK4 error stays
        # below the spatial error at both operator orders.
        [(_, sc)] = build_scenarios(
            cfg, display, mode, "", model, grid, build_operators(grid, order),
            dt=dt0 * (levels[0] / n) ** 2, t_final=t_final, sat=sat,
            stride=10 ** 9, cfl=cfl,
        )
        scenarios.append(sc)

    finals = []
    vr_initial = []
    for n, sc in zip(levels, scenarios):
        try:
            reports, final = march(sc)
        except (RuntimeError, ValueError) as exc:
            print(f"run failed at level {n}: {exc}", file=sys.stderr)
            return 1
        if mode == "new_linearised_coupled":
            final = final[1]
        finals.append(final)
        vr_initial.append(reports[0].volume_residual)

    print(f"solution self-convergence ({order[0]},{order[1]}), final time"
          f" {t_final}:")
    rows = []
    errors = []
    for k in range(len(levels) - 1):
        errors.append(_shared_nodes_error(finals[k], finals[k + 1]))
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
        print(f"  {pair:>12s}   error {err:.6e}   order {order_txt}")

    if model.kind == "swe2d":
        print("quasilinear ansatz defect on the initial/mean field:")
        defects = [ansatz_defect(model, sc.grid, sc.ops,
                                 sc.initial if sc.mean is None else sc.mean)
                   for sc in scenarios]
        for k, d in enumerate(defects):
            line = f"  n={levels[k]:<5d} defect {d:.6e}"
            if k > 0 and d > 0.0:
                line += f"   order {np.log2(defects[k - 1] / d):.3f}"
            print(line)

    if mode == "standard_linearised":
        print("standard-linearisation volume residual (t = 0), converging to"
              " its continuum quadrature limit:")
        for k, vr in enumerate(vr_initial):
            line = f"  n={levels[k]:<5d} volume_residual {vr!r}"
            if k >= 2:
                num = vr_initial[k - 2] - vr_initial[k - 1]
                den = vr_initial[k - 1] - vr_initial[k]
                if den != 0.0:
                    line += f"   order {np.log2(abs(num / den)):.3f}"
            print(line)

    if args.out_dir is not None:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        target = out_dir / "convergence.csv"
        with open(target, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("levels", "error", "order"))
            for pair, err, order_txt in rows:
                writer.writerow((pair, repr(err), order_txt))
        print(f"wrote {target}")
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
                        " state for the linearised formulation)")
    p.add_argument("--normal", required=True,
                   help="comma-separated outward normal")
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
    handlers = {
        "verify": cmd_verify,
        "run": cmd_run,
        "analyze-boundary": cmd_analyze_boundary,
        "convergence": cmd_convergence,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
