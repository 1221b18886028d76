"""Runs one `skewform` CLI job with timing hooks installed from outside.

Usage: python3 child.py {light|trace} RESULT.json [SPANS.json] -- CLI ARGS...

The package is imported from PYTHONPATH, exactly as `python3 -m
skewform.cli` would import it; no module under src/ is modified.  Hooks
replace names in the module namespaces that resolve each call, so a call
is timed whichever module makes it.

light  records only the stamps the end-to-end metrics need: entry and exit
       of `timeint.march`, each entry into `timeint.rk4_step`, each verify
       suite call (through `verify.CHECKS`, which `cmd_verify` dispatches
       on) and each operator build made by `verify`.  That is a few
       hundred stamps per job.
trace  wraps every public function in LAYERS and records one span per
       call: function, start, end and parent span.  Self time is a span's
       duration minus the time its wrapped children cover.

Either way the result file is written when the CLI returns, and the
process exits with the CLI's exit code.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import numpy as np

# The traced functions, per module of the package.
LAYERS = {
    "sbp_core": ("apply_derivative", "inner_product", "boundary_quadrature",
                 "build_operators"),
    "models": ("coeff_matrices", "check_admissible", "wavespeeds", "coeff_split"),
    "spatial_op": ("eval_primal_residual", "eval_dual_residual",
                   "eval_new_linearised_pair", "eval_remainder_H",
                   "bilinear_face_functional"),
    "boundary": ("build_sat",),
    "energy": ("energy_report", "total_energy", "boundary_contraction"),
    "timeint": ("march", "rk4_step"),
    "verify": ("check_energy_identity", "check_duality", "check_swe_ansatz",
               "check_alpha_independence", "check_decomposition"),
    "cli": ("write_reports_csv", "write_final_state"),
}


def _modules():
    return {name: importlib.import_module(f"skewform.{name}") for name in LAYERS}


def _replace(mods, package, fn, wrapper) -> int:
    """Rebinds every reference to fn in the package's module namespaces
    and in the dicts they hold (verify.CHECKS); returns the count."""
    hits = 0
    for mod in (package, *mods.values()):
        space = vars(mod)
        for key, value in list(space.items()):
            if value is fn:
                space[key] = wrapper
                hits += 1
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is fn:
                        value[dkey] = wrapper
                        hits += 1
    return hits


class Tracer:
    """Spans kept in memory: [function, start, end, parent, child_time]."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.work = {}  # name -> [flop, bytes] computed from arguments

    def wrap(self, name, fn, work=None):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tally = self.work.setdefault(name, [0, 0]) if work else None

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [fid, clock(), 0.0, parent, 0.0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                rec[2] = end
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - rec[1]
            if tally is not None:
                flop, nbytes = work(*args, **kwargs)
                tally[0] += flop
                tally[1] += nbytes
            return result

        return wrapper

    def summary(self) -> dict:
        """{name: [calls, total_s, self_s]} over all spans."""
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for fid, start, end, _, child in self.spans:
            row = out[self.names[fid]]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        return out


class ApplyWork:
    """Flop and byte counts of D applied along one axis, computed from
    nnz(D) and the field shape: 2 flop per nonzero per line, and 8-byte
    reads of the field and of D's nonzeros plus 8-byte writes of the
    result."""

    def __init__(self):
        self.nnz = {}  # id(op) -> (op, nnz); op kept so ids are not reused

    def __call__(self, op, field, axis=0):
        entry = self.nnz.get(id(op))
        if entry is None or entry[0] is not op:
            entry = (op, int(np.count_nonzero(op.D)))
            self.nnz[id(op)] = entry
        size = int(np.size(field))
        lines = size // op.n
        return 2 * entry[1] * lines, 8 * (2 * size + entry[1])


def install_trace(mods, package) -> Tracer:
    tracer = Tracer()
    for modname, names in LAYERS.items():
        for fname in names:
            fn = getattr(mods[modname], fname)
            work = ApplyWork() if fname == "apply_derivative" else None
            wrapper = tracer.wrap(f"{modname}.{fname}", fn, work)
            if not _replace(mods, package, fn, wrapper):
                raise RuntimeError(f"{modname}.{fname} not found to wrap")
    return tracer


def install_light(mods) -> dict:
    """Stamps for the end-to-end metrics; see the module docstring."""
    ev = {"march": [], "steps": [], "suites": [], "builds": []}
    clock = time.monotonic
    cli, timeint, verify = mods["cli"], mods["timeint"], mods["verify"]

    march = cli.march

    def timed_march(sc):
        start = clock()
        try:
            return march(sc)
        finally:
            ev["march"].append([start, clock(), _prod(sc.grid.shape)])

    rk4_step = timeint.rk4_step

    def timed_step(*args, **kwargs):
        ev["steps"].append(clock())
        return rk4_step(*args, **kwargs)

    build = verify.build_operators

    def timed_build(grid, order):
        ev["builds"].append([clock(), _prod(grid.shape)])
        return build(grid, order)

    # Only the bindings these calls resolve through: cmd_run calls
    # cli.march, march calls timeint.rk4_step, the suites call
    # verify.build_operators and cmd_verify dispatches on verify.CHECKS.
    cli.march = timed_march
    timeint.rk4_step = timed_step
    verify.build_operators = timed_build
    for name, suite in list(verify.CHECKS.items()):
        verify.CHECKS[name] = _timed_suite(suite, ev["suites"], clock)
    return ev


def _timed_suite(suite, out, clock):
    def wrapper(*args, **kwargs):
        start = clock()
        try:
            return suite(*args, **kwargs)
        finally:
            out.append([start, clock()])

    return wrapper


def _prod(shape) -> int:
    n = 1
    for s in shape:
        n *= int(s)
    return n


def main(argv) -> int:
    split = argv.index("--")
    head, cli_args = argv[:split], argv[split + 1:]
    mode, result_path = head[0], head[1]
    spans_path = head[2] if len(head) > 2 else None

    import skewform
    from skewform import cli

    mods = _modules()
    tracer = ev = None
    if mode == "trace":
        tracer = install_trace(mods, skewform)
    elif mode == "light":
        ev = install_light(mods)
    else:
        raise SystemExit(f"unknown hook mode {mode!r}")

    code = cli.main(cli_args)
    # Stamped before any result is written, so span output is not timed.
    result = {"code": code, "package": skewform.__file__,
              "cli_done": time.monotonic()}
    if ev is not None:
        result["events"] = ev
    else:
        result["layers"] = tracer.summary()
        result["work"] = tracer.work
        if spans_path:
            with open(spans_path, "w") as fh:
                json.dump({"names": tracer.names,
                           "fields": ["function", "start", "end", "parent",
                                      "child_time"],
                           "spans": tracer.spans}, fh)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
