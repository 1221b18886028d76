"""Boundary-condition analysis and SAT penalty construction.

The number of boundary conditions a face needs follows the minimal-count
convention: the negative eigenvalues of the symmetric boundary matrix
S = ((n_i A_i) + (n_i A_i)^T)/2.  Three formulations are supported for the
shallow water model:

    nonlinear            the parameter-free diagonal representative
                         diag(u_n, u_n/2, u_n/2) of the contraction
                         u_n (U1^2 + (U2^2 + U3^2)/2)
    linearised           sym(n . A(mean; alpha, beta)), genuinely
                         alpha/beta dependent
    nonlinear_rewritten  the signature (-1, +1, +1)/(2 U_n sqrt(U1)) on the
                         transformed quantities (U1^2, U_n^2 + U1^2,
                         U_n U_tau); two conditions at inflow, none at
                         outflow, where the formally negative direction is
                         dominated by (U_n^2 + U1^2)^2 >= U1^4

SAT penalties are returned as fields that enter the tendency with a plus
sign (residual convention R = spatial - SAT - forcing).  Counting reports
how many conditions the energy method demands; it does not certify
well-posedness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import (ModelSpec, check_admissible, coeff_matrices, dense_matrix, make_model,
                     unit_normal)
from .sbp_core import Grid, face_label, face_layer

# Non-glancing threshold of the rewritten formulation and the two-condition SAT.
DELTA_N = 1e-8
# The spec whose admissible set a bare swe2d face state is checked against.
_SWE2D = make_model("swe2d")


@dataclass(frozen=True)
class FaceClosure:
    """One face's resolved closure: 'characteristic' or 'swe_two_condition',
    with its boundary data and penalty scale (by default the kind's own,
    from _CLOSURES)."""

    kind: str
    g: float = 0.0
    g2: float = 0.0
    g3: float = 0.0
    scale: float | None = None

    def __post_init__(self):
        if self.scale is None:
            object.__setattr__(self, "scale", _CLOSURES[self.kind][3])


def _characteristic_penalty(op, face, Uf, sign, closure, weight):
    """Burgers inflow penalty sigma (u - g) / weight, sigma = scale * S where
    the face's boundary matrix S = sign * V / 3 (standard form: V / 2) in the
    operator's face table flows in (S < 0), else 0.  The default scale 3 is
    the Jacobian's at V = u: linearised about u = g, the skew operator's
    boundary matrix is n g / 2 (not the frozen n g / 3) and the penalty's
    Jacobian is scale * n g / 3, which equals the dual-consistent twice
    n g / 2 at scale 3.  The homogeneous inflow face then adds
    (4/3) u_n u^2 < 0 to the energy rate (strictly dissipative), and
    (1, u)_P superconverges, at order 4 and above where scale 1 gives 3.
    At a fixed V the penalty is linear in u, and scale 2 is dual-consistent.
    """
    S = sign * op.face_tables[face][(0, 0)]
    sigma = np.where(S < 0.0, closure.scale * S, 0.0)
    return sigma * (Uf - closure.g) / weight


def _two_condition_penalty(op, face, Uf, sign, closure, weight):
    """Two-condition shallow water inflow penalty.

    Penalises the conditions a2 = U_n^2 + U1^2 = g2^2 and a3 = U_n U_tau =
    g3^2 through the state direction, with the scaling that makes the face
    energy rate telescope to the quadrature of
    (-U1^4 + g2^4 + g3^4) / (|U_n| sqrt(U1)), the sign structure of the
    continuous two-condition bound, at V = U.  Only strictly inflow nodes,
    U_n < -DELTA_N, are penalised: the sign turns this test alone, since a2,
    a3 and |U_n| do not depend on it.
    """
    check_admissible(op.model, Uf)  # the penalty reads the face layer only
    un, utau = swe_normal_tangential(Uf, (sign, 0.0) if face[0] == 0 else (0.0, sign))
    root = np.sqrt(Uf[0])
    active = un < -DELTA_N
    safe_un = np.where(active, un, -1.0)
    a2 = un * un + Uf[0] * Uf[0]
    a3 = un * utau
    usq = Uf[0] ** 2 + Uf[1] ** 2 + Uf[2] ** 2
    g2_4 = closure.g2 ** 4
    g3_4 = closure.g3 ** 4
    sigma = -closure.scale * ((a2 * a2 - g2_4) + (a3 * a3 - g3_4)) / (
        2.0 * np.abs(safe_un) * root * usq
    )
    sigma = np.where(active, sigma, 0.0) / weight
    return sigma * Uf


# Each closure kind: the model it closes (None: any model), the options it
# reads, its penalty (None: no penalty), which maps (operator, face, its layer
# of the acted-on state, the sign of its boundary matrix, FaceClosure, its
# boundary weight) to the penalty layer, divided by the weight, and its scale.
_CLOSURES = {
    "none": (None, (), None, 1.0),
    "periodic": (None, (), None, 1.0),
    "characteristic": ("burgers1d", ("g", "scale"), _characteristic_penalty, 3.0),
    "swe_two_condition": ("swe2d", ("g2", "g3", "scale"), _two_condition_penalty, 1.0),
}


def _entry_problem(model: ModelSpec, grid: Grid, faces: dict, entries: dict,
                   label) -> str | None:
    """Why the closure entry given for label is refused, or None; faces maps
    every face label of the grid to its (axis, side)."""
    kind = entries[label].get("kind")
    if label not in faces:
        return f"bad face label; expected one of {list(faces)}"
    if kind not in _CLOSURES:
        return f"unknown closure '{kind}'; try one of {tuple(_CLOSURES)}"
    closes, reads, _, _ = _CLOSURES[kind]
    if closes not in (None, model.kind):
        return f"{kind} closure is a {closes} face closure, the model is {model.kind}"
    unread = [key for key in entries[label] if key not in ("kind", *reads)]
    if unread:
        return f"{kind} closure reads no {', '.join(unread)}"
    closure = FaceClosure(**entries[label])
    if not 0.0 < closure.scale < np.inf:
        return f"penalty scale must be positive and finite, got {closure.scale}"
    if not np.isfinite((closure.g, closure.g2, closure.g3)).all():
        return "boundary data must be finite"
    ax, side = faces[label]
    name = grid.axis_names[ax]
    if kind == "periodic" and not grid.periodic[ax]:
        return (f"axis {name}: periodic closure requires a grid built periodic on"
                " that axis (the circulant operator carries the closure)")
    if kind != "periodic" and grid.periodic[ax]:
        return f"axis {name} is periodic and has no faces to close"
    # the other face of a periodic axis takes a periodic closure or none
    other = face_label(grid, (ax, "high" if side == "low" else "low"))
    if kind == "periodic" and other not in entries:
        return f"axis {name}: periodic closure must cover both faces"
    return None


def make_sat_config(model: ModelSpec, grid: Grid, entries: dict, where=repr) -> dict:
    """Resolves face label -> closure entries, each the keyword dict
    {"kind": kind, option: value, ...} of the options it sets, against the
    model and grid they close, once.  An option the kind does not read is
    refused whatever its value, and so is an unknown option name.

    Returns the penalised faces {(axis, side): FaceClosure} in entry order;
    'none' and 'periodic' faces are checked and left out.  The first
    refused entry raises ValueError, naming the entry as where(label).
    """
    faces = {face_label(grid, (ax, s)): (ax, s) for ax in range(grid.dim)
             for s in ("low", "high")}
    for label in entries:
        problem = _entry_problem(model, grid, faces, entries, label)
        if problem is not None:
            raise ValueError(f"{where(label)}: {problem}")
    return {faces[label]: FaceClosure(**entry) for label, entry in entries.items()
            if _CLOSURES[entry["kind"]][2] is not None}


def build_sat(op, U: np.ndarray, sat: dict | None, dual: bool) -> np.ndarray | None:
    """The SAT penalty field on the state U of the operator op from the faces
    make_sat_config resolved, each given the sign of its boundary matrix
    (outward; inward for the dual); None when there is no config.  Periodic
    and 'none' faces are not among them: the operator carries the former.
    """
    if sat is None:
        return None
    field = np.zeros(U.shape)
    for (ax, side), closure in sat.items():
        sign = -1.0 if (side == "low") != dual else 1.0
        penalty = _CLOSURES[closure.kind][2]
        face_layer(op.grid, field, (ax, side))[...] += penalty(
            op, (ax, side), face_layer(op.grid, U, (ax, side)), sign, closure,
            op.ops[ax].P[0 if side == "low" else -1])
    return field


def _zero_tolerance(eigs: np.ndarray) -> float:
    """Eigenvalues no larger than this in magnitude count as zero."""
    return 1e-12 * max(float(np.max(np.abs(eigs))), 1e-300)


def _signature_counts(eigs: np.ndarray) -> tuple[int, int, int]:
    tol = _zero_tolerance(eigs)
    neg = int(np.sum(eigs < -tol))
    pos = int(np.sum(eigs > tol))
    return neg, eigs.size - neg - pos, pos


@dataclass(frozen=True, eq=False)
class BoundaryAnalysis:
    """Eigen-analysis of one face at one state."""

    formulation: str
    face: str | None
    normal: tuple
    alpha: float | None
    beta: float | None
    S: np.ndarray
    eigenvalues: np.ndarray
    n_negative: int
    n_zero: int
    n_positive: int
    bc_count: int
    contraction: float | None


def swe_normal_tangential(U, normal) -> tuple[np.ndarray, np.ndarray]:
    """Transformed normal and tangential momenta U_n, U_tau."""
    n1, n2 = float(normal[0]), float(normal[1])
    U = np.asarray(U, dtype=np.float64)
    return n1 * U[1] + n2 * U[2], -n2 * U[1] + n1 * U[2]


def swe_rewritten_contraction(U, normal) -> float:
    """The rewritten boundary contraction
    ((U_n^2+U1^2)^2 + (U_n U_tau)^2 - U1^4) / (2 U_n sqrt(U1)).

    Equals the plain contraction u_n (U1^2 + (U2^2+U3^2)/2) identically;
    raises on inadmissible states, on a normal that is not a 2D unit vector
    and on glancing states, |U_n| < DELTA_N.
    """
    check_admissible(_SWE2D, U)
    U = np.asarray(U, dtype=np.float64)
    un, utau = swe_normal_tangential(U, unit_normal(_SWE2D, normal))
    if abs(float(un)) < DELTA_N:
        raise ValueError(f"glancing face state: |U_n| = {abs(float(un))} < {DELTA_N}")
    root = np.sqrt(U[0])
    a2 = un * un + U[0] * U[0]
    a3 = un * utau
    return float((a2 * a2 + a3 * a3 - U[0] ** 4) / (2.0 * un * root))


def analyze_boundary(
    model: ModelSpec,
    state,
    normal,
    formulation: str = "nonlinear",
    face: str | None = None,
    pos=None,
) -> BoundaryAnalysis:
    """Eigen-counts the boundary conditions one face state demands: each
    formulation builds its boundary matrix S, and one step reads from S the
    eigenvalues, the signature, the count (the rewritten formulation sets its
    own) and the nonlinear contraction state . S state.

    Args:
        model: the model analysed, with its swe2d splitting alpha, beta
            (with_params(make_model("swe2d"), alpha=0.3) for another one).
        state: the face state (the mean state for 'linearised').
        normal: outward unit normal, length model.dim.
        formulation: 'nonlinear', 'linearised', or 'nonlinear_rewritten'.
        pos: per-axis coordinates of the face node (euler3d_cyl radius).
    """
    normal = unit_normal(model, normal)
    state = check_admissible(model, state)
    a_out, b_out = (model.alpha, model.beta) if model.kind == "swe2d" else (None, None)

    count = contraction = None
    if formulation == "nonlinear_rewritten":
        if model.kind != "swe2d":
            raise ValueError("the rewritten formulation applies to swe2d only")
        contraction = swe_rewritten_contraction(state, normal)
        un = float(swe_normal_tangential(state, normal)[0])
        c = 1.0 / (2.0 * un * float(np.sqrt(state[0])))
        S = np.diag([-c, c, c])
        # Two genuine conditions at inflow; none at outflow, where the
        # negative direction is dominated by (U_n^2 + U1^2)^2 >= U1^4.
        count = 2 if un < 0.0 else 0
    elif formulation == "nonlinear" and model.kind == "swe2d":
        vn = float(swe_normal_tangential(state, normal)[0] / np.sqrt(state[0]))
        S = np.diag([vn, vn / 2.0, vn / 2.0])
    elif formulation in ("nonlinear", "linearised"):
        A, _ = coeff_matrices(model, state, pos)
        M = np.zeros((model.n_comp, model.n_comp))
        for ax in range(model.dim):
            M += normal[ax] * dense_matrix(A[ax], model.n_comp)
        S = 0.5 * (M + M.T)
    else:
        raise ValueError(
            "formulation must be 'nonlinear', 'linearised', or 'nonlinear_rewritten'"
        )
    if formulation == "nonlinear":
        contraction = float(state @ S @ state)
    eigs = np.linalg.eigvalsh(S)
    neg, zero, pos_n = _signature_counts(eigs)
    return BoundaryAnalysis(
        formulation=formulation, face=face, normal=normal,
        alpha=a_out, beta=b_out, S=S, eigenvalues=eigs,
        n_negative=neg, n_zero=zero, n_positive=pos_n,
        bc_count=neg if count is None else count, contraction=contraction,
    )


def analysis_table(analysis: BoundaryAnalysis) -> str:
    """Human-readable multi-line summary."""
    lines = []
    if analysis.face:
        lines.append(f"face           {analysis.face}")
    lines.append(f"normal         {analysis.normal}")
    lines.append(f"formulation    {analysis.formulation}")
    if analysis.alpha is not None:
        lines.append(f"alpha, beta    {analysis.alpha}, {analysis.beta}")
    tol = _zero_tolerance(analysis.eigenvalues)
    eig = ", ".join("0" if abs(v) <= tol else f"{v:.6g}"
                    for v in analysis.eigenvalues)
    lines.append(f"eigenvalues    {eig}")
    lines.append(
        "signature      "
        f"{analysis.n_negative} negative, {analysis.n_zero} zero, "
        f"{analysis.n_positive} positive"
    )
    lines.append(f"bc count       {analysis.bc_count}")
    if analysis.contraction is not None:
        lines.append(f"contraction    {analysis.contraction:.12g}")
    return "\n".join(lines)


ANALYSIS_CSV_HEADER = ("face", "formulation", "alpha", "beta", "eigenvalues", "count")


def analysis_csv_row(analysis: BoundaryAnalysis) -> tuple:
    eig = ";".join(repr(float(v)) for v in analysis.eigenvalues)
    return (
        analysis.face or "",
        analysis.formulation,
        "" if analysis.alpha is None else repr(analysis.alpha),
        "" if analysis.beta is None else repr(analysis.beta),
        eig,
        analysis.bc_count,
    )
