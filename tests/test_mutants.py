"""Mutation tests for the verify suites: each row breaks one part of the
scheme in process and names the suites that must fail on it at trials=3,
seed=0.  Every mutant is undone by monkeypatch once its row has run.  A
mutant that fails no suite fails the test, since `skewform verify all`
would then pass a scheme that is wrong.

The dual's two mutants (its flux sign and its negated spatial part) fail
the duality suite, which checks the dual identity at V = Phi: the energy
suite's dual trials at V = U, which repeated its nonlinear trials bit for
bit, caught nothing that verify all now misses.

Left out: a P-weight mutant (the first (4,2) boundary weight 17/48 scaled
by 1 + 1e-6).  It fails no suite today, since the skew-form identities
read Q only (U P D U = U Q U).  The accuracy check that would catch it is
a new verify suite, and a new suite changes the output of verify all and
so perfbench's verify_all hash.
"""

import dataclasses

import pytest

from skewform import models, sbp_core, spatial_op
from skewform.verify import CHECKS

TRIALS, SEED = 3, 0


def dual_flux_sign_flipped(monkeypatch):
    """The dual's face fluxes enter with -2, the primal's sign."""
    call = spatial_op.Operator.__call__

    def mutant(op, U, sat=None, forcing=None, dual=False):
        return dataclasses.replace(call(op, U, sat, forcing, dual), flux_sign=-2.0)
    monkeypatch.setattr(spatial_op.Operator, "__call__", mutant)


def dual_spatial_not_negated(monkeypatch):
    """The dual takes the assembler output as it is, not negated."""
    call = spatial_op.Operator.__call__

    def mutant(op, U, sat=None, forcing=None, dual=False):
        res = call(op, U, sat, forcing)
        return dataclasses.replace(res, flux_sign=2.0) if dual else res
    monkeypatch.setattr(spatial_op.Operator, "__call__", mutant)


def untransposed_skew_term(monkeypatch):
    """A_ax D_ax W in place of A_ax^T D_ax W in _assemble, the only
    transposed product in spatial_op."""
    matfield_apply = spatial_op.matfield_apply
    monkeypatch.setattr(spatial_op, "matfield_apply",
                        lambda M, W, transpose=False, out=None: matfield_apply(M, W, False, out))


def q_block_entry_moved(monkeypatch):
    """Q[0, 1] of the (4,2) boundary block (and its mirror) off by +1e-6."""
    block = [list(row) for row in sbp_core._Q_BLOCK[(4, 2)]]
    block[0][1] += 1e-6
    monkeypatch.setitem(sbp_core._Q_BLOCK, (4, 2), tuple(map(tuple, block)))


def symmetric_coriolis(monkeypatch):
    """swe2d's Coriolis term f at both (1, 2) and (2, 1), not skew."""
    names, axes, write = models._KINDS["swe2d"]

    def mutant(model, V, pos):
        A, C = write(model, V, pos)
        return A, {(1, 2): C[(2, 1)], (2, 1): C[(2, 1)]}
    monkeypatch.setitem(models._KINDS, "swe2d", (names, axes, mutant))


# Each row: the mutant, and the suites that must fail under it, with the
# max residuals measured at trials=3, seed=0 (tolerance 1e-12 for both).
# ansatz, alpha and decomposition pass every row.
MUTANTS = [
    (dual_flux_sign_flipped, {"duality"}),  # 0.767
    (dual_spatial_not_negated, {"duality"}),  # 0.767
    (untransposed_skew_term, {"energy", "duality"}),  # 0.870, 0.836
    (q_block_entry_moved, {"energy", "duality"}),  # 1.54e-6, 1.01e-6
    (symmetric_coriolis, {"energy", "duality"}),  # 0.0522, 0.0798
]


def failing_suites() -> set:
    """The suites of verify all that fail, run as the CLI runs them."""
    reports = {name: check(seed=SEED) if name == "ansatz" else check(trials=TRIALS, seed=SEED)
               for name, check in CHECKS.items()}
    return {name for name, report in reports.items() if not report.passed}


def test_every_suite_passes_the_unmutated_scheme():
    assert failing_suites() == set()


@pytest.mark.parametrize("mutate, suites", MUTANTS, ids=[m.__name__ for m, _ in MUTANTS])
def test_each_mutant_fails_its_suites(monkeypatch, mutate, suites):
    mutate(monkeypatch)
    failed = failing_suites()
    assert failed, "a mutant that fails no suite shows a check without teeth"
    assert suites <= failed, failed
