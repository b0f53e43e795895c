"""Budgets, fixed limits, the default seed and the library's exception types.

Every exhaustive claim made by the library carries the budgets it ran
under, so certificates stay auditable.  A ``Budgets`` holds the two limits
a caller can set (``--budget-exhaustive``, ``--budget-degree``):

* ``exhaustive`` — largest group order we will fully enumerate (element
  streams, conjugacy-class bucketing).  Refusals are explicit, never a
  silent truncation.
* ``degree`` — largest point count for a coset action we will build by BFS.

Two limits are fixed: ``CHAIN_DEGREE``, the largest degree at which a
stabilizer chain may be built (product actions beyond it are handled
structurally; an accidental attempt to chain them is an error, not a hang),
and ``MATERIALIZE``, the largest degree for explicit image arrays.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Budgets:
    exhaustive: int = 10_000_000
    degree: int = 100_000


DEFAULT_BUDGETS = Budgets()
DEFAULT_SEED = 0
CHAIN_DEGREE = 20_000
MATERIALIZE = 1_000_000


class BudgetExceeded(RuntimeError):
    """An exhaustive operation refused to run past its configured budget."""


class CertificateError(RuntimeError, AssertionError):
    """A computed certificate failed the check that backs it.

    Raised instead of ``assert`` so the check survives ``python -O``.  It
    is also an ``AssertionError``, so callers that caught the failures of
    the former ``assert`` statements still catch it.
    """
