"""Budgets, the default seed and the library's exception types.

Every exhaustive claim made by the library carries the budget it ran under,
so certificates stay auditable.  The defaults here are deliberate choices:

* ``exhaustive`` — largest group order we will fully enumerate (element
  streams, conjugacy-class bucketing).  Refusals are explicit, never a
  silent truncation.
* ``degree`` — largest point count for a coset action we will build by BFS.
* ``chain_degree`` — largest degree at which a stabilizer chain may be
  constructed.  Product actions beyond this are handled structurally; an
  accidental attempt to chain them is an error, not a hang.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Budgets:
    exhaustive: int = 10_000_000
    degree: int = 100_000
    chain_degree: int = 20_000
    materialize: int = 1_000_000  # largest degree for explicit image arrays


DEFAULT_BUDGETS = Budgets()
DEFAULT_SEED = 0


class BudgetExceeded(RuntimeError):
    """An exhaustive operation refused to run past its configured budget."""


class CertificateError(RuntimeError, AssertionError):
    """A computed certificate failed the check that backs it.

    Raised instead of ``assert`` so the check survives ``python -O``.  It
    is also an ``AssertionError``, so callers that caught the failures of
    the former ``assert`` statements still catch it.
    """
