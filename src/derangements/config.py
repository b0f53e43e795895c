"""Budgets, seeds and the determinism switch shared across the library.

Every exhaustive claim made by the library carries the budget it ran under,
so certificates stay auditable.  The defaults here are deliberate choices:

* ``exhaustive`` — largest group order we will fully enumerate (element
  streams, conjugacy-class bucketing).  Refusals are explicit, never a
  silent truncation.
* ``degree`` — largest point count for a coset action we will build by BFS.
* ``chain_degree`` — largest degree at which a stabilizer chain may be
  constructed.  Product actions beyond this are handled structurally; an
  accidental attempt to chain them is an error, not a hang.
* ``scan`` — largest group order analysed directly on its own point set;
  bigger groups with a smaller faithful parent are analysed there instead.
* ``sampled_misses`` — consecutive fruitless samples before the sampled
  class search stops.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Budgets:
    exhaustive: int = 10_000_000
    degree: int = 100_000
    chain_degree: int = 20_000
    scan: int = 100_000
    sampled_misses: int = 200
    materialize: int = 1_000_000  # largest degree for explicit image arrays

    def with_(self, **kw) -> "Budgets":
        return replace(self, **kw)

    def as_dict(self) -> dict:
        return {
            "exhaustive": self.exhaustive,
            "degree": self.degree,
            "chain_degree": self.chain_degree,
            "scan": self.scan,
            "sampled_misses": self.sampled_misses,
            "materialize": self.materialize,
        }


DEFAULT_BUDGETS = Budgets()
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Settings:
    """Run-wide knobs: seed, budgets, and determinism mode.

    In determinism mode witnesses are lexicographically least among all
    found, collections are sorted, and report timings are zeroed so that
    reports are byte-identical across runs with equal settings.
    """

    seed: int = DEFAULT_SEED
    budgets: Budgets = field(default_factory=Budgets)
    determinism: bool = False


DEFAULT_SETTINGS = Settings()


class BudgetExceeded(RuntimeError):
    """An exhaustive operation refused to run past its configured budget."""


class CertificateError(RuntimeError):
    """A computed certificate failed the check that backs it.

    Raised instead of ``assert`` so the check survives ``python -O``.
    """
