"""Reference implementations the differential suites compare against.

Each oracle subclasses the production class and overrides only the step
whose algorithm differs, so everything else (validation, bookkeeping,
observability) is the code under test:

* :class:`NaiveRuleEngine` — the seed's scan-and-slice solver;
* :class:`ProbeRuleEngine` — denials explained by a dedicated
  canonical-order probe instead of the solver over body prefixes;
* :class:`ScanBroker` — registration-order scan instead of indexed dispatch;
* :class:`PerEdgeService` — one broker subscription per membership
  dependency and per-event recursive revocation instead of the batched
  reverse-index cascade;
* :func:`reference_canonical_encode` — the isinstance-chain field
  encoding, against the exact-type dispatch that replaced it.

Nothing under ``src/`` imports these.
"""

from .broker import ScanBroker
from .canonical import canonical_encode as reference_canonical_encode
from .engine import NaiveRuleEngine
from .explain import ProbeRuleEngine
from .service import PerEdgeService

__all__ = ["NaiveRuleEngine", "ProbeRuleEngine", "ScanBroker",
           "PerEdgeService", "reference_canonical_encode"]
