"""Static-analysis passes over a policy universe.

Each pass is a module exposing ``run(universe) -> Iterator[Diagnostic]``
over the one :class:`~repro.lang.universe.PolicyUniverse` container.
Passes operate on *compiled* rules (so they also work for policies built
programmatically), but compiled rules carry the source spans the parser
threaded through (:class:`~repro.core.rules.SourceSpan`), so findings on
file-loaded policies point at policy text.

The pass list, in reporting order:

* :mod:`~repro.lang.passes.range_restriction` — OAS001, head variables a
  rule body never binds;
* :mod:`~repro.lang.passes.references` — OAS002/OAS003/OAS010, dangling
  cross-service role and appointment references and arity mismatches;
* :mod:`~repro.lang.passes.reachability` — OAS004/OAS005, roles no
  principal can ever activate and prerequisite cycles;
* :mod:`~repro.lang.passes.revocation` — OAS006/OAS007, the active-security
  dataflow: credentials whose revocation does *not* cascade (Fig. 1/Fig. 5);
* :mod:`~repro.lang.passes.dead_rules` — OAS008/OAS009, duplicate and
  shadowed rules;
* :mod:`~repro.lang.passes.parameters` — OAS011, cross-service parameter
  type inference and mismatch detection;
* :mod:`~repro.lang.passes.privileges` — OAS012, roles that gate nothing.
"""

from __future__ import annotations

from typing import List

from ..diagnostics import Diagnostic
from ..universe import PolicyUniverse

__all__ = ["ALL_PASSES", "run_passes"]


def _load_passes():
    from . import (
        range_restriction,
        references,
        reachability,
        revocation,
        dead_rules,
        parameters,
        privileges,
    )

    return (
        range_restriction.run,
        references.run,
        reachability.run,
        revocation.run,
        dead_rules.run,
        parameters.run,
        privileges.run,
    )


ALL_PASSES = _load_passes()


def run_passes(universe: PolicyUniverse,
               passes=ALL_PASSES) -> List[Diagnostic]:
    """Run the passes and return findings sorted by severity, code and
    position.  Suppression pragmas and select/ignore filters are applied
    by the caller (:func:`repro.lang.diagnostics.filter_diagnostics`)."""
    diagnostics: List[Diagnostic] = []
    for run in passes:
        diagnostics.extend(run(universe))
    return sorted(diagnostics, key=Diagnostic.sort_key)
