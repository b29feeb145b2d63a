"""Analysis tooling for the OASIS policy language (the paper's [1] thread).

The front end — ``parse_policy``, ``format_document`` and the AST — is
:mod:`repro.policy`; runtime code and the tooling's callers import it
from there.

Analysis is one stack: a :class:`PolicyUniverse` (:mod:`.universe`) holds
the policies under review, :mod:`.verify` compiles it into one rule graph
and runs one least fixpoint over it, and the lint passes (:mod:`.passes`),
``cli reach`` / ``graph`` and the property checker all read that result —
every finding is a :class:`Diagnostic`.  :class:`GroundReachability` asks
the different, exact, per-principal question of the same universe.
"""

from .diagnostics import (
    CODES,
    CodeInfo,
    Diagnostic,
    render_json,
    render_sarif,
    render_text,
)
from .universe import PolicyUniverse
from .loader import (
    PolicyUnit,
    discover_policy_files,
    load_policies,
    load_policy_file,
    load_unit,
    load_units,
)
from .passes import run_passes
from .verify.ground import Endowment, GroundReachability, ReachabilityResult

__all__ = [
    "CODES",
    "CodeInfo",
    "Diagnostic",
    "Endowment",
    "GroundReachability",
    "PolicyUniverse",
    "PolicyUnit",
    "ReachabilityResult",
    "discover_policy_files",
    "load_policies",
    "load_policy_file",
    "load_unit",
    "load_units",
    "render_json",
    "render_sarif",
    "render_text",
    "run_passes",
]
