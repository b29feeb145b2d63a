"""Whole-universe symbolic policy verification.

Compiles every service policy of a universe into one cross-service rule
graph (:mod:`.graph`), runs a Datalog-style least-fixpoint privilege-flow
analysis over abstract principal classes (:mod:`.fixpoint`), and checks
deployment-time properties — reachability, privilege escalation, static
revocation soundness, delegation-depth bounds — reporting refutations as
OAS1xx diagnostics with minimal witness derivation trees (:mod:`.witness`,
:mod:`.properties`).  Witnesses can be replayed against the live runtime
(:mod:`.replay`), which is how the differential soundness tests pin the
static analysis to the dynamic engine.

:class:`PolicyGraph` is *the* compiled form of a
:class:`~repro.lang.universe.PolicyUniverse` and :func:`run_fixpoint`
*the* reachability algorithm: the OAS004/OAS005 lint pass and ``cli
reach`` / ``graph`` read them too, so lint and verify cannot disagree.
:mod:`.ground` asks the other question — exact, ground,
constraint-evaluating reachability for one concrete endowment.
"""

from .fixpoint import FlowResult, run_fixpoint
from .graph import Atom, EdgeCondition, PolicyGraph, RuleEdge, build_graph
from .properties import (
    Property,
    PropertyError,
    VerificationReport,
    parse_class,
    parse_property,
    parse_ref,
    verify_universe,
)
from .replay import ReplayError, replay_witness
from .witness import (
    Witness,
    chain_depth,
    find_path_through,
    render,
    services_of,
    to_dict,
    uses_appointment_edge,
    witness_for,
)

__all__ = [
    "Atom",
    "EdgeCondition",
    "FlowResult",
    "PolicyGraph",
    "Property",
    "PropertyError",
    "ReplayError",
    "RuleEdge",
    "VerificationReport",
    "Witness",
    "build_graph",
    "chain_depth",
    "find_path_through",
    "parse_class",
    "parse_property",
    "parse_ref",
    "render",
    "replay_witness",
    "run_fixpoint",
    "services_of",
    "to_dict",
    "uses_appointment_edge",
    "verify_universe",
    "witness_for",
]
