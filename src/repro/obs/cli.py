"""Observability CLI: ``python -m repro trace`` / ``python -m repro metrics``.

Both commands build a small demonstration world with the observability
pipeline enabled, run a scenario, and render what the pipeline captured:

* ``trace`` — a depth-N (default 16) Fig. 5 revocation cascade across a
  chain of services, one role per service, each role requiring the
  previous service's role as a membership dependency.  Revoking the root
  credential collapses the whole chain; the command prints the
  reconstructed causal trace tree (text or JSON).
* ``metrics`` — the same cascade plus a granted and a denied activation,
  rendered as Prometheus text or JSON metric families.

This module is the one part of :mod:`repro.obs` that imports the runtime
(:mod:`repro.core`, :mod:`repro.events`) — it *builds worlds*.  The
command-line front end imports it lazily so plain policy tooling never
pays for it; everything else in the package stays import-cycle-free.

The scenario builders double as test fixtures: the depth-16 JSON tree is
snapshot-tested in ``tests/obs/test_cli.py``.
"""

from __future__ import annotations

import argparse
import json
from typing import Tuple

from ..core import OasisService, Principal, ServiceRegistry
from ..events import EventBroker
from ..net import SimClock
from ..netd.worlds import chain
from ..policy import parse_policy
from .export import (
    metrics_to_json_dict,
    render_prometheus,
    render_trace_text,
    trace_to_dict,
)
from .runtime import Observability, observed

__all__ = ["run_chain_cascade", "run_denied_activation",
           "cmd_trace", "cmd_metrics"]


def run_chain_cascade(depth: int = 16, cascade_only: bool = True,
                      ) -> Tuple[Observability, str]:
    """Run the demo cascade; returns the pipeline and the cascade's
    trace id.

    With ``cascade_only`` (the default) the tracer is cleared after the
    session build-up, so the surviving trace is exactly the revocation
    cascade — one root ``revoke`` span with ``depth + 1`` nested
    ``cascade.revoke`` spans.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    with observed() as obs:
        clock = SimClock()
        broker = EventBroker()
        registry = ServiceRegistry()
        services = [OasisService(policy, broker, registry, clock)
                    for policy in chain(depth)]
        principal = Principal("alice")
        session = principal.start_session(services[0], "role", ["alice"])
        rmcs = [session.root_rmc]
        for service in services[1:]:
            clock.advance(0.001)  # one sim-clock tick per hop of build-up
            rmcs.append(session.activate(service, "role"))
        if cascade_only:
            obs.tracer.reset()
        clock.advance(0.001)
        services[0].revoke(rmcs[0].ref, "demo revocation")
    trace_ids = obs.tracer.trace_ids()
    if not trace_ids:
        raise RuntimeError("cascade produced no trace")
    return obs, trace_ids[-1]


def run_denied_activation(obs: Observability) -> None:
    """Drive one granted and one denied activation under ``obs``.

    The denial exercises the explainer: the clerk role requires the
    ``role`` of a login service the principal never activated, so the
    decision names the failing prerequisite condition.
    """
    with observed(obs):
        clock = SimClock()
        broker = EventBroker()
        registry = ServiceRegistry()
        login = OasisService(parse_policy(
            "service dom/login\nrole logged_in(u)\nactivate logged_in(u)\n"),
            broker, registry, clock)
        desk = OasisService(parse_policy(
            "service dom/desk\nrole clerk(u)\n"
            "activate clerk(u) <- dom/login:logged_in(u)*\n"),
            broker, registry, clock)

        alice = Principal("alice")
        alice.start_session(login, "logged_in", ["alice"])  # granted
        try:
            # Denied: presents no credentials at all.
            desk.activate_role(alice.id, "clerk")
        except Exception:
            pass


def cmd_trace(args: argparse.Namespace) -> int:
    obs, trace_id = run_chain_cascade(depth=args.depth)
    if args.format == "json":
        print(json.dumps(trace_to_dict(obs.tracer, trace_id), indent=2,
                         sort_keys=True))
    else:
        print(render_trace_text(obs.tracer, trace_id))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    obs, _ = run_chain_cascade(depth=args.depth)
    run_denied_activation(obs)
    families = obs.metrics.collect()
    if args.format == "json":
        print(json.dumps(metrics_to_json_dict(families), indent=2,
                         sort_keys=True))
    else:
        print(render_prometheus(families), end="")
    return 0
