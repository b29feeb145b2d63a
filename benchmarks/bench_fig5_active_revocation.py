"""FIG5 — active security via an event infrastructure (paper Fig. 5).

The paper's claim: event channels let one service be notified of a change
of state at another "without any requirement for periodic polling", so
roles are deactivated *immediately* when membership conditions break.

This experiment drives the same revocation workload through both designs:

* **event-driven** (OASIS): cached validations dropped by revocation
  events; staleness is zero, message cost is one event per actual
  revocation;
* **polling baseline**: cached validity refreshed every T seconds;
  staleness averages ~T/2, and every poll costs a callback per watched
  credential whether anything changed or not.

Series in ``benchmarks/results/FIG5.txt``: staleness and message cost as
the polling interval sweeps, plus cascade depth cost.  Expected shape:
events win on both axes except when the polling interval is shorter than
the mean time between validations (never in practice).
"""

import pytest

from repro.baselines import PollingValidator
from repro.core import Principal
from repro.domains import Deployment
from repro.scenarios import build_hospital

from workloads import ChainWorld, record_result


@pytest.mark.parametrize("depth", [2, 8, 16])
def test_fig5_cascade_revocation_cost(benchmark, depth):
    """Wall cost of revoking a session root: the full cascade collapses."""
    world = ChainWorld(depth)
    sessions = []

    def setup():
        session, rmcs = world.build_session(
            user=f"user-{len(sessions)}")
        sessions.append(session)
        return (session.root_rmc,), {}

    def revoke(root):
        world.services[0].revoke(root.ref, "logout")

    benchmark.pedantic(revoke, setup=setup, rounds=20, iterations=1)


def test_fig5_event_notification_fanout(benchmark):
    """Cost of publishing one revocation event with 100 subscribers on
    distinct channels (only the right one fires)."""
    from repro.events import CREDENTIAL_REVOKED, Event, EventBroker

    broker = EventBroker()
    for index in range(100):
        broker.subscribe(CREDENTIAL_REVOKED, lambda event: None,
                         credential_ref=f"svc#{index}")
    event = Event.make(CREDENTIAL_REVOKED, credential_ref="svc#50",
                       reason="bench")

    benchmark(lambda: broker.publish(event))


def test_fig5_staleness_and_message_cost_series(benchmark):
    """The headline series: events vs polling on the same workload.

    Workload: 20 doctor sessions; every 50 s one login RMC is revoked.
    We measure, over 1000 s, (a) total staleness-seconds during which a
    consumer would still have honoured a dead credential, and (b) messages
    (events or polling callbacks).
    """
    rows = ["FIG5: event-driven vs polling revocation "
            "(20 sessions, 1 revocation / 50 s, horizon 1000 s)",
            "design            staleness_s_total  messages"]

    # --- event-driven: staleness 0 by construction; count events. ---------
    deployment = Deployment(use_network=False)
    world = build_hospital(deployment)
    sessions = []
    for index in range(20):
        principal = Principal(f"user-{index}")
        sessions.append(principal.start_session(
            world.login, "logged_in_user", [principal.id.value]))
    deployment.broker.published_count = 0
    revoked_at = {}
    now = 0.0
    for tick in range(20):
        now += 50.0
        deployment.clock.advance_to(now)
        session = sessions[tick]
        world.login.revoke(session.root_rmc.ref, "scheduled")
        revoked_at[session.root_rmc.ref] = now
        # The issuer record flips at the same instant -> staleness 0.
    rows.append(f"{'events (OASIS)':16s}  {0.0:17.1f}  "
                f"{deployment.broker.published_count:8d}")

    # --- polling at several intervals --------------------------------------
    for interval in (5.0, 20.0, 50.0):
        deployment = Deployment(use_network=False)
        world = build_hospital(deployment)
        sessions = []
        for index in range(20):
            principal = Principal(f"user-{index}")
            sessions.append(principal.start_session(
                world.login, "logged_in_user", [principal.id.value]))
        validator = PollingValidator(
            deployment.scheduler, interval=interval,
            lookup=lambda ref: deployment.registry.lookup(ref.service))
        for session in sessions:
            validator.watch(session.root_rmc.ref)
        validator.start()

        staleness = 0.0
        next_revocation = 50.0
        victim = 0
        pending = {}  # ref -> revocation time
        horizon = 1000.0
        step = 1.0
        while deployment.clock.now() < horizon:
            target = min(deployment.clock.now() + step, horizon)
            deployment.scheduler.run_until(target)
            if deployment.clock.now() >= next_revocation and victim < 20:
                ref = sessions[victim].root_rmc.ref
                world.login.revoke(ref, "scheduled")
                pending[ref] = deployment.clock.now()
                victim += 1
                next_revocation += 50.0
            # accumulate staleness for revoked-but-still-cached creds
            for ref, when in list(pending.items()):
                if validator.is_valid(ref):
                    staleness += step
                else:
                    del pending[ref]
        rows.append(f"poll T={interval:5.1f}s    {staleness:17.1f}  "
                    f"{validator.callbacks_made:8d}")

    record_result("FIG5", rows)

    world = ChainWorld(4)
    session, _ = world.build_session()
    benchmark(lambda: world.services[0].is_active(session.root_rmc.ref))


def test_fig5_heartbeat_failure_detection(benchmark):
    """Fig. 5's 'heartbeats or change events': a holder with 50 cached
    foreign validations notices a dead issuer within one timeout."""
    from repro.core import (ActivationRule, OasisService, PrerequisiteRole,
                            Presentation, PrincipalId, RoleTemplate,
                            ServiceId, ServicePolicy, ServiceRegistry, Var)
    from repro.events import EventBroker
    from repro.net import Scheduler, SimClock

    clock = SimClock()
    scheduler = Scheduler(clock)
    broker, registry = EventBroker(), ServiceRegistry()
    issuer_policy = ServicePolicy(ServiceId("dom", "issuer"))
    user = issuer_policy.define_role("user", 1)
    issuer_policy.add_activation_rule(
        ActivationRule(RoleTemplate(user, (Var("u"),))))
    issuer = OasisService(issuer_policy, broker, registry, clock)
    holder_policy = ServicePolicy(ServiceId("dom", "holder"))
    guest = holder_policy.define_role("guest", 1)
    holder_policy.add_activation_rule(ActivationRule(
        RoleTemplate(guest, (Var("u"),)),
        (PrerequisiteRole(RoleTemplate(user, (Var("u"),))),)))
    holder = OasisService(holder_policy, broker, registry, clock,
                          heartbeat_timeout=5.0)
    for index in range(50):
        principal = PrincipalId(f"u{index}")
        rmc = issuer.activate_role(principal, "user", [principal.value])
        holder.activate_role(principal, "guest", [principal.value],
                             [Presentation(rmc)])
    cancel = issuer.start_heartbeats(scheduler, interval=2.0)
    scheduler.run_for(10.0)
    assert holder.suspect_credentials() == []

    benchmark(holder.suspect_credentials)

    cancel()  # issuer dies
    scheduler.run_for(10.0)
    assert len(holder.suspect_credentials()) == 50
