"""Oracle for the Fig. 5 cascade of ``repro.core.service.OasisService``."""

from typing import Dict, List

from repro.core.access_log import AccessKind
from repro.core.credentials import CredentialRef
from repro.core.service import OasisService
from repro.events import CREDENTIAL_REVOKED, Event, Subscription


class PerEdgeService(OasisService):
    """The original cascade: every issued credential subscribes to the
    revocation channel of each of its membership dependencies, and each
    delivered event revokes one dependent, which publishes its own event
    in turn.  The reverse-dependency index is still maintained (install
    links, revoke unlinks) but never drives a cascade.  It refuses a
    store that already holds records."""

    def __init__(self, *args, **kwargs) -> None:
        self._dependency_subs: Dict[CredentialRef, List[Subscription]] = {}
        super().__init__(*args, **kwargs)
        if self._records:
            raise NotImplementedError(
                "per-edge subscriptions are not persisted, so a recovered "
                "root's recovered dependents would stay active")

    def _grant(self, *args, **kwargs):
        records = super()._grant(*args, **kwargs)
        for record in records:
            ref = record.ref
            subs = [self.broker.subscribe(
                        CREDENTIAL_REVOKED,
                        lambda event, dep=ref: self._on_dependency_revoked(
                            dep, event),
                        credential_ref=str(dependency))
                    for dependency in record.membership_dependencies]
            if subs:
                self._dependency_subs[ref] = subs
        return records

    def revoke(self, ref: CredentialRef, reason: str = "revoked") -> bool:
        record = self._records.get(ref)
        if record is None or not record.revoke(reason, self.clock()):
            return False
        obs = self._obs
        if obs is not None:
            span = obs.tracer.start_span(
                "revoke", timestamp=self.clock(), service=str(self.id),
                credential_ref=str(ref), reason=reason)
        try:
            self.stats.revocations += 1
            principal = record.principal.value if record.principal else "-"
            self._audit(AccessKind.REVOCATION, principal, str(ref),
                        reason=reason)
            self._teardown_watch(ref)
            self._unlink_dependencies(record)
            for subscription in self._dependency_subs.pop(ref, []):
                subscription.cancel()
            self._publish_cascade([self._revocation_event(ref, reason)],
                                  [record])
            return True
        finally:
            if obs is not None:
                span.finish(self.clock())

    def _revoke_dependents(self, key, reason):
        # The service-level handler still drops cached entries; cascading
        # is per edge.
        return []

    def _on_dependency_revoked(self, dependent: CredentialRef,
                               event: Event) -> None:
        record = self._records.get(dependent)
        if record is None or not record.active:
            return
        self.stats.cascade_revocations += 1
        self.revoke(dependent,
                    f"membership dependency {event.get('credential_ref')} "
                    f"revoked ({event.get('reason')})")
