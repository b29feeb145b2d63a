"""The OASIS-secured service (Fig. 2) and its active security machinery.

An :class:`OasisService` implements the full life-cycle of Fig. 2:

* **path 1/2 — role entry**: a client presents credentials; the service
  validates them (local signature checks for its own certificates, callback
  to the issuer for foreign ones), evaluates its activation rules, and on
  success issues a signed RMC backed by a credential record (CR);
* **path 3/4 — service use**: invocation of a registered method is guarded
  by authorization rules over presented RMCs and constraints;
* **appointment**: principals active in appointer roles may be granted
  appointment certificates for third parties;
* **active security (Fig. 5)**: every credential has an event channel;
  issuing a credential whose activation used membership-flagged credentials
  links the new CR under theirs in a reverse dependency index, so revocation
  cascades along the role-dependency edges — across services — without
  polling.  Membership-flagged *constraints* are re-evaluated when a watched
  database table changes and on explicit sweeps (time-based conditions).
* **validation caching**: validation of a foreign credential may be cached;
  the cached entry is the service's *external CR proxy* (ECR).  The paper's
  "cache the certificate and the result of validation in order to reduce
  the communication overhead of repeated callback" — ABL1 measures exactly
  this trade-off.
* **decision caching**: a warm invoke's authorization grant is memoised
  after its presentations validate (:mod:`repro.core.decisions`).

Cached validations, authorization grants, verified signatures, dependency
edges and heartbeat windows are dicts keyed by the CRR string, kept true
by the service-level subscriptions the constructor makes — never one per
cached credential.
"""

from __future__ import annotations

import functools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple,
                    Optional, Sequence, Set, Tuple, Union)

from ..db import Database, RecordStore, default_store
from ..net import NetworkError
from ..obs import runtime as _obs_runtime
from ..obs.explain import RuleAttempt
from ..obs.tracing import Span, SpanContext
from ..events import (
    CREDENTIAL_HEARTBEAT,
    CREDENTIAL_REISSUED,
    CREDENTIAL_REVOKED,
    Event,
    EventBroker,
)
from ..crypto.hmac_sig import ServiceSecret
from .constraints import EvaluationContext
from .credentials import (
    AppointmentCertificate,
    CredentialRecord,
    CredentialRef,
    CredentialRefAllocator,
    RoleMembershipCertificate,
    same_certificate,
)
from .decisions import DecisionCache, decision_key
from .engine import CredentialIndex, PresentedCredential, RuleEngine, RuleMatch
from .access_log import AccessKind, AccessLog
from .exceptions import (
    ActivationDenied,
    AppointmentDenied,
    CredentialExpired,
    CredentialInvalid,
    CredentialRevoked,
    InvocationDenied,
    OasisError,
    PolicyError,
    SignatureInvalid,
    UnknownMethod,
)
from .policy import ServicePolicy
from .rules import ConstraintCondition
from .state import (
    SERIAL_RESERVE,
    Drain,
    ServiceState,
    ServiceStateCodec,
    _MembershipWatch,
)
from .terms import Term
from .types import PrincipalId, Role, ServiceId

__all__ = [
    "ServiceRegistry",
    "OasisService",
    "ServiceStats",
    "Presentation",
    "ActivationRequest",
]

Certificate = Union[RoleMembershipCertificate, AppointmentCertificate]

#: Sentinel: "no store argument given — consult OASIS_STORE_BACKEND".
_STORE_UNSET: Any = object()


class _Kind(NamedTuple):
    """What tells the three guarded decisions apart (their body is one):
    the span and its subject attr, the record and the ServiceStats field
    a refusal writes, the rules a ``no-rule`` attempt names, and for the
    two that grant, the credential kind, record and field a grant writes."""

    span: str
    subject: str
    denied: str
    counter: str
    rules: str
    record: str = ""
    granted: str = ""
    issued: str = ""


_ACTIVATION = _Kind("activate_role", "role", AccessKind.ACTIVATION_DENIED,
                    "activations_denied", "activation", "rmc",
                    AccessKind.ACTIVATION, "rmcs_issued")
_INVOCATION = _Kind("invoke", "method", AccessKind.INVOCATION_DENIED,
                    "invocations_denied", "authorization")
_APPOINTMENT = _Kind("issue_appointment", "appointment",
                     AccessKind.APPOINTMENT_DENIED, "appointments_denied",
                     "appointment", "appointment", AccessKind.APPOINTMENT,
                     "appointments_issued")


@dataclass
class ServiceStats:
    """Operational counters, consumed by the benchmark harness."""

    rmcs_issued: int = 0
    appointments_issued: int = 0
    invocations: int = 0
    activations_denied: int = 0
    invocations_denied: int = 0
    appointments_denied: int = 0
    validations_local: int = 0
    callbacks_made: int = 0
    callbacks_served: int = 0
    cache_hits: int = 0
    cache_invalidations: int = 0
    sig_verifications: int = 0
    sig_cache_hits: int = 0
    sig_cache_invalidations: int = 0
    decision_cache_hits: int = 0
    decision_cache_invalidations: int = 0
    revocations: int = 0
    cascade_revocations: int = 0
    membership_rechecks: int = 0
    heartbeats_sent: int = 0

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        """A defensive copy of the counters.

        Callers get a plain dict they may mutate freely; the live stats
        object is unaffected.  (Prefer this over ``vars(stats)``, which
        returns the live ``__dict__``.)
        """
        return dict(vars(self))


@dataclass(frozen=True)
class Presentation:
    """A certificate as presented by a client.

    ``holder`` is the identity the presenter claims for holder-bound
    appointment certificates (a persistent principal id or ``"key:<fp>"``
    after a challenge-response proof); RMCs ignore it — their binding is the
    presenting principal id itself.

    ``on_behalf_of`` supports the Fig. 3 cross-domain protocol: a gateway
    service forwarding another principal's RMC attests the *original
    requester's* identity ("service level agreements ... would establish a
    protocol to validate local RMCs so that the identity of the original
    requester can be recorded for audit", Sect. 3).  The issuer still
    verifies that the RMC really is bound to that identity — the gateway
    can forward, not forge.
    """

    certificate: Certificate
    holder: Optional[str] = None
    on_behalf_of: Optional[str] = None


@dataclass(frozen=True)
class ActivationRequest:
    """One role activation in an :meth:`OasisService.activate_roles_bulk`
    batch — the same arguments :meth:`OasisService.activate_role` takes."""

    principal: PrincipalId
    role_name: str
    parameters: Optional[Sequence[Term]] = None
    credentials: Sequence[Presentation] = ()
    environment: Optional[Dict[str, Any]] = None
    session_id: Optional[str] = None
    bound_key: Optional[str] = None


class ServiceRegistry:
    """Maps service ids to the live services of one process.

    It is the only table from an issuer to a service: a foreign
    certificate's Sect. 4 callback is routed by ``certificate.issuer``
    alone.  A service without a network resolves its callbacks here
    (:meth:`validate_many`); :class:`~repro.net.SimNetwork` finds the
    issuer here and charges simulated latency; and
    :class:`~repro.netd.client.RemoteNetwork` answers the issuers listed
    here without a socket.
    """

    def __init__(self) -> None:
        self._services: Dict[ServiceId, "OasisService"] = {}

    def register(self, service: "OasisService") -> None:
        if service.id in self._services:
            raise ValueError(f"service {service.id} already registered")
        self._services[service.id] = service

    def lookup(self, service_id: ServiceId) -> "OasisService":
        try:
            return self._services[service_id]
        except KeyError:
            raise CredentialInvalid(
                f"cannot validate: unknown issuer {service_id}") from None

    def __contains__(self, service_id: ServiceId) -> bool:
        return service_id in self._services

    def all_services(self) -> List["OasisService"]:
        return list(self._services.values())

    def validate(self, certificate: Certificate, principal_value: str,
                 holder: Optional[str]) -> Any:
        """One callback to ``certificate``'s issuer, in process: its
        verdict, or the exception raised for it."""
        try:
            return self.lookup(certificate.issuer)._serve_validation(
                certificate, principal_value, holder)
        except Exception as error:  # noqa: BLE001 - an outcome
            return error

    def validate_many(self, _caller: "OasisService",
                      requests: Sequence[Tuple[Certificate, str,
                                               Optional[str]]]
                      ) -> List[Any]:
        """The callback validations of one request, each ``(certificate,
        principal_value, holder)``: one outcome per request, in order.
        The networks take the same arguments."""
        return [self.validate(*request) for request in requests]


class OasisService:
    """A service secured by OASIS access control (Fig. 2)."""

    def __init__(self, policy: ServicePolicy, broker: EventBroker,
                 registry: ServiceRegistry,
                 clock: Callable[[], float] = lambda: 0.0,
                 databases: Optional[Dict[str, Database]] = None,
                 network: Optional[Any] = None,
                 cache_validations: bool = True,
                 secret: Optional[ServiceSecret] = None,
                 heartbeat_timeout: Optional[float] = None,
                 access_log: Optional[AccessLog] = None,
                 store: Optional[RecordStore] = _STORE_UNSET,
                 allocator: Optional[CredentialRefAllocator] = None) -> None:
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")
        self.policy = policy
        self.id: ServiceId = policy.service
        self.broker = broker
        self.registry = registry
        self.clock = clock
        self.network = network
        self.cache_validations = cache_validations
        self.secret = secret or ServiceSecret.generate()
        self.stats = ServiceStats()
        #: Audit trail of access-control decisions ("the identity of the
        #: original requester can be recorded for audit", Sect. 3).
        self.access_log = access_log if access_log is not None \
            else AccessLog(capacity=100_000)

        self.context = EvaluationContext(clock=clock,
                                         databases=dict(databases or {}))
        self._engine = RuleEngine(self.context)
        # Serial allocation is pluggable: the sharding layer passes a
        # ShardedRefAllocator so each worker process mints only serials
        # whose CredentialRef hash lands on its own shard (ownership by
        # ref hash is then true by construction).
        if allocator is not None and allocator.service != self.id:
            raise ValueError(f"allocator is for {allocator.service}, "
                             f"not {self.id}")
        self._refs = allocator if allocator is not None \
            else CredentialRefAllocator(self.id)
        # The state core (see repro.core.state): every dict of issuer-side
        # security state lives there and mutates through it, mirrored to
        # the keyed-record store when one is attached.  Passing no
        # ``store`` argument consults the OASIS_STORE_BACKEND environment
        # variable; the default ("memory") attaches nothing — the live
        # dicts ARE the in-memory backend, and every mirror call below is
        # short-circuited by a single ``is None`` test.
        if store is _STORE_UNSET:
            store = default_store(ServiceStateCodec(), service=str(self.id))
        self._state = ServiceState(self.id, store)
        self._persist = store
        self._serials_reserved = 0
        self._pending_replay: List[Tuple[int, List[Event]]] = []
        if store is not None:
            stored_secret = self._state.load_secret()
            if secret is None and stored_secret is not None:
                # Resuming against an existing store: certificates signed
                # before the restart must keep verifying.
                self.secret = stored_secret
            else:
                self._state.save_secret(self.secret)
            self._state.attach_facts(self.context.databases)
        # Hot-path aliases: reads (and the engine-facing fast paths) touch
        # the very same dict objects the state core owns, so the storeless
        # configuration is bit-identical to the pre-refactor layout.
        self._records = self._state.records
        # Fig. 5 dependency edges, consolidated: a reverse index
        # ``dependency ref string -> ordered set of local dependent refs``
        # behind ONE service-level subscription; issuing/tearing down a
        # credential is O(dependencies) dict work and a revocation cascade
        # collapses the whole local subtree in a single pass.  (The
        # original one-Subscription-per-dependency design is the
        # differential suites' oracle, ``tests/reference/``.)
        self._dependents = self._state.dependents
        self._unlink_dependencies = self._state.unlink_dependencies
        self._watches = self._state.watches
        self._methods: Dict[str, Callable[..., Any]] = {}
        # validation cache (the ECRs), two-level: CRR string ->
        # {(requester, holder-claim): the certificate validated}.  Keying
        # the outer level by ref makes the drop on revocation O(entries for
        # that ref) instead of a scan of the whole cache — revocation cost
        # must not grow with the number of unrelated cached validations.
        self._validation_cache = self._state.validation_cache
        # Signature-verification cache: CRR string -> {(principal, holder,
        # secret generation): the certificate whose MAC verified}.  Both
        # caches hit only for that certificate (``same_certificate``), so
        # tampered copies, stolen presentations and rotated secrets all
        # miss.
        self._sig_cache = self._state.sig_cache
        # Fig. 5 heartbeat fail-safe: CRR string -> (ref, last heard) for
        # each cached ref; a cached validation is trusted only while its
        # entry exists and is younger than the timeout.
        self._heartbeat_timeout = heartbeat_timeout
        self._heard: Optional[Dict[str, Tuple[CredentialRef, float]]] = (
            {} if heartbeat_timeout is not None else None)
        # Authorization grants of warm invokes (repro.core.decisions):
        # volatile, evicted by the same credential events as the caches
        # above.
        self._decisions = DecisionCache()
        # The only subscriptions a service makes: one handler takes the
        # revocation and re-issue events — cache drops, then the cascade
        # probe — so an event costs one handler call per *service*, not one
        # per concern, cached validation or dependency edge; and only per
        # service whose state names the issuer (its ``interest``, which
        # the state core widens before it keys anything on a new issuer).
        # Heartbeats are heard the same way: ``_heard`` holds only cached
        # foreign refs, whose issuers the validation cache attended.
        handlers = [(CREDENTIAL_REVOKED, self._on_credential_event),
                    (CREDENTIAL_REISSUED, self._on_credential_event)]
        if heartbeat_timeout is not None:
            handlers.append((CREDENTIAL_HEARTBEAT, self._on_heartbeat))
        self._service_subs = [
            broker.subscribe_issuers(topic, handler, self._state.interest)
            for topic, handler in handlers]
        self._state.channels = list(self._service_subs)

        # Observability snapshot (see repro.obs.runtime): taken once at
        # construction, so every hot-path guard below is a single
        # attribute load plus an ``is None`` branch.  Enable the pipeline
        # BEFORE constructing a service to instrument it.
        self._obs = _obs_runtime.pipeline()
        if self._obs is not None:
            self._init_obs()

        registry.register(self)
        for db_name, database in self.context.databases.items():
            database.add_listener(functools.partial(
                self._on_database_change, db_name))
        if store is not None:
            self._recover()

    # ------------------------------------------------------------------
    # Observability wiring (only runs when a pipeline is installed)
    # ------------------------------------------------------------------
    def _init_obs(self) -> None:
        """Create this service's bound histograms and register the
        ServiceStats collector (pull-at-export; zero hot-path cost)."""
        metrics = self._obs.metrics
        service = str(self.id)
        self._obs_activation_latency = metrics.histogram(
            "oasis_activation_latency_seconds",
            help_text="wall-clock activate_role latency",
            label_names=("service",)).bind(service=service)
        self._obs_cascade_width = metrics.histogram(
            "oasis_cascade_width",
            buckets=(1, 2, 5, 10, 20, 50, 100, 200, 500, 1000),
            help_text="credentials collapsed per local cascade pass",
            label_names=("service",)).bind(service=service)
        self._obs_cascade_depth = metrics.histogram(
            "oasis_cascade_depth",
            buckets=(1, 2, 3, 5, 8, 12, 16, 24, 32, 64),
            help_text="dependency depth reached per local cascade pass",
            label_names=("service",)).bind(service=service)
        metrics.register_collector(self._collect_obs_metrics)

    def _collect_obs_metrics(self) -> Iterator[Tuple[str, str, str,
                                                     List[Tuple[Dict[str, Any],
                                                                Any]]]]:
        """ServiceStats and cache/credential state as metric families.

        Sampled at export time only — the counters themselves stay plain
        attribute increments on the hot paths.
        """
        service = str(self.id)
        stats = self.stats
        yield ("oasis_service_stats", "counter",
               "ServiceStats operational counters, by field",
               [({"service": service, "field": name}, value)
                for name, value in stats.snapshot().items()])
        # Each decision is counted once, in ServiceStats; the outcome
        # families are views of those counters.
        for name, help_text, granted, denied in (
                ("oasis_activations_total", "role activation outcomes",
                 stats.rmcs_issued, stats.activations_denied),
                ("oasis_invocations_total",
                 "guarded method invocation outcomes", stats.invocations,
                 stats.invocations_denied)):
            yield (name, "counter", help_text,
                   [({"service": service, "outcome": "granted"}, granted),
                    ({"service": service, "outcome": "denied"}, denied)])
        live = sum(1 for record in self._records.values() if record.active)
        yield ("oasis_live_credentials", "gauge",
               "credential records currently active",
               [({"service": service}, live)])
        yield ("oasis_validation_cache_entries", "gauge",
               "cached foreign-credential validations (ECRs)",
               [({"service": service}, self.validation_cache_size)])
        yield ("oasis_decision_cache_entries", "gauge",
               "memoised authorization grants",
               [({"service": service}, len(self._decisions))])
        # Resident-state gauges: what the 1M-principal scale work must keep
        # small.  Sampled at export only; no hot-path bookkeeping.
        yield ("oasis_memory_resident_objects", "gauge",
               "count of per-credential objects held by the service",
               [({"service": service, "kind": "credential_records"},
                 len(self._records)),
                ({"service": service, "kind": "membership_watches"},
                 len(self._watches)),
                ({"service": service, "kind": "dependency_edges"},
                 sum(len(bucket) for bucket in self._dependents.values())),
                ({"service": service, "kind": "sig_cache_refs"},
                 len(self._sig_cache))])
        yield ("oasis_memory_access_log", "gauge",
               "access-log retention counters",
               [({"service": service, "field": name}, value)
                for name, value in self.access_log.stats().items()
                if value is not None])
        if self._persist is not None:
            persist_stats = self._persist.stats()
            backend = persist_stats["backend"]
            yield ("oasis_record_store_ops", "counter",
                   "keyed-record store operation counts, by op",
                   [({"service": service, "backend": backend, "op": name},
                     value)
                    for name, value in persist_stats["ops"].items()])
            yield ("oasis_record_store_pending_writes", "gauge",
                   "write-behind buffer entries awaiting flush",
                   [({"service": service, "backend": backend},
                     persist_stats["pending_writes"])])
            yield ("oasis_record_store_log_entries", "gauge",
                   "append-log entries not yet pruned",
                   [({"service": service, "backend": backend},
                     persist_stats["log_entries"])])

    @staticmethod
    def _failed_attempt(rule: Any, failure: Optional[Any]) -> RuleAttempt:
        """A failed :class:`RuleAttempt` from an ``explain_*`` result."""
        if failure is None:
            # The rule failed but matches now: a constraint that reads the
            # clock, a database or a predicate turned true between the
            # match and its explanation.  Say so; invent no condition.
            return RuleAttempt(rule=str(rule), outcome="failed",
                               failure_kind="unknown")
        return RuleAttempt(
            rule=str(rule), outcome="failed", failure_kind=failure.kind,
            failed_condition=(str(failure.condition)
                              if failure.condition is not None else None),
            detail=failure.detail)

    def _audit(self, kind: str, principal: str, subject: str,
               detail: Tuple[Any, ...] = (),
               reason: Optional[str] = None,
               trace_id: Optional[str] = None,
               attempts: Optional[Sequence[RuleAttempt]] = None) -> None:
        if self._obs is not None and trace_id is None:
            context = self._obs.tracer.current_context()
            if context is not None:
                trace_id = context.trace_id
        self.access_log.record(self.clock(), kind, principal, subject,
                               detail, reason, trace_id,
                               tuple(attempts) if attempts else ())

    # ------------------------------------------------------------------
    # The guarded decisions' shared shape: activate, invoke, appoint
    # ------------------------------------------------------------------
    def _open(self, kind: _Kind, principal: PrincipalId, subject: str
              ) -> Tuple[Optional[Span], Optional[List[RuleAttempt]]]:
        """A decision's span and the list its rule attempts go to, opened
        before anything can refuse; ``(None, None)`` with no pipeline."""
        obs = self._obs
        if obs is None:
            return None, None
        return obs.tracer.start_span(
            kind.span, timestamp=self.clock(), service=str(self.id),
            principal=principal.value, **{kind.subject: subject}), []

    def _search(self, rules: Sequence[Any], match: Callable[..., Any],
                explain: Callable[..., Any], head: Optional[Sequence[Term]],
                presented: List[PresentedCredential],
                environment: Optional[Dict[str, Any]],
                attempts: Optional[List[RuleAttempt]]
                ) -> Optional[Tuple[Any, Any]]:
        """The one rule search: the first ``(rule, match)`` whose ``match``
        holds for ``head``, in rule order, or None.  An
        :class:`ActivationDenied` a match raises (a satisfiable body that
        leaves the head unbound) is kept, and raised if no rule matches.
        With a pipeline on, each rule that fails is explained into
        ``attempts``."""
        context = self.context if not environment \
            else self.context.with_environment(**environment)
        index = CredentialIndex(presented)
        unbound: Optional[ActivationDenied] = None
        for rule in rules:
            try:
                found = match(rule, head, presented, context, index)
            except ActivationDenied as denial:
                unbound, found = denial, None
            if found is not None:
                return rule, found
            if attempts is not None:
                attempts.append(self._failed_attempt(
                    rule, explain(rule, head, presented, context)))
        if unbound is not None:
            raise unbound
        return None

    def _refused(self, kind: _Kind, failure: OasisError,
                 span: Optional[Span], principal: PrincipalId, subject: str,
                 rules: Sequence[Any],
                 attempts: Optional[List[RuleAttempt]],
                 detail: Tuple[Any, ...] = ()) -> None:
        """The one refusal path: ``failure`` is counted once, in
        ServiceStats, and errors the span.  A presented credential's
        refusal is already on record (validation-failed); any other writes
        the kind's denial record, the exception text its reason."""
        setattr(self.stats, kind.counter,
                getattr(self.stats, kind.counter) + 1)
        if span is not None:
            span.error(str(failure))
        if isinstance(failure, CredentialInvalid):
            return
        if attempts is not None and not rules:
            attempts.append(RuleAttempt(
                rule=f"(no {kind.rules} rule for {subject!r})",
                outcome="failed", failure_kind="no-rule"))
        self._audit(kind.denied, principal.value, subject, detail=detail,
                    reason=str(failure), attempts=attempts)

    def _grant(self, kind: _Kind, entries: Sequence[Tuple[Any, ...]],
               rule: Any = None, match: Optional[RuleMatch] = None,
               environment: Optional[Dict[str, Any]] = None,
               attempts: Optional[List[RuleAttempt]] = None,
               span: Optional[Span] = None) -> List[CredentialRecord]:
        """The one grant: every credential record this service issues,
        a batch at a time, is allocated, reserved, installed with its
        Fig. 5 edges, counted and audited here; the caller signs.  Each
        entry is ``(requester, holder, subject, detail, reason,
        membership_dependencies, session_id)``.  An activation or an
        appointment is a batch of one naming the ``rule`` that matched;
        an activation's ``match`` also arms its membership watch.
        """
        refs = self._refs.next_many(len(entries))
        # Record writes are write-behind, so a crash can lose recent
        # installs; the durably reserved watermark guarantees the resumed
        # allocator starts past every serial that may have escaped inside
        # a signed certificate.  One durable append covers
        # ``SERIAL_RESERVE`` allocations.  Storeless, nothing is reserved.
        top_serial = refs[-1].serial
        if self._persist is not None \
                and top_serial > self._serials_reserved:
            self._serials_reserved = top_serial + SERIAL_RESERVE
            self._state.reserve_serials(self._serials_reserved)
        now = self.clock()
        records = [CredentialRecord(
                       ref=ref, kind=kind.record, principal=holder,
                       issued_at=now, membership_dependencies=dependencies,
                       session_id=session_id)
                   for ref, (_requester, holder, _subject, _detail, _reason,
                             dependencies, session_id) in zip(refs, entries)]
        self._state.install(records)
        if match is not None:
            constraints = match.membership_constraints()
            if constraints:
                self._watches[refs[0].qualified] = _MembershipWatch(
                    ref=refs[0], constraints=constraints,
                    substitution=match.substitution,
                    environment=dict(environment or {}),
                    watched_tables=set().union(*(
                        condition.constraint.watched_tables()
                        for condition in constraints)))
        setattr(self.stats, kind.issued,
                getattr(self.stats, kind.issued) + len(records))
        for ref, (requester, _holder, subject, detail, reason, _dependencies,
                  _session_id) in zip(refs, entries):
            if attempts is not None:
                attempts.append(RuleAttempt(
                    rule=str(rule), outcome="matched",
                    detail=f"credential_ref={ref}"))
                span.set_attr("credential_ref", str(ref))
            self._audit(kind.granted, requester.value, subject,
                        detail=detail, reason=reason, attempts=attempts)
        return records

    # ------------------------------------------------------------------
    # Role activation (Fig. 2 paths 1-2)
    # ------------------------------------------------------------------
    def activate_role(self, principal: PrincipalId, role_name: str,
                      parameters: Optional[Sequence[Term]] = None,
                      credentials: Sequence[Presentation] = (),
                      environment: Optional[Dict[str, Any]] = None,
                      session_id: Optional[str] = None,
                      bound_key: Optional[str] = None,
                      ) -> RoleMembershipCertificate:
        """Attempt role activation; returns a signed RMC on success.

        Raises :class:`ActivationDenied` when no activation rule for the
        role is satisfied by the presented credentials, and the relevant
        :class:`CredentialInvalid` subclass when a presented certificate
        fails validation.
        """
        return self._activate_one(principal, role_name, parameters,
                                  credentials, environment, session_id,
                                  bound_key)

    def _activate_one(self, principal: PrincipalId, role_name: str,
                      parameters: Optional[Sequence[Term]],
                      credentials: Sequence[Presentation],
                      environment: Optional[Dict[str, Any]],
                      session_id: Optional[str],
                      bound_key: Optional[str],
                      ) -> RoleMembershipCertificate:
        """The one activation body behind :meth:`activate_role` and
        :meth:`activate_roles_bulk`.  With a pipeline installed it also
        emits a span and a latency sample, and its access record carries
        the rule attempts that explain the outcome."""
        span, attempts = self._open(_ACTIVATION, principal, role_name)
        if span is not None:
            wall_start = time.perf_counter()
        rules: Sequence[Any] = ()
        try:
            rules = self.policy.activation_rules_for(role_name)
            presented = self._validate_presentations(
                principal, credentials, role_name)
            found = self._search(
                rules, self._engine.match_activation,
                self._engine.explain_activation, parameters, presented,
                environment, attempts)
            if found is None:
                raise ActivationDenied(
                    f"{principal} cannot activate {self.id}:{role_name} "
                    f"with the presented credentials")
        except OasisError as failure:
            self._refused(_ACTIVATION, failure, span, principal,
                          role_name, rules, attempts)
            raise
        else:
            rule, (match, role) = found
            (record,) = self._grant(
                _ACTIVATION, ((principal, principal, str(role.role_name),
                               role.parameters, None,
                               match.membership_credential_refs(),
                               session_id),),
                rule, match, environment, attempts, span)
            return RoleMembershipCertificate.issue(
                self.secret, self.id, role, record.ref, principal,
                record.issued_at, bound_key)
        finally:
            if span is not None:
                span.finish(self.clock())
                self._obs_activation_latency.observe(
                    time.perf_counter() - wall_start)

    # ------------------------------------------------------------------
    # Bulk issuance and activation (scale-world construction)
    # ------------------------------------------------------------------
    def activate_roles_bulk(self, requests: Sequence["ActivationRequest"],
                            ) -> List[RoleMembershipCertificate]:
        """Activate a batch of roles; returns one RMC per request, in order.

        Identical to calling :meth:`activate_role` per request — the same
        body runs (same rule evaluation, records, audit entries, spans and
        failure behaviour: the first denial raises and earlier requests
        stay installed).
        """
        return [self._activate_one(
                    request.principal, request.role_name,
                    request.parameters, request.credentials,
                    request.environment, request.session_id,
                    request.bound_key)
                for request in requests]

    def issue_rmcs_bulk(self, entries: Sequence[Tuple[PrincipalId, Role,
                                                      Sequence[CredentialRef],
                                                      Optional[str]]],
                        ) -> List[RoleMembershipCertificate]:
        """Mint a batch of RMCs through the activation grant, bypassing
        rule evaluation: a *trusted* path for world construction and
        administrative re-seeding, whose caller asserts the activation
        conditions held.  Each entry is ``(principal, role,
        membership_dependencies, session_id)``, with the dependencies a
        rule match would have found.  A role whose activation rules carry
        a membership-flagged constraint raises :class:`PolicyError` before
        anything is issued: with no match, nothing could watch it.
        """
        if not entries:
            return []
        for name in {role.role_name.name for _p, role, _d, _s in entries}:
            if self.policy.defines_role(name) and any(
                    isinstance(condition, ConstraintCondition)
                    for rule in self.policy.activation_rules_for(name)
                    for condition in rule.membership_conditions):
                raise PolicyError(f"{self.id}:{name} has membership "
                                  f"constraints; only activation watches them")
        records = self._grant(_ACTIVATION, [
            (principal, principal, str(role.role_name), role.parameters,
             None, tuple(dependencies), session_id)
            for principal, role, dependencies, session_id in entries])
        return [RoleMembershipCertificate.issue(
                    self.secret, self.id, role, record.ref, principal,
                    record.issued_at)
                for record, (principal, role, _dependencies, _session_id)
                in zip(records, entries)]

    # ------------------------------------------------------------------
    # Service invocation (Fig. 2 paths 3-4)
    # ------------------------------------------------------------------
    def register_method(self, name: str, handler: Callable[..., Any]) -> None:
        """Expose an application method, to be guarded by authorization
        rules for ``name``."""
        if not name:
            raise ValueError("method name must be non-empty")
        if name in self._methods:
            raise ValueError(f"method {name!r} already registered")
        self._methods[name] = handler

    def invoke(self, principal: PrincipalId, method: str,
               arguments: Sequence[Term] = (),
               credentials: Sequence[Presentation] = (),
               environment: Optional[Dict[str, Any]] = None) -> Any:
        """Invoke ``method`` under OASIS access control.

        The invocation proceeds only if some authorization rule for the
        method is satisfied (closed world: a method with no satisfiable
        rule, or no rules at all, is denied).
        """
        span, attempts = self._open(_INVOCATION, principal, method)
        arguments = tuple(arguments)
        rules = self.policy.authorization_rules_for(method)
        try:
            if method not in self._methods:
                raise UnknownMethod(f"{self.id} has no method {method!r}")
            presented = self._validate_presentations(
                principal, credentials, method)
            # Only after validation: a dead or forged credential never
            # reaches the decision cache (see repro.core.decisions).
            key = decision_key(method, arguments, presented)
            hit = None if key is None \
                else self._decisions.lookup(key, rules)
            if hit is not None:
                self.stats.decision_cache_hits += 1
                _rules, granted, arguments = hit
            else:
                found = self._search(
                    rules, self._engine.match_authorization,
                    self._engine.explain_authorization, arguments,
                    presented, environment, attempts)
                if found is None:
                    raise InvocationDenied(
                        f"{principal} may not invoke "
                        f"{self.id}.{method}{arguments!r}")
                granted = found[0]
                if key is not None and all(rule.pure for rule in rules):
                    for ref_string, _signature in key[2]:
                        self._state.attend(ref_string)
                    self._decisions.store(key, rules, granted)
        except OasisError as failure:
            self._refused(_INVOCATION, failure, span, principal, method,
                          rules, attempts, arguments)
            raise
        else:
            self.stats.invocations += 1
            if attempts is not None:
                attempts.append(RuleAttempt(
                    rule=str(granted), outcome="matched",
                    detail=None if hit is None else "decision_cache=hit"))
            self._audit(AccessKind.INVOCATION, principal.value, method,
                        detail=arguments, attempts=attempts)
            return self._methods[method](*arguments)
        finally:
            if span is not None:
                span.finish(self.clock())

    # ------------------------------------------------------------------
    # Appointment (Sect. 2)
    # ------------------------------------------------------------------
    def issue_appointment(self, appointer: PrincipalId, name: str,
                          parameters: Sequence[Term],
                          credentials: Sequence[Presentation] = (),
                          holder: Optional[str] = None,
                          expires_at: Optional[float] = None,
                          environment: Optional[Dict[str, Any]] = None,
                          ) -> AppointmentCertificate:
        """Issue an appointment certificate if the appointer satisfies an
        appointment rule.

        ``holder`` binds the certificate (persistent principal id or
        ``"key:<fingerprint>"``); None issues an anonymous certificate.
        The certificate's lifetime is independent of the appointer's
        session: revoking the appointer's RMC does *not* cascade here.
        With a pipeline installed it also emits a span, and its access
        record carries the rule attempts that explain the outcome.
        """
        span, attempts = self._open(_APPOINTMENT, appointer, name)
        parameters = tuple(parameters)
        rules = self.policy.appointment_rules_for(name)
        try:
            if not rules:
                raise AppointmentDenied(
                    f"{self.id} defines no appointment {name!r}")
            presented = self._validate_presentations(
                appointer, credentials, name)
            found = self._search(
                rules, self._engine.match_appointment,
                self._engine.explain_appointment, parameters, presented,
                environment, attempts)
            if found is None:
                raise AppointmentDenied(
                    f"{appointer} may not issue appointment {name!r} at "
                    f"{self.id}")
        except OasisError as failure:
            self._refused(_APPOINTMENT, failure, span, appointer, name,
                          rules, attempts)
            raise
        else:
            rule, match = found
            ground = match.substitution.apply(parameters)
            (record,) = self._grant(
                _APPOINTMENT, ((appointer,
                                PrincipalId(holder) if holder else None,
                                name, tuple(ground), f"holder={holder!r}",
                                (), None),),
                rule, None, None, attempts, span)
            return AppointmentCertificate.issue(
                self.secret, self.id, name, ground, record.ref,
                record.issued_at, expires_at, holder)
        finally:
            if span is not None:
                span.finish(self.clock())

    def rotate_secret(self) -> None:
        """Rotate the service secret (Sect. 4.1).

        Certificates signed under the old secret stop verifying and must be
        re-issued via :meth:`reissue_appointment`.  A ``CREDENTIAL_REISSUED``
        event is published for every live credential, RMCs and
        appointments alike, so that holders of cached validations drop
        them immediately — without it, a cache would keep honouring
        old-secret certificates the issuer itself now refuses.  (The event
        deliberately differs from revocation: the credential *records*
        stay valid, so no dependency cascade fires.)
        """
        self.secret = self.secret.rotated()
        if self._persist is not None:
            self._state.save_secret(self.secret)
        self._sig_cache.clear()
        self.broker.publish_batch(
            Event.make(CREDENTIAL_REISSUED, timestamp=self.clock(),
                       credential_ref=str(record.ref),
                       reason="issuer secret rotation")
            for record in self._records.values() if record.active)

    def reissue_appointment(self, certificate: AppointmentCertificate
                            ) -> AppointmentCertificate:
        """Re-sign a (still active) appointment under the current secret."""
        record = self._records.get(certificate.ref)
        if record is None or record.kind != "appointment":
            raise CredentialInvalid(f"unknown appointment {certificate.ref}")
        if not record.active:
            raise CredentialRevoked(f"appointment {certificate.ref} revoked")
        return certificate.reissued(self.secret, self.clock())

    # ------------------------------------------------------------------
    # Revocation and the Fig. 5 cascade
    # ------------------------------------------------------------------
    def revoke(self, ref: CredentialRef, reason: str = "revoked") -> bool:
        """Revoke a credential issued here; triggers the dependency cascade.

        Returns False when the credential was already revoked or unknown.

        The whole *local* dependent subtree is collapsed in one
        reverse-index traversal and its revocation events are published as
        a coalesced batch (drained FIFO, so the global cascade stays
        breadth-first); other services pick the events up through their
        own service-level subscriptions — the cross-service hand-off of
        Fig. 5 is unchanged.
        """
        record = self._records.get(ref)
        if record is None or not record.revoke(reason, self.clock()):
            return False
        obs = self._obs
        if obs is not None:
            # The batch is published *inside* the root span: the broker
            # delivers synchronously, so every downstream handler runs
            # with this span on the tracer stack and stitches into the
            # same trace automatically.
            span = obs.tracer.start_span(
                "revoke", timestamp=self.clock(), service=str(self.id),
                credential_ref=str(ref), reason=reason)
        try:
            self.stats.revocations += 1
            events, flipped = self._collapse_subtree([record])
            self._publish_cascade(events, flipped)
            return True
        finally:
            if obs is not None:
                span.finish(self.clock())

    def _publish_cascade(self, events: List[Event],
                         records: Sequence[CredentialRecord] = ()) -> None:
        """Publish a cascade's revocation events, crash-consistently.

        With a store attached the events are journalled *before* anything
        else — the origin's commit is the point at which the revocation
        survives a crash — then the flipped ``records`` are mirrored to
        the store (write-behind on SQLite) and the events are published.
        The journal MUST come first: record mirroring can auto-flush a
        full write-behind buffer, and a REVOKED record that reaches disk
        before its journal entry would leave a crash with a
        partially-revoked durable subtree that :meth:`resume` cannot see
        (no ``cascade`` entry to replay) — dependents would stay active
        forever.

        The :class:`~repro.core.state.Drain` the broker is running decides
        the rest.  With none, this cascade is the *origin* of one: its
        entry is synced (the one fsync of an in-process revocation) and
        :meth:`_drain_cascade` publishes.  Inside a drain an origin of
        this process started, this is a *covered hop*: its entry is
        write-behind, riding its store's next commit.  Either way its
        ``cascade-done`` marker is held by the drain — never written
        before the events it closes are delivered, nor before every hop's
        entry is synced — so a crash at any point leaves a pending entry
        whose re-emission (:meth:`replay_pending`) re-drives whatever was
        lost.  Storeless, this is just the batch publish.
        """
        if not events:
            return
        if self._persist is None:
            self.broker.publish_batch(events)
            return
        state = self._state
        drain = self.broker.cascade_drain
        seq = state.log_cascade(events, drain)
        for record in records:
            state.mark_revoked(record)
        self._drain_cascade(seq, events, drain)

    def _drain_cascade(self, seq: Optional[int], events: List[Event],
                       drain: Optional[Drain]) -> None:
        """Publish the journalled cascade ``seq`` and hold its marker in
        ``drain``; with none, as the origin of a new drain.  Inside a
        drain started elsewhere (a remote batch) the events only queue:
        the new drain covers nothing and ends with that one."""
        broker = self.broker
        if drain is None:
            drain = Drain.start(broker, covering=not broker.draining)
            if drain.covering:
                drain.hold(self._state, seq)
                completed = False
                try:
                    broker.publish_batch(events)
                    completed = True
                finally:
                    drain.end(completed)
                return
            broker.after_drain(drain.end)
        broker.publish_batch(events)
        drain.hold(self._state, seq)

    def _collapse_subtree(self, revoked: List[CredentialRecord],
                          parent_ctx: Optional[SpanContext] = None,
                          ) -> Tuple[List[Event], List[CredentialRecord]]:
        """Collapse the local dependent subtree of already-revoked roots.

        Breadth-first over the reverse dependency index; every reached
        credential is marked revoked, audited, unlinked from the index,
        and contributes exactly one ``CREDENTIAL_REVOKED`` event (its
        channel closes here).  Cost is O(collapsed subtree), not O(live
        credentials).

        With a pipeline installed every collapsed credential also gets a
        ``cascade.revoke`` span parented on its revoker (the queue carries
        each record's parent context and depth), the span context rides
        out on the revocation event for cross-service stitching, and the
        traversal's width and depth feed the cascade histograms.

        Returns the events and the flipped records.  The traversal itself
        never touches the store — :meth:`_publish_cascade` mirrors the
        records only after the cascade journal entry is durably committed
        (see its docstring for why the order matters).
        """
        obs = self._obs
        if obs is not None:
            tracer = obs.tracer
            if parent_ctx is None:
                # Root-side collapse: hang cascade spans off whatever span
                # is active (the ``revoke`` root span, or a caller's span).
                parent_ctx = tracer.current_context()
        events: List[Event] = []
        flipped: List[CredentialRecord] = []
        # Storeless (the default) skips flip collection entirely.
        collect = flipped.append if self._persist is not None else None
        max_depth = 1
        queue: deque = deque()
        for record in revoked:
            queue.append((record, parent_ctx, 1))
        while queue:
            record, ctx, depth = queue.popleft()
            ref = record.ref
            reason = record.revoked_reason
            principal = record.principal.value if record.principal else "-"
            if collect is not None:
                collect(record)
            trace_id: Optional[str] = None
            if obs is not None:
                span = tracer.start_span(
                    "cascade.revoke", timestamp=self.clock(), parent=ctx,
                    activate=False, service=str(self.id),
                    credential_ref=str(ref), reason=reason)
                trace_id = span.trace_id
                ctx = span.context
                if depth > max_depth:
                    max_depth = depth
            self._audit(AccessKind.REVOCATION, principal, str(ref),
                        reason=reason, trace_id=trace_id)
            self._teardown_watch(ref)
            self._unlink_dependencies(record)
            event = self._revocation_event(ref, reason)
            if obs is not None:
                # Span context rides on the event so a service that picks
                # it up later (batched delivery) can parent its own
                # cascade spans under this one.
                event = event.with_attributes(trace_id=trace_id,
                                              span_id=span.span_id)
            events.append(event)
            for dependent in self._revoke_dependents(ref.qualified, reason):
                queue.append((dependent, ctx, depth + 1))
            if obs is not None:
                span.finish(self.clock())
        if obs is not None and events:
            self._obs_cascade_width.observe(len(events))
            self._obs_cascade_depth.observe(max_depth)
        return events, flipped

    def _revoke_dependents(self, key: str, reason: Optional[str]
                           ) -> List[CredentialRecord]:
        """Flip the live local dependents of the credential named ``key``
        (a CRR string, local or foreign) and return them: the one place a
        revocation crosses a Fig. 5 dependency edge."""
        bucket = self._dependents.get(key)
        if not bucket:
            return []
        reason = f"membership dependency {key} revoked ({reason})"
        flipped = [record for record in map(self._records.get, bucket)
                   if record is not None
                   and record.revoke(reason, self.clock())]
        self.stats.revocations += len(flipped)
        self.stats.cascade_revocations += len(flipped)
        return flipped

    def _revocation_event(self, ref: CredentialRef, reason: str) -> Event:
        """The CREDENTIAL_REVOKED event for ``ref``'s Fig. 5 channel.

        Channels are *virtual*: the channel identity is the CRR string
        carried on every event, so nothing per-credential needs to stay
        resident between publishes, on either side.  Exactly-once closing
        is guaranteed by the ``CredentialRecord.revoke`` state transition
        that gates every call site.
        """
        return Event.make(CREDENTIAL_REVOKED, timestamp=self.clock(),
                          credential_ref=ref.qualified, reason=reason)

    def deactivate_role(self, rmc: RoleMembershipCertificate,
                        reason: str = "deactivated by principal") -> bool:
        """Voluntary role deactivation (e.g. logout of an initial role)."""
        if rmc.issuer != self.id:
            raise CredentialInvalid(
                f"RMC {rmc.ref} was not issued by {self.id}")
        return self.revoke(rmc.ref, reason)

    def _on_credential_event(self, event: Event) -> None:
        """Every CREDENTIAL_REVOKED and CREDENTIAL_REISSUED event.

        Dict pops drop the credential's verified signatures, cached
        validation, heartbeat window and the authorization grants that
        named it.  A re-issue stops there (the record stays valid); a
        revocation then probes the reverse dependency index, costing more
        only when the credential has live local dependents, and then
        O(local subtree).
        """
        ref_string = event.get("credential_ref")
        if ref_string is None:
            return
        if self._sig_cache.pop(ref_string, None) is not None:
            self.stats.sig_cache_invalidations += 1
        stale = self._state.drop_validation(ref_string)
        if stale is not None:
            self.stats.cache_invalidations += len(stale)
            if self._heard is not None:
                self._heard.pop(ref_string, None)
        self.stats.decision_cache_invalidations += \
            self._decisions.evict(ref_string)
        if event.topic != CREDENTIAL_REVOKED:
            return
        seeds = self._revoke_dependents(ref_string, event.get("reason"))
        if not seeds:
            return
        parent_ctx: Optional[SpanContext] = None
        if self._obs is not None:
            trace_id = event.get("trace_id")
            span_id = event.get("span_id")
            if trace_id is not None and span_id is not None:
                # Stitch: the publishing service put its cascade span's
                # context on the event; our local subtree hangs off it.
                parent_ctx = SpanContext(trace_id, span_id)
        events, flipped = self._collapse_subtree(seeds, parent_ctx)
        self._publish_cascade(events, flipped)

    # ------------------------------------------------------------------
    # Membership constraint monitoring
    # ------------------------------------------------------------------
    def _teardown_watch(self, ref: CredentialRef) -> None:
        self._watches.pop(ref.qualified, None)

    def _recheck_watch(self, watch: _MembershipWatch) -> bool:
        """Re-evaluate one credential's membership constraints; revoke on
        violation.  Returns True when the credential survived."""
        self.stats.membership_rechecks += 1
        context = self.context.with_environment(**watch.environment)
        for condition in watch.constraints:
            if not condition.constraint.evaluate(watch.substitution, context):
                self.revoke(watch.ref,
                            f"membership condition became false: "
                            f"{condition.constraint!r}")
                return False
        return True

    def recheck_membership(self) -> int:
        """Sweep all membership watches (drives time-based conditions).

        Returns the number of credentials revoked by the sweep.  Intended to
        be scheduled periodically (:class:`repro.net.Scheduler`) — database
        -backed conditions do not need it, they are pushed via listeners.
        """
        revoked = 0
        for watch in list(self._watches.values()):
            if not self._recheck_watch(watch):
                revoked += 1
        return revoked

    def _on_database_change(self, db_name: str, table: str, op: str,
                            rows: List[Any]) -> None:
        # The fact is committed before any cascade it triggers is
        # journalled: fact durable -> cascade journalled -> published.  A
        # row the store refuses is still live in memory: re-check anyway.
        try:
            self._state.mirror_facts(
                db_name, self.context.databases[db_name].table(table), op,
                rows)
        finally:
            watched = (db_name, table)
            for watch in list(self._watches.values()):
                if watched in watch.watched_tables:
                    self._recheck_watch(watch)

    # ------------------------------------------------------------------
    # Credential validation (local + callback + cache/ECR)
    # ------------------------------------------------------------------
    def _validate_presentations(self, principal: PrincipalId,
                                presentations: Sequence[Presentation],
                                requested: str,
                                ) -> List[PresentedCredential]:
        """Validate every presented certificate in presentation order:
        the service's own here, foreign ones from the validation cache or
        by callback to their issuer (Sect. 4: 'validate a certificate
        presented as an argument via callback to the issuer').  Every
        foreign cache miss is resolved by ONE call after the loop, routed
        by ``certificate.issuer``: to the network when the service has one
        (one RPC per issuing peer over sockets), else to the registry.
        The first presentation that fails, in presentation order, is
        audited and raised; with a pipeline installed its record explains
        itself as a ``credential-invalid`` attempt naming the
        ``requested`` role, method or appointment."""
        presented: List[PresentedCredential] = []
        failed: Optional[Tuple[int, CredentialInvalid]] = None
        # Allocated only on a miss: warm requests (the common case) make
        # no garbage here beyond their result.
        misses: Optional[List[Tuple[Certificate, str, Optional[str]]]] = None
        positions: List[int]
        for presentation in presentations:
            certificate = presentation.certificate
            presented.append(PresentedCredential(certificate))
            try:
                # The effective requester: the invoking principal, or the
                # original requester a gateway attests under an SLA.  Both
                # the RMC principal binding and the appointment holder
                # binding are checked against it by the issuer.
                requester = presentation.on_behalf_of or principal.value
                holder = presentation.holder
                if certificate.issuer == self.id:
                    self.stats.validations_local += 1
                    self._check_certificate(certificate, requester, holder)
                    continue
                if self._cached_validation(certificate, requester, holder):
                    continue
                self.stats.callbacks_made += 1
                if misses is None:
                    misses, positions = [], []
                misses.append((certificate, requester, holder))
                positions.append(len(presented) - 1)
            except CredentialInvalid as failure:
                failed = (len(presented) - 1, failure)
                break
        if misses is not None:
            resolver = self.registry if self.network is None \
                else self.network
            verdicts = resolver.validate_many(self, misses)
            for index, (certificate, requester, holder), verdict \
                    in zip(positions, misses, verdicts):
                try:
                    self._accept_verdict(certificate, verdict)
                except CredentialInvalid as failure:
                    if failed is None or index < failed[0]:
                        failed = (index, failure)
                    continue
                self._cache_validation(certificate, requester, holder)
        if failed is not None:
            index, failure = failed
            explained = None if self._obs is None else (RuleAttempt(
                rule="(credential validation)", outcome="failed",
                failure_kind="credential-invalid",
                detail=f"requested {requested!r}: {failure}"),)
            self._audit(AccessKind.VALIDATION_FAILED, principal.value,
                        str(presentations[index].certificate.ref),
                        reason=str(failure), attempts=explained)
            raise failure
        return presented

    def _cached_validation(self, certificate: Certificate, requester: str,
                           holder: Optional[str]) -> bool:
        """True when a cached validation (the ECR) covers this exact
        certificate for this requester and holder claim.  The entry
        exists only until a revocation or re-issue event names the
        credential; expiry must still be checked locally against the
        clock."""
        if not self.cache_validations:
            return False
        key = certificate.ref.qualified
        entries = self._validation_cache.get(key)
        if entries is None:
            return False
        cache_key = (requester, holder)
        held = entries.get(cache_key)
        if held is not certificate:
            if held is None or not same_certificate(held, certificate):
                return False
            # An equal copy (a decoded one, say): the next presentation
            # of this object is an identity test.
            entries[cache_key] = certificate
        heard = self._heard
        if heard is not None:
            # Fig. 5's fail-safe: trusted only while its issuer's heartbeat
            # window is open.
            entry = heard.get(key)
            if entry is None \
                    or self.clock() - entry[1] > self._heartbeat_timeout:
                return False
        if isinstance(certificate, AppointmentCertificate) \
                and certificate.is_expired(self.clock()):
            raise CredentialExpired(f"appointment {certificate.ref} expired")
        self.stats.cache_hits += 1
        return True

    def _cache_validation(self, certificate: Certificate, requester: str,
                          holder: Optional[str]) -> None:
        """Remember a successful callback, bound to the certificate."""
        if not self.cache_validations:
            return
        ref = certificate.ref
        self._state.cache_validation(ref, (requester, holder), certificate)
        if self._heard is not None:
            # A successful callback is fresh evidence of issuer
            # liveness: (re)start the heartbeat window.
            self._heard[ref.qualified] = (ref, self.clock())

    @staticmethod
    def _accept_verdict(certificate: Certificate, verdict: Any) -> None:
        """Raise unless an issuer's callback verdict is the literal
        ``True``.  A transport failure fails closed: a credential that
        cannot be validated is invalid for this request (it may be
        retried once the issuer is reachable again)."""
        if isinstance(verdict, NetworkError):
            raise CredentialInvalid(
                f"cannot validate {certificate.ref}: issuer unreachable "
                f"({verdict})") from verdict
        if isinstance(verdict, BaseException):
            raise verdict  # the issuer's refusal, typed
        # An issuer that does not raise has still not validated the
        # credential unless it says so: only ``True`` passes.
        if verdict is not True:
            raise CredentialInvalid(
                f"issuer {certificate.issuer} did not validate "
                f"{certificate.ref}")

    def _on_heartbeat(self, event: Event) -> None:
        """Restart the window of a cached credential; one dict probe for
        the heartbeats of every credential this service does not cache."""
        key = event.get("credential_ref")
        entry = self._heard.get(key)
        if entry is not None:
            self._heard[key] = (entry[0], self.clock())

    def suspect_credentials(self) -> List[CredentialRef]:
        """Foreign credentials whose issuers' heartbeats have gone silent.

        Only meaningful when the service was built with a
        ``heartbeat_timeout``; cached validations for these are bypassed
        until a callback succeeds again.
        """
        if self._heard is None:
            return []
        now = self.clock()
        return sorted((ref for ref, seen in self._heard.values()
                       if now - seen > self._heartbeat_timeout),
                      key=str)

    def start_heartbeats(self, scheduler: Any,
                         interval: float) -> Callable[[], None]:
        """Issuer side of Fig. 5: periodically heartbeat every live CR.

        Returns a cancel function.  Revoked credentials stop beating
        because only active records beat (channel closure and record
        revocation are the same state transition).
        """

        def beat() -> None:
            now = self.clock()
            publish = self.broker.publish
            sent = 0
            for record in self._records.values():
                if record.active:
                    publish(Event.make(CREDENTIAL_HEARTBEAT, timestamp=now,
                                       credential_ref=record.ref.qualified))
                    sent += 1
            self.stats.heartbeats_sent += sent

        return scheduler.schedule_periodic(interval, beat)

    def _serve_validation(self, certificate: Certificate,
                          principal_value: str,
                          holder: Optional[str]) -> bool:
        """Issuer-side validation endpoint; raises on invalid."""
        self.stats.callbacks_served += 1
        self._check_certificate(certificate, principal_value, holder)
        return True

    def _check_certificate(self, certificate: Certificate,
                           principal_value: str,
                           holder: Optional[str]) -> None:
        if certificate.issuer != self.id:
            raise CredentialInvalid(
                f"certificate {certificate.ref} was not issued by {self.id}")
        record = self._records.get(certificate.ref)
        if record is None:
            raise CredentialInvalid(
                f"no credential record for {certificate.ref}")
        if not record.active:
            raise CredentialRevoked(
                f"credential {certificate.ref} revoked: "
                f"{record.revoked_reason}")
        if isinstance(certificate, RoleMembershipCertificate):
            self._verify_signature(certificate, principal_value, None)
        else:
            if certificate.is_expired(self.clock()):
                raise CredentialExpired(
                    f"appointment {certificate.ref} expired")
            bound = certificate.holder
            if bound is not None and not bound.startswith("key:") \
                    and principal_value != bound:
                # Persistent principal-id binding (Sect. 4.1): the
                # presenting principal must BE the holder; merely claiming
                # the holder's name is theft.  Key-bound certificates
                # ("key:<fp>") are instead checked by challenge-response,
                # which the presenting service attests via ``holder``.
                raise SignatureInvalid(
                    f"appointment {certificate.ref} is bound to "
                    f"{bound!r}, presented by {principal_value!r}")
            self._verify_signature(certificate, principal_value, holder)

    def _verify_signature(self, certificate: Certificate,
                          principal_value: str,
                          holder: Optional[str]) -> None:
        """MAC verification behind the verified-signature cache.

        Only *successful* verifications are cached, each holding the
        certificate that verified under the presented identities and the
        current secret generation: any change to certificate, presenter
        or secret re-verifies from scratch.
        """
        binding = (principal_value, holder, self.secret.generation)
        ref_key = certificate.ref.qualified
        cached = self._sig_cache.get(ref_key)
        if cached is not None:
            held = cached.get(binding)
            if held is certificate or held is not None \
                    and same_certificate(held, certificate):
                self.stats.sig_cache_hits += 1
                return
        self.stats.sig_verifications += 1
        if isinstance(certificate, RoleMembershipCertificate):
            certificate.verify(self.secret, PrincipalId(principal_value))
        else:
            certificate.verify(self.secret, holder)
        if cached is None:
            self._sig_cache[ref_key] = cached = {}
        cached[binding] = certificate

    # ------------------------------------------------------------------
    # Persistence and crash recovery
    # ------------------------------------------------------------------
    @classmethod
    def resume(cls, store: RecordStore, policy: ServicePolicy,
               broker: EventBroker, registry: ServiceRegistry,
               **kwargs: Any) -> "OasisService":
        """The constructor, with the store required.

        Building a service on a store *is* resuming it (see
        :meth:`_recover`); this spelling only refuses ``store=None``."""
        if store is None:
            raise ValueError("cannot resume without a record store")
        return cls(policy, broker, registry, store=store, **kwargs)

    def _recover(self) -> None:
        """Resume from the store (a no-op on an empty one): records, edges
        and journal tail via :meth:`ServiceState.load`.  The caches start
        empty: the first presentation of each foreign credential calls
        back, since events missed while down are not replayed.
        Cascades cut by a crash are re-audited and queued for
        :meth:`replay_pending`, which the caller runs once every service
        of the world exists."""
        recovered = self._state.load(self.clock())
        # Never re-issue a CRR: past both the highest stored serial and
        # the durable reservation watermark (which covers write-behind
        # installs lost with the process).
        self._refs.advance_past(recovered.max_serial)
        self._serials_reserved = recovered.max_serial
        # The interrupted cascades' audit entries died with the process
        # (the access log is in-memory); re-record them in log order so
        # the post-recovery REVOCATION sequence matches an uninterrupted
        # run's.
        for record, event in recovered.interrupted_revocations:
            principal = "-"
            if record is not None and record.principal is not None:
                principal = record.principal.value
            self._audit(AccessKind.REVOCATION, principal,
                        event.get("credential_ref") or "-",
                        reason=event.get("reason"))
            self.stats.revocations += 1
        self._pending_replay = recovered.pending_cascades

    def replay_pending(self) -> int:
        """Re-emit journalled cascades whose publish was cut mid-flight.

        Returns the number of events re-published.  Re-delivery is
        idempotent: ``CredentialRecord.revoke`` refuses an already-revoked
        record, so services that saw (part of) the original batch simply
        no-op.  Each cascade is the origin of a drain, its entry already
        on disk; the closing flush syncs the hops it re-drove and writes
        every held marker, after which the journal entries are prunable.
        """
        pending, self._pending_replay = self._pending_replay, []
        count = 0
        for seq, events in pending:
            self._drain_cascade(seq, events, self.broker.cascade_drain)
            count += len(events)
        if pending and self._persist is not None:
            self._persist.flush()
        return count

    def checkpoint(self) -> None:
        """Flush write-behind state to the store (durability point)."""
        if self._persist is not None:
            self._persist.flush()

    @property
    def store(self) -> Optional[RecordStore]:
        """The attached record store, or None (pure in-memory service)."""
        return self._persist

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def credential_record(self, ref: CredentialRef) -> Optional[CredentialRecord]:
        return self._records.get(ref)

    def is_active(self, ref: CredentialRef) -> bool:
        record = self._records.get(ref)
        return record is not None and record.active

    def active_credentials(self) -> List[CredentialRecord]:
        return [record for record in self._records.values() if record.active]

    @property
    def validation_cache_size(self) -> int:
        return sum(len(entries)
                   for entries in self._validation_cache.values())

    def dependent_count(self, ref: CredentialRef) -> int:
        """Live local credentials directly dependent on ``ref``."""
        return len(self._dependents.get(ref.qualified, ()))

    def live_sessions(self) -> Set[str]:
        """Session ids with at least one active credential (derived from
        the records, so it survives a resume for free)."""
        return self._state.live_sessions()

    def session_credentials(self, session_id: str) -> List[CredentialRecord]:
        """Active credential records issued within ``session_id``."""
        return self._state.session_credentials(session_id)
