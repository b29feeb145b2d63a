"""The service state core: issuer-side security state over a record store.

This module is the seam the multi-layer refactor carved out of
``OasisService``: the security state of a service — the credential
records of Fig. 4, the reverse-dependency index the Fig. 5 cascade
traverses, the cached foreign validations (ECR proxies), and the session
liveness derivable from records — lives in a :class:`ServiceState` and
mutates through it; what must survive a restart is mirrored as
operations against the keyed-record storage interface of
:mod:`repro.db.kv`.

Two buckets hold the credential state:

* ``records`` — ``CRR qualified string -> CredentialRecord`` (encoded via
  :class:`ServiceStateCodec` on serialising backends).  Revoked records
  are *kept*, so a restarted issuer answers callback validation for a dead
  credential with ``CredentialRevoked`` (reason preserved) rather than a
  generic "unknown credential".
* ``meta`` — the service secret (certificates must keep verifying across a
  restart) and small recovery bookkeeping.

Constraint facts (Sect. 2: "ascertained by database lookup") are state
too: each row of an attached :class:`~repro.db.Database` is a record of
bucket ``facts/<context db name>/<table>``, keyed by the JSON text of its
values, and META ``facts`` lists the buckets the store holds.  Every fact
mutation is committed before the service's listener returns; at a restart
a held table's stored rows replace the caller's seeds.

The caches (validation cache, signature-verification cache) and the
membership-constraint watches are **not** persisted.  A cached validation
is sound only while its holder hears the issuer's events, and a holder
that was down heard nothing: a restarted one calls back on the first
presentation of each foreign credential (Sect. 4's fail-closed rule).
The signature cache is a MAC check away from being rebuilt; the watches
are simply lost, so a credential resumed with a membership-watched
constraint is not revoked when that constraint later turns false (a
known limit, see docs/persistence.md).

Crash-consistency protocol (see docs/persistence.md): a revocation
cascade's events are journalled to the store's append log with one
committed ``{"op": "cascade", "events": [...]}`` entry *before* any
flipped record is mirrored to the store and before the broker publishes
anything (the mirror can auto-flush the write-behind buffer, so
journal-first is what keeps every durable REVOKED record covered by a
replayable log entry), and a ``{"op": "cascade-done"}`` marker follows
once the batch has drained.  A :class:`Drain` decides how each entry is
committed and when its marker is written.  The *origin* — the cascade
whose publish starts a broker drain — commits its entry durably (one
fsync); every *covered hop* journalled by another service while that
drain runs only appends its entry, which then rides its store's next
commit (write-behind: a process kill loses it exactly as a power cut
does).  Every marker of the drain is *held* until each store the drain
touched has synced after its entry, so the origin's synced entry stays
pending — re-emitted after a restart, re-driving every hop whose entry
was lost — until every hop it covers is as safe as it is.  An
in-process revocation therefore costs one commit and one fsync, and a
crash can still eat the marker of a cascade that had fully published.
:meth:`ServiceState.load` replays the log tail — applying every journalled
revocation to the rebuilt records — and surfaces cascades with no done
marker on disk so the service can re-emit them
(``OasisService.replay_pending``); re-emitting a finished cascade is the
same idempotent path as one cut mid-publish.  Credential-record writes
themselves are write-behind: an activation that never reached a flush is
lost on a crash, which is safe because certificate checking fails closed
(no record => invalid), and serial watermark reservation
(``serial-reserve`` log entries) guarantees the resumed allocator never
re-issues a lost CRR.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..crypto.hmac_sig import ServiceSecret
from ..db.kv import RecordStore, StoreCodec
from ..db.store import Database, Row, Table
from ..events import Event, Subscription
from ..events.broker import issuer_of
from .credentials import CredentialRecord, CredentialRef, CredentialStatus
from .rules import ConstraintCondition
from .terms import Substitution
from .types import PrincipalId, ServiceId

__all__ = [
    "RECORDS",
    "META",
    "ServiceStateCodec",
    "ServiceState",
    "RecoveredState",
    "Drain",
    "ref_payload",
    "ref_from_payload",
]

#: Bucket names of the keyed-record store.
RECORDS = "records"
META = "meta"
#: The META key listing the fact buckets the store holds.
FACTS = "facts"

#: Reverse-dependency buckets stay plain lists up to this many dependents,
#: then promote to an ordered dict (O(1) unlink for high-fanout parents).
EDGE_LIST_MAX = 8

#: CRR serials are reserved from the durable log in blocks of this size;
#: one durable append buys this many memory-speed allocations.
SERIAL_RESERVE = 1024


def fact_bucket(db_name: str, table: str) -> str:
    """The store bucket holding one attached table's rows."""
    return f"{FACTS}/{db_name}/{table}"


def _fact_items(table: Table, rows: Sequence[Row]
                ) -> List[Tuple[str, List[Any]]]:
    """``(key, values)`` store items for ``rows`` of ``table``.  Only JSON
    scalars round-trip unchanged: a tuple would come back as a list, and a
    ``not_exists`` lookup on that exclusion row would then grant."""
    items = []
    for row in rows:
        values = [row[column] for column in table.columns]
        for value in values:
            if value is not None and not isinstance(value, (str, int, float)):
                raise ValueError(
                    f"fact {dict(row)!r} of table {table.name!r} holds "
                    f"{type(value).__name__}; a stored fact must be "
                    f"str, int, float, bool or None")
        items.append((json.dumps(values), values))
    return items


def ref_payload(ref: CredentialRef) -> Dict[str, Any]:
    """A JSON-able encoding of a CRR (no string parsing on decode)."""
    return {"domain": ref.service.domain, "service": ref.service.name,
            "serial": ref.serial}


def ref_from_payload(payload: Dict[str, Any]) -> CredentialRef:
    return CredentialRef(
        ServiceId(payload["domain"], payload["service"]), payload["serial"])


class ServiceStateCodec(StoreCodec):
    """Encodes service-state bucket values for serialising backends.

    ``records`` hold rich objects; every other value passes through.
    """

    def encode(self, bucket: str, value: Any) -> Any:
        if bucket != RECORDS:
            return value
        record: CredentialRecord = value
        return {
            "ref": ref_payload(record.ref),
            "kind": record.kind,
            "principal": (record.principal.value
                          if record.principal is not None else None),
            "issued_at": record.issued_at,
            "status": record.status,
            "revoked_reason": record.revoked_reason,
            "revoked_at": record.revoked_at,
            "dependencies": [ref_payload(dep)
                             for dep in record.membership_dependencies],
            "session_id": record.session_id,
        }

    def decode(self, bucket: str, payload: Any) -> Any:
        if bucket != RECORDS:
            return payload
        principal = payload.get("principal")
        return CredentialRecord(
            ref=ref_from_payload(payload["ref"]),
            kind=payload["kind"],
            principal=PrincipalId(principal) if principal else None,
            issued_at=payload["issued_at"],
            status=payload.get("status", CredentialStatus.ACTIVE),
            revoked_reason=payload.get("revoked_reason"),
            revoked_at=payload.get("revoked_at"),
            membership_dependencies=tuple(
                ref_from_payload(dep)
                for dep in payload.get("dependencies", ())),
            session_id=payload.get("session_id"))


class Drain:
    """The cascades journalled while one broker drain runs.

    A drain started by a journalled cascade of this process is
    *covering*: that origin synced its entry, so every other cascade
    journalled before the drain ends — caused by the origin's events —
    only appends its entry (write-behind) and marks its store *touched*.
    A drain that started elsewhere (a remote batch, a bare publish)
    covers nothing: each of its cascades syncs its own entry, as no entry
    of this process re-drives the events that caused it.

    Either way the ``cascade-done`` markers of the drain are *held*: none
    is written before the drain has delivered every event, nor before
    each touched store has synced (committed) after its entry.  A drain
    still waiting when it ends is parked on every store it involves; the
    first flush of any of them syncs the touched stores and writes the
    markers, and a crash close of any of them drops the markers
    unwritten.
    """

    __slots__ = ("broker", "covering", "touched", "markers")

    def __init__(self, broker: Any, covering: bool) -> None:
        self.broker = broker
        self.covering = covering
        #: Touched store -> its sync generation before the entry.
        self.touched: Dict[RecordStore, int] = {}
        self.markers: List[Tuple["ServiceState", Optional[int]]] = []

    @classmethod
    def start(cls, broker: Any, covering: bool) -> "Drain":
        drain = broker.cascade_drain = cls(broker, covering)
        return drain

    def hold(self, state: "ServiceState", seq: Optional[int]) -> None:
        self.markers.append((state, seq))

    def end(self, completed: bool) -> None:
        """The drain stopped.  ``completed=False`` (a handler raised out
        of it) drops the markers: those cascades stay pending."""
        self.broker.cascade_drain = None
        if not completed:
            return
        if self._synced():
            self._write_markers()
        else:
            for store in self._stores():
                store.held[self] = None

    def release(self) -> None:
        """Sync each touched store not synced since its entry, then write
        the markers."""
        for store, generation in self.touched.items():
            if store.synced <= generation:
                store.sync()
        self.abandon()
        self._write_markers()

    def _synced(self) -> bool:
        return all(store.synced > generation
                   for store, generation in self.touched.items())

    def abandon(self) -> None:
        for store in self._stores():
            store.held.pop(self, None)

    def _stores(self) -> Set[RecordStore]:
        stores = set(self.touched)
        for state, _ in self.markers:
            if state.store is not None:
                stores.add(state.store)
        return stores

    def _write_markers(self) -> None:
        for state, seq in self.markers:
            state.log_cascade_done(seq)


@dataclass
class _MembershipWatch:
    """Per-credential record of membership constraints to re-check."""

    ref: CredentialRef
    constraints: Tuple[ConstraintCondition, ...]
    substitution: Substitution
    environment: Dict[str, Any]
    watched_tables: Set[Tuple[str, str]] = field(default_factory=set)


@dataclass
class RecoveredState:
    """What :meth:`ServiceState.load` rebuilt and found in the log tail."""

    #: Highest CRR serial that must never be re-allocated.
    max_serial: int
    #: Journalled revocations applied during replay, in log order — each
    #: is ``(record-or-None, event)`` for exactly the events of cascades
    #: that never reached their done marker (their in-memory audit entries
    #: died with the process; the service re-audits them).
    interrupted_revocations: List[Tuple[Optional[CredentialRecord], Event]]
    #: Cascades awaiting re-emission: ``(log seq, [Event, ...])``.
    pending_cascades: List[Tuple[int, List[Event]]]


class ServiceState:
    """Mutable security state of one service, mirrored to a record store.

    The dicts here are the service's *live* working set — the hot paths
    read them directly (the service aliases them at construction, so a
    storeless service is bit-identical to the pre-refactor layout).  All
    but ``records`` (own credentials, under the ``CredentialRef`` a
    certificate carries) are keyed by the CRR string.  Every
    *mutation* flows through a method below; those of records, facts,
    the secret and the journal keep the attached store in sync:
    reference-cheap ``put``s for the in-memory backend, write-behind
    buffering for SQLite.  The caches are volatile.  ``store=None`` (the
    default backend) short-circuits every mirror behind one ``is None``
    test.

    ``interest`` is the set of issuers whose credential events the
    service must hear: itself, and the issuer of every key of the
    reverse index and the validation cache (the service adds those of
    its decision cache).  :meth:`attend` widens it — and the scoped
    ``channels`` the service subscribed with it — *before* such a key is
    inserted, so no event the service would act on can pass it by.  It
    never narrows: hearing a stale issuer costs a handler call, missing
    a live one would fail open.
    """

    __slots__ = ("records", "dependents", "validation_cache", "sig_cache",
                 "watches", "store", "service_name", "interest", "channels")

    def __init__(self, service: ServiceId,
                 store: Optional[RecordStore] = None) -> None:
        self.service_name = str(service)
        self.store = store
        self.records: Dict[CredentialRef, CredentialRecord] = {}
        self.dependents: Dict[str, Union[List[CredentialRef],
                                         Dict[CredentialRef, None]]] = {}
        # The values of both caches are the certificate validated.
        self.validation_cache: Dict[
            str, Dict[Tuple[str, Optional[str]], Any]] = {}
        self.sig_cache: Dict[str, Dict[Tuple, Any]] = {}
        self.watches: Dict[str, _MembershipWatch] = {}
        self.interest: Set[str] = {self.service_name}
        self.channels: List[Subscription] = []

    def attend(self, key: str) -> None:
        """Hear the events of the issuer of the credential named ``key``
        (a CRR string) from now on."""
        issuer = issuer_of(key)
        if issuer not in self.interest:
            self.interest.add(issuer)
            for channel in self.channels:
                channel.attend(issuer)

    # ------------------------------------------------------------------
    # Credential records
    # ------------------------------------------------------------------
    def install(self, records: List[CredentialRecord]) -> None:
        """Install freshly-issued credential records, register their
        Fig. 5 reverse-dependency edges, and mirror them in one store
        round trip, fed lazily so a bulk batch is not held twice."""
        for record in records:
            ref = record.ref
            self.records[ref] = record
            for dependency in record.membership_dependencies:
                self.link_dependent(dependency.qualified, ref)
        store = self.store
        if store is not None:
            store.put_many(RECORDS, ((record.ref.qualified, record)
                                     for record in records))

    def mark_revoked(self, record: CredentialRecord) -> None:
        """Mirror an already-flipped record's terminal state."""
        store = self.store
        if store is not None:
            store.put(RECORDS, record.ref.qualified, record)

    # ------------------------------------------------------------------
    # Reverse-dependency index (Fig. 5 edges)
    # ------------------------------------------------------------------
    def link_dependent(self, key: str, ref: CredentialRef) -> None:
        """Add a reverse-index edge ``dependency key -> dependent ref``.

        Buckets are adaptive: a plain insertion-ordered list up to
        ``EDGE_LIST_MAX`` dependents, promoted to an ordered dict beyond
        that so high-fanout unlink stays O(1).  Both shapes iterate in
        insertion order, so cascade order is identical either way.
        """
        bucket = self.dependents.get(key)
        if bucket is None:
            self.attend(key)
            self.dependents[key] = [ref]
        elif type(bucket) is list:
            if len(bucket) < EDGE_LIST_MAX:
                bucket.append(ref)
            else:
                promoted = dict.fromkeys(bucket)
                promoted[ref] = None
                self.dependents[key] = promoted
        else:
            bucket[ref] = None

    def unlink_dependencies(self, record: CredentialRecord) -> None:
        """Remove ``record`` from the reverse-index buckets of all its
        membership dependencies (teardown is O(dependencies))."""
        ref = record.ref
        for dependency in record.membership_dependencies:
            key = dependency.qualified
            bucket = self.dependents.get(key)
            if bucket is None:
                continue
            if type(bucket) is list:
                try:
                    bucket.remove(ref)
                except ValueError:
                    pass
            else:
                bucket.pop(ref, None)
            if not bucket:
                del self.dependents[key]

    # ------------------------------------------------------------------
    # Validation cache (the ECRs)
    # ------------------------------------------------------------------
    def cache_validation(self, ref: CredentialRef,
                         cache_key: Tuple[str, Optional[str]],
                         certificate: Any) -> None:
        """Cache ``certificate``'s validation for ``cache_key``, attending
        its issuer first.  Volatile: the store never sees it."""
        key = ref.qualified
        entries = self.validation_cache.get(key)
        if entries is None:
            self.attend(key)
            entries = self.validation_cache[key] = {}
        entries[cache_key] = certificate

    def drop_validation(self, key: str
                        ) -> Optional[Dict[Tuple[str, Optional[str]], Any]]:
        return self.validation_cache.pop(key, None)

    # ------------------------------------------------------------------
    # Session liveness (derived from records — storage-backed for free)
    # ------------------------------------------------------------------
    def live_sessions(self) -> Set[str]:
        """Session ids with at least one active credential."""
        return {record.session_id for record in self.records.values()
                if record.session_id is not None and record.active}

    def session_credentials(self, session_id: str) -> List[CredentialRecord]:
        """Active credential records issued within ``session_id``."""
        return [record for record in self.records.values()
                if record.session_id == session_id and record.active]

    # ------------------------------------------------------------------
    # Crash-consistent cascade journal
    # ------------------------------------------------------------------
    def log_cascade(self, events: Sequence[Event],
                    drain: Optional[Drain] = None) -> Optional[int]:
        """Journal a cascade's events; returns the log seq.

        The entry is committed and synced, unless ``drain`` covers it: then
        it is only appended — it rides the store's next commit — and the
        store marked touched.
        MUST be called before the events are published AND before any of
        the flipped records is mirrored via :meth:`mark_revoked`: the
        commit is the point at which the revocation is guaranteed to
        survive a crash, and a record flip that reached disk (via an
        auto-flush) ahead of it would be durable yet unreplayable.  (A
        covered hop's entry is still ahead: every commit writes the
        buffered log entries before anything else.)
        """
        store = self.store
        if store is None:
            return None
        entry = {"op": "cascade", "service": self.service_name,
                 "events": [event.to_payload() for event in events]}
        if drain is None or not drain.covering:
            return store.log_append(entry, durable=True)
        drain.touched[store] = store.synced
        return store.log_append(entry)

    def log_cascade_done(self, seq: Optional[int]) -> None:
        """Mark a journalled cascade fully published (prunable).

        Not durable: the marker rides the next commit.  Losing it to a
        crash only means :meth:`load` surfaces a cascade that had fully
        published, and re-emitting that is idempotent.  Only a released
        :class:`Drain` calls this.
        """
        store = self.store
        if store is not None and seq is not None:
            store.log_append({"op": "cascade-done", "cascade_seq": seq})

    def reserve_serials(self, upto: int) -> None:
        """Durably reserve CRR serials up to ``upto`` (inclusive)."""
        store = self.store
        if store is not None:
            store.log_append({"op": "serial-reserve", "value": upto},
                             durable=True)

    # ------------------------------------------------------------------
    # Secret persistence
    # ------------------------------------------------------------------
    def save_secret(self, secret: ServiceSecret) -> None:
        store = self.store
        if store is not None:
            store.put(META, "secret", {"key_hex": secret.key.hex(),
                                       "generation": secret.generation})
            # The secret is foundational — without it no certificate
            # verifies after a restart — so it skips the write-behind
            # window and lands durably right away.
            store.flush()

    # ------------------------------------------------------------------
    # Constraint facts
    # ------------------------------------------------------------------
    def attach_facts(self, databases: Dict[str, Database]) -> None:
        """Bind the attached tables to their store buckets: a held table
        takes the stored rows (no listener sees it), any other one is
        mirrored as it stands and recorded as held."""
        store = self.store
        if store is None or not databases:
            return
        held = store.get(META, FACTS) or []
        added = []
        for db_name, database in databases.items():
            for table_name in database.table_names:
                table = database.table(table_name)
                bucket = fact_bucket(db_name, table_name)
                if bucket in held:
                    table.replace(dict(zip(table.columns, values))
                                  for _, values in store.scan(bucket))
                else:
                    store.put_many(bucket, _fact_items(table, list(table)))
                    added.append(bucket)
        if added:
            store.put(META, FACTS, sorted(held + added))
            store.flush()

    def mirror_facts(self, db_name: str, table: Table, op: str,
                     rows: Sequence[Row]) -> None:
        """Write one fact mutation through to the store and commit it."""
        store = self.store
        if store is None:
            return
        bucket = fact_bucket(db_name, table.name)
        items = _fact_items(table, rows)
        if op == "insert":
            store.put_many(bucket, items)
        else:
            store.delete_many(bucket, [key for key, _ in items])
        store.flush()

    def load_secret(self) -> Optional[ServiceSecret]:
        store = self.store
        if store is None:
            return None
        payload = store.get(META, "secret")
        if payload is None:
            return None
        return ServiceSecret(key=bytes.fromhex(payload["key_hex"]),
                             generation=payload["generation"])

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def load(self, clock_now: float) -> RecoveredState:
        """Rebuild live state from the store and replay the log tail.

        Called on an *empty* state by every ``OasisService`` built with a
        store: an empty store loads nothing, a used one everything.  After
        it returns: records (revoked ones included) and the reverse index
        are rebuilt, every journalled revocation has been applied, and the
        returned :class:`RecoveredState` lists what the service layer owes
        — audit entries for interrupted cascades and re-emission of
        unpublished events.  The validation cache starts empty.
        """
        store = self.store
        # The log tail first: only the records its cascades name need a
        # lookup by qualified string.
        cascades: List[Tuple[int, List[Event]]] = []
        done: Set[int] = set()
        max_serial = 0
        for seq, entry in store.log_entries():
            op = entry.get("op")
            if op == "cascade":
                cascades.append((seq, [Event.from_payload(payload)
                                       for payload in entry.get("events",
                                                                ())]))
            elif op == "cascade-done":
                done.add(entry["cascade_seq"])
            elif op == "serial-reserve":
                max_serial = max(max_serial, entry["value"])
        named = {event.get("credential_ref")
                 for _, events in cascades for event in events}
        records = self.records
        by_qualified: Dict[str, CredentialRecord] = {}
        for _, record in store.scan(RECORDS):
            records[record.ref] = record
            if record.ref.qualified in named:
                by_qualified[record.ref.qualified] = record
            if record.ref.serial > max_serial:
                max_serial = record.ref.serial
        # Edges exist only for live credentials (revocation unlinks).
        for record in records.values():
            if record.active:
                for dependency in record.membership_dependencies:
                    self.link_dependent(dependency.qualified, record.ref)
        # Log-tail replay, in append order.  Cascades with a done marker
        # were fully published before the crash: repair record state
        # silently.  Cascades without one are the interrupted tail: apply
        # AND surface for re-audit + re-emission.
        interrupted: List[Tuple[Optional[CredentialRecord], Event]] = []
        pending: List[Tuple[int, List[Event]]] = []
        for seq, events in cascades:
            is_pending = seq not in done
            for event in events:
                qualified = event.get("credential_ref")
                record = by_qualified.get(qualified)
                if record is not None and record.revoke(
                        event.get("reason", "revoked (replayed)"),
                        event.timestamp or clock_now):
                    self.unlink_dependencies(record)
                    self.mark_revoked(record)
                if is_pending:
                    interrupted.append((record, event))
            if is_pending:
                pending.append((seq, events))
        return RecoveredState(max_serial=max_serial,
                              interrupted_revocations=interrupted,
                              pending_cascades=pending)
