"""Active event-based middleware substrate (paper reference [2]).

OASIS "depends on an active middleware platform to notify services of any
relevant changes in their environment" (Abstract).  This package is the
reproduction's substitute for the Cambridge Event Architecture: a topic
based publish/subscribe broker (:mod:`repro.events.broker`), immutable event
records (:mod:`repro.events.messages`) and an event log
(:mod:`repro.events.log`).

The per-credential channels of Fig. 5 are virtual: a channel is the CRR
string every revocation, re-issue and heartbeat event carries (the broker
indexes on it).  The issuer publishes on it; each holder service consumes
all of them through a fixed handful of service-level subscriptions
(``repro.core.service``), never one per credential.
"""

from .messages import (
    Event,
    CREDENTIAL_REVOKED,
    CREDENTIAL_REISSUED,
    CREDENTIAL_HEARTBEAT,
)
from .broker import EventBroker, Subscription
from .log import EventLog

__all__ = [
    "Event",
    "CREDENTIAL_REVOKED",
    "CREDENTIAL_REISSUED",
    "CREDENTIAL_HEARTBEAT",
    "EventBroker",
    "EventLog",
    "Subscription",
]
