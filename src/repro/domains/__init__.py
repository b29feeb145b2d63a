"""Domains, service-level agreements, CIV services and roaming (Sect. 3-6)."""

from .domain import Deployment
from .sla import ServiceLevelAgreement, SlaTerm
from .civ import CivNode, CivService, RogueCivService
from .roaming import EncounterResult, RovingEntity, negotiate_encounter
from .contracts import (
    ContractDraft,
    ContractError,
    OutcomeStatement,
    SignedContract,
    certify_outcome,
)

__all__ = [
    "ContractDraft",
    "ContractError",
    "OutcomeStatement",
    "SignedContract",
    "certify_outcome",
    "Deployment",
    "ServiceLevelAgreement",
    "SlaTerm",
    "CivNode",
    "CivService",
    "RogueCivService",
    "EncounterResult",
    "RovingEntity",
    "negotiate_encounter",
]
