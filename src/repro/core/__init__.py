"""The OASIS access control model and architecture — the paper's contribution.

Public API tour:

* identities and roles — :mod:`repro.core.types`;
* Horn-clause rules with membership flags — :mod:`repro.core.rules`;
* environmental constraints — :mod:`repro.core.constraints`;
* per-service policy — :mod:`repro.core.policy`;
* certificates (RMC / appointment) and credential records —
  :mod:`repro.core.credentials`;
* the secured service with callback validation, caching and the Fig. 5
  revocation cascade — :mod:`repro.core.service`;
* client-side sessions and principals — :mod:`repro.core.session`;
* audit certificates and the web of trust — :mod:`repro.core.audit`.
"""

from .terms import (
    EMPTY_SUBSTITUTION,
    Substitution,
    Term,
    Var,
    fresh_var,
    is_ground,
    unify,
    unify_sequences,
    variables_in,
)
from .types import (
    PrincipalId,
    Privilege,
    Role,
    RoleName,
    RoleTemplate,
    ServiceId,
)
from .exceptions import (
    ActivationDenied,
    AppointmentDenied,
    CredentialError,
    CredentialExpired,
    CredentialInvalid,
    CredentialRevoked,
    InvocationDenied,
    OasisError,
    PolicyError,
    SessionError,
    SignatureInvalid,
    UnknownMethod,
    UnknownRole,
)
from .constraints import (
    BeforeDeadlineConstraint,
    ComparisonConstraint,
    ConstraintRegistry,
    DatabaseLookupConstraint,
    EnvironmentEquals,
    EnvironmentalConstraint,
    EvaluationContext,
    NotBeforeConstraint,
    PredicateConstraint,
    TimeWindowConstraint,
)
from .rules import (
    ActivationRule,
    AppointmentCondition,
    AppointmentRule,
    AuthorizationRule,
    Condition,
    ConstraintCondition,
    PrerequisiteRole,
    SourceSpan,
)
from .policy import ServicePolicy
from .credentials import (
    AppointmentCertificate,
    CredentialRecord,
    CredentialRef,
    CredentialRefAllocator,
    CredentialStatus,
    RoleMembershipCertificate,
)
from .engine import (
    CredentialIndex,
    MatchedCondition,
    PresentedCredential,
    RuleEngine,
    RuleMatch,
)
from .service import (
    ActivationRequest,
    OasisService,
    Presentation,
    ServiceRegistry,
    ServiceStats,
)
from .state import (
    RecoveredState,
    ServiceState,
    ServiceStateCodec,
)
from .session import Principal, Session
from .access_log import AccessLog, AccessRecord
from .access_log import AccessKind
from .wire import (
    WireError,
    decode_certificate,
    decode_term,
    encode_certificate,
    encode_term,
)
from .audit import (
    AuditCertificate,
    InteractionHistory,
    Outcome,
    TrustDecision,
    TrustEvaluator,
    TrustPolicy,
)

__all__ = [
    # terms
    "EMPTY_SUBSTITUTION", "Substitution", "Term", "Var", "fresh_var",
    "is_ground", "unify", "unify_sequences", "variables_in",
    # types
    "PrincipalId", "Privilege", "Role", "RoleName", "RoleTemplate",
    "ServiceId",
    # exceptions
    "ActivationDenied", "AppointmentDenied", "CredentialError",
    "CredentialExpired", "CredentialInvalid", "CredentialRevoked",
    "InvocationDenied", "OasisError", "PolicyError", "SessionError",
    "SignatureInvalid", "UnknownMethod", "UnknownRole",
    # constraints
    "BeforeDeadlineConstraint", "ComparisonConstraint", "ConstraintRegistry",
    "DatabaseLookupConstraint", "EnvironmentEquals",
    "EnvironmentalConstraint", "EvaluationContext", "NotBeforeConstraint",
    "PredicateConstraint", "TimeWindowConstraint",
    # rules
    "ActivationRule", "AppointmentCondition", "AppointmentRule",
    "AuthorizationRule", "Condition", "ConstraintCondition",
    "PrerequisiteRole", "SourceSpan",
    # policy
    "ServicePolicy",
    # credentials
    "AppointmentCertificate", "CredentialRecord", "CredentialRef",
    "CredentialRefAllocator", "CredentialStatus",
    "RoleMembershipCertificate",
    # engine
    "CredentialIndex", "MatchedCondition", "PresentedCredential",
    "RuleEngine", "RuleMatch",
    # service
    "ActivationRequest", "OasisService", "Presentation",
    "ServiceRegistry", "ServiceStats",
    # state core
    "RecoveredState", "ServiceState", "ServiceStateCodec",
    # session
    "Principal", "Session",
    # access log
    "AccessKind", "AccessLog", "AccessRecord",
    # wire format
    "WireError", "decode_certificate", "decode_term",
    "encode_certificate", "encode_term",
    # audit
    "AuditCertificate", "InteractionHistory", "Outcome", "TrustDecision",
    "TrustEvaluator", "TrustPolicy",
]
