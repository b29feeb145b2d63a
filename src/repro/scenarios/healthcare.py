"""The paper's healthcare scenario, as world factories.

:func:`build_hospital` builds a hospital domain (login, admin, records
services with the ``treating_doctor(doc, pat)`` role) and
:func:`build_national_ehr` the national EHR domain of Fig. 3 (registry +
patient record management service), each on any
:class:`~repro.netd.worlds.NodeContext`: a simulated
:class:`~repro.domains.Deployment`, a bare in-process context, or a node
under ``repro serve --world``.  The policies are the shipped files the
served EHR nodes compile (:func:`repro.netd.worlds.shipped_policy`),
except that this hospital's records service has a database: it runs
``hospital/records.oasis``, whose registration and exclusion lookups
:data:`RECORDS_CONSTRAINTS` binds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..core.credentials import AppointmentCertificate, RoleMembershipCertificate
from ..core.constraints import ConstraintRegistry, DatabaseLookupConstraint
from ..core.service import OasisService, Presentation
from ..core.session import Principal, Session
from ..db import Database
from ..netd.worlds import (HOSPITAL, NATIONAL, NodeContext, World,
                           patient_records_for, shipped_policy)

__all__ = ["HospitalScenario", "NationalEhrScenario", "RECORDS_CONSTRAINTS",
           "build_hospital", "build_national_ehr"]


#: Binds ``hospital/records.oasis``'s ``where`` atoms to the records
#: service's ``main`` database: ``treating_doctor`` holds while the pair
#: is ``registered``, and ``excluded`` doctors may not read.
RECORDS_CONSTRAINTS = ConstraintRegistry()
RECORDS_CONSTRAINTS.register(
    "registered", lambda d, p: DatabaseLookupConstraint.exists(
        "main", "registered", doctor=d, patient=p))
RECORDS_CONSTRAINTS.register(
    "not_excluded", lambda p, d: DatabaseLookupConstraint.not_exists(
        "main", "excluded", patient=p, doctor=d))


class HospitalScenario(World):
    """A hospital domain with login/admin/records services."""

    def __init__(self, ctx: NodeContext, domain_name: str = HOSPITAL, *,
                 cache_validations: bool = True) -> None:
        self.domain = domain_name
        self.db = Database(f"{domain_name}/main")
        self.db.create_table("registered", ["doctor", "patient"])
        self.db.create_table("excluded", ["patient", "doctor"])
        self.ehr_store: Dict[str, List[str]] = {}

        def service(name: str, registry: Optional[ConstraintRegistry] = None,
                    **kwargs: Any) -> OasisService:
            return ctx.service(
                shipped_policy(name, registry, {HOSPITAL: domain_name}),
                cache_validations=cache_validations, **kwargs)

        self.login = service("ehr/login")
        self.admin = service("ehr/admin")
        self.records = service("hospital/records", RECORDS_CONSTRAINTS,
                               databases={"main": self.db})
        self.records.register_method(
            "read_record", lambda pat: list(self.ehr_store.get(pat, [])))
        super().__init__({"login": self.login, "admin": self.admin,
                          "records": self.records})

    def register_patient(self, doctor_id: str, patient_id: str) -> None:
        self.db.insert("registered", doctor=doctor_id, patient=patient_id)

    def exclude_doctor(self, patient_id: str, doctor_id: str) -> None:
        """The Patients' Charter exception: an individual exclusion."""
        self.db.insert("excluded", patient=patient_id, doctor=doctor_id)

    def allocate(self, doctor_id: str, patient_id: str,
                 admin_id: str = "duty-admin",
                 expires_at: Optional[float] = None
                 ) -> AppointmentCertificate:
        """An administrator allocates a patient to a doctor (issues the
        ``allocated`` appointment certificate)."""
        administrator = Principal(admin_id)
        session = administrator.start_session(self.login, "logged_in_user",
                                              [admin_id])
        session.activate(self.admin, "administrator", [admin_id])
        return session.issue_appointment(
            self.admin, "allocated", [doctor_id, patient_id],
            holder=doctor_id, expires_at=expires_at)

    def admit_doctor(self, doctor_id: str, patient_id: str) -> Principal:
        """Register + allocate in one step; returns the doctor principal
        with the allocation certificate in its wallet."""
        self.register_patient(doctor_id, patient_id)
        doctor = Principal(doctor_id)
        doctor.store_appointment(self.allocate(doctor_id, patient_id))
        return doctor

    def treating_session(self, doctor: Principal) -> Session:
        """Log the doctor in and activate ``treating_doctor``."""
        session = doctor.start_session(self.login, "logged_in_user",
                                       [doctor.id.value])
        session.activate(self.records, "treating_doctor",
                         use_appointments=doctor.appointments("allocated"))
        return session


class NationalEhrScenario(World):
    """The national EHR domain of Fig. 3, accrediting one or more
    hospitals (domain names, as ``repro serve --world-arg`` passes them;
    none is ``hospital``)."""

    def __init__(self, ctx: NodeContext, *hospital_domains: str,
                 domain_name: str = NATIONAL) -> None:
        self.registry = ctx.service(shipped_policy(
            "ehr/registry", domains={NATIONAL: domain_name}))
        hospitals = hospital_domains or (HOSPITAL,)
        self.patient_records = ctx.service(
            patient_records_for(hospitals, domain_name))
        self.ehr_store: Dict[str, List[str]] = {}
        self.patient_records.register_method(
            "request_EHR", lambda p: list(self.ehr_store.get(p, [])))
        self.patient_records.register_method(
            "append_to_EHR",
            lambda p, entry: self.ehr_store.setdefault(p, []).append(entry)
            or "done")
        self.gateways: Dict[str, GatewayHandle] = {}
        super().__init__({"registry": self.registry,
                          "patient-records": self.patient_records})
        for hospital_id in hospitals:
            self.accredit(hospital_id)

    def accredit(self, hospital_id: str) -> "GatewayHandle":
        """Accredit a hospital; returns its live gateway handle."""
        registrar_session = Principal(f"registrar-{hospital_id}") \
            .start_session(self.registry, "registrar")
        accreditation = registrar_session.issue_appointment(
            self.registry, "accredited_hospital", [hospital_id],
            holder=f"gateway-{hospital_id}")
        gateway_principal = Principal(f"gateway-{hospital_id}")
        gateway_principal.store_appointment(accreditation)
        gateway_session = gateway_principal.start_session(
            self.patient_records, "hospital",
            use_appointments=[accreditation])
        handle = GatewayHandle(self, gateway_principal, gateway_session)
        self.gateways[hospital_id] = handle
        return handle


@dataclass
class GatewayHandle:
    """A hospital's EHR gateway: forwards doctors' requests nationally."""

    national: NationalEhrScenario
    principal: Principal
    session: Session

    def request_ehr(self, treating_rmc: RoleMembershipCertificate,
                    doctor_id: str, patient_id: str) -> List[str]:
        return self.national.patient_records.invoke(
            self.principal.id, "request_EHR", [patient_id],
            credentials=self._credentials(treating_rmc, doctor_id))

    def append_to_ehr(self, treating_rmc: RoleMembershipCertificate,
                      doctor_id: str, patient_id: str,
                      entry: str) -> str:
        return self.national.patient_records.invoke(
            self.principal.id, "append_to_EHR", [patient_id, entry],
            credentials=self._credentials(treating_rmc, doctor_id))

    def _credentials(self, treating_rmc: RoleMembershipCertificate,
                     doctor_id: str) -> List[Presentation]:
        return [Presentation(self.session.root_rmc),
                Presentation(treating_rmc, on_behalf_of=doctor_id)]


#: The world factories: ``build_hospital(ctx, domain_name="hospital", *,
#: cache_validations=True)`` and ``build_national_ehr(ctx,
#: *hospital_domains, domain_name="national-ehr")``.
build_hospital = HospitalScenario
build_national_ehr = NationalEhrScenario
