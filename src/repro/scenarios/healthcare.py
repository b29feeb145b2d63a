"""The paper's healthcare scenario, packaged as a reusable builder.

Builds, on a :class:`~repro.domains.Deployment`, the cast used throughout
the paper: a hospital domain (login, admin, records services with the
``treating_doctor(doc, pat)`` role) and optionally the national EHR domain
of Fig. 3 (registry + patient record management service).  The policies
are the shipped files the served EHR nodes compile
(:func:`repro.netd.worlds.shipped_policy`), except that this hospital's
records service has a database: it runs ``hospital/records.oasis``,
whose registration and exclusion lookups :data:`RECORDS_CONSTRAINTS`
binds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.credentials import AppointmentCertificate, RoleMembershipCertificate
from ..core.constraints import ConstraintRegistry, DatabaseLookupConstraint
from ..core.service import OasisService, Presentation
from ..core.session import Principal, Session
from ..db import Database
from ..domains.domain import Deployment, Domain
from ..netd.worlds import (HOSPITAL, NATIONAL, patient_records_for,
                           shipped_policy)

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


@dataclass
class HospitalScenario:
    """A hospital domain with login/admin/records services."""

    deployment: Deployment
    domain: Domain
    db: Database
    login: OasisService
    admin: OasisService
    records: OasisService
    ehr_store: Dict[str, List[str]] = field(default_factory=dict)

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


def build_hospital(deployment: Deployment,
                   domain_name: str = "hospital") -> HospitalScenario:
    """Assemble the hospital domain on ``deployment``."""
    domain = deployment.create_domain(domain_name)
    db = domain.create_database("main")
    db.create_table("registered", ["doctor", "patient"])
    db.create_table("excluded", ["patient", "doctor"])

    domains = {HOSPITAL: domain_name}
    login = domain.add_service(shipped_policy("ehr/login", domains=domains))
    admin = domain.add_service(shipped_policy("ehr/admin", domains=domains))
    records = domain.add_service(
        shipped_policy("hospital/records", RECORDS_CONSTRAINTS, domains),
        databases={"main": db})

    scenario = HospitalScenario(deployment=deployment, domain=domain,
                                db=db, login=login, admin=admin,
                                records=records)
    records.register_method(
        "read_record",
        lambda pat: list(scenario.ehr_store.get(pat, [])))
    return scenario


@dataclass
class NationalEhrScenario:
    """The national EHR domain of Fig. 3, linked to one or more hospitals."""

    deployment: Deployment
    domain: Domain
    registry: OasisService
    patient_records: OasisService
    ehr_store: Dict[str, List[str]]
    gateways: Dict[str, "GatewayHandle"] = field(default_factory=dict)

    def accredit(self, hospital: HospitalScenario,
                 hospital_id: Optional[str] = None) -> "GatewayHandle":
        """Accredit a hospital; returns its live gateway handle."""
        hospital_id = hospital_id or hospital.domain.name
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


def build_national_ehr(deployment: Deployment,
                       hospitals: List[HospitalScenario],
                       domain_name: str = "national-ehr",
                       ) -> NationalEhrScenario:
    """Assemble the national EHR domain and accredit ``hospitals``."""
    domain = deployment.create_domain(domain_name)

    registry = domain.add_service(shipped_policy(
        "ehr/registry", domains={NATIONAL: domain_name}))
    patient_records = domain.add_service(patient_records_for(
        [hospital.domain.name for hospital in hospitals], domain_name))

    ehr_store: Dict[str, List[str]] = {}
    patient_records.register_method(
        "request_EHR", lambda p: list(ehr_store.get(p, [])))
    patient_records.register_method(
        "append_to_EHR",
        lambda p, entry: ehr_store.setdefault(p, []).append(entry)
        or "done")

    scenario = NationalEhrScenario(
        deployment=deployment, domain=domain, registry=registry,
        patient_records=patient_records, ehr_store=ehr_store)
    for hospital in hospitals:
        scenario.accredit(hospital)
    return scenario
