"""The Sect. 5 membership scenarios, as world factories: reciprocal
galleries and the anonymous clinic.

The membership services and the clinic compile the shipped
``tate/membership``, ``clinic/insurer`` and ``clinic/genetics`` policies;
:func:`gallery_policy` generates each gallery's text, as
:func:`repro.netd.worlds.chain` does the Fig. 5 chain's.  ``where
before(e)`` is bound by :data:`DEADLINES`.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.constraints import BeforeDeadlineConstraint, ConstraintRegistry
from ..core.credentials import AppointmentCertificate
from ..core.policy import ServicePolicy
from ..core.service import OasisService
from ..core.session import Principal
from ..netd.worlds import NodeContext, World, shipped_policy
from ..policy import parse_policy

__all__ = ["GalleryScenario", "ClinicScenario", "DEADLINES",
           "build_galleries", "build_clinic", "gallery_policy"]

#: Binds ``where before(e)``: the clock is strictly before deadline ``e``.
DEADLINES = ConstraintRegistry()
DEADLINES.register("before", BeforeDeadlineConstraint)

GALLERIES = ("london", "st-ives", "liverpool")


def gallery_policy(domain: str, name: str) -> ServicePolicy:
    """``domain/name``: ``friend`` on an unexpired card from
    ``domain/membership``, guarding the ``newsletter``."""
    return parse_policy(
        f"service {domain}/{name}\n\nrole friend()\n\n"
        f"activate friend() <-\n"
        f"    appointment {domain}/membership:friend_of_the_tate(e)*,\n"
        f"    where before(e)\n\n"
        f"authorize newsletter() <-\n    friend()\n", DEADLINES)


class GalleryScenario(World):
    """The Tate galleries: one membership service, many galleries (by
    default London, St Ives and Liverpool)."""

    def __init__(self, ctx: NodeContext, *gallery_names: str,
                 domain_name: str = "tate") -> None:
        self.membership = ctx.service(shipped_policy(
            "tate/membership", domains={"tate": domain_name}))
        self.galleries: Dict[str, OasisService] = {}
        for name in gallery_names or GALLERIES:
            gallery = ctx.service(gallery_policy(domain_name, name))
            gallery.register_method("newsletter",
                                    lambda n=name: f"{n} newsletter")
            self.galleries[name] = gallery
        super().__init__({"membership": self.membership, **self.galleries})

    def issue_card(self, expiry: float) -> AppointmentCertificate:
        """An anonymous membership card: organisation + period, no
        identity ("the identity of the principal is not needed if proof of
        membership is securely provable")."""
        desk_session = Principal("membership-desk").start_session(
            self.membership, "membership_desk")
        return desk_session.issue_appointment(
            self.membership, "friend_of_the_tate", [expiry])

    def cancel_card(self, card: AppointmentCertificate) -> bool:
        return self.membership.revoke(card.ref, "membership cancelled")


class ClinicScenario(World):
    """The anonymous genetic clinic with its insurer (Sect. 5)."""

    def __init__(self, ctx: NodeContext, insurer_domain: str = "insurer",
                 clinic_domain: str = "clinic") -> None:
        domains = {"insurer": insurer_domain, "clinic": clinic_domain}
        self.insurer = ctx.service(shipped_policy("clinic/insurer",
                                                  domains=domains))
        self.clinic = ctx.service(shipped_policy("clinic/genetics",
                                                 DEADLINES, domains))
        self.tests_performed: List[str] = []
        self.clinic.register_method(
            "take_genetic_test",
            lambda: self.tests_performed.append("test")
            or "results sealed for patient")
        super().__init__({"membership": self.insurer,
                          "genetics": self.clinic})

    def enrol_member(self, expiry: float) -> AppointmentCertificate:
        """The insurer issues an anonymous membership card."""
        desk = Principal("enrolment-desk").start_session(self.insurer,
                                                         "enrolment_desk")
        return desk.issue_appointment(self.insurer, "insured", [expiry])


#: The world factories: ``build_galleries(ctx, *gallery_names,
#: domain_name="tate")`` and ``build_clinic(ctx, insurer_domain="insurer",
#: clinic_domain="clinic")``.
build_galleries = GalleryScenario
build_clinic = ClinicScenario
