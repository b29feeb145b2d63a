"""Reusable builders for the paper's scenarios.

Each builder assembles a complete, ready-to-drive cast on a
:class:`~repro.domains.Deployment`:

* :func:`build_hospital` / :func:`build_national_ehr` — the healthcare
  setting of Sect. 2/3 and Fig. 3;
* :func:`build_galleries` — reciprocal group membership (Sect. 5);
* :func:`build_clinic` — the anonymous genetic clinic (Sect. 5).

The healthcare builders compile the shipped ``.oasis`` files the served
EHR nodes serve (:func:`repro.netd.worlds.shipped_policy`), as do the
test fixtures and the benchmarks: each Fig. 3 rule set is declared once,
as text that CI's ``lint`` and ``verify`` gates read.  Teaching examples
that walk through a policy spell it out on purpose.
"""

from .healthcare import (
    GatewayHandle,
    HospitalScenario,
    NationalEhrScenario,
    build_hospital,
    build_national_ehr,
)
from .membership import (
    ClinicScenario,
    GalleryScenario,
    build_clinic,
    build_galleries,
)

__all__ = [
    "GatewayHandle",
    "HospitalScenario",
    "NationalEhrScenario",
    "ClinicScenario",
    "GalleryScenario",
    "build_hospital",
    "build_national_ehr",
    "build_clinic",
    "build_galleries",
]
