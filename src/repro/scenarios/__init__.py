"""The paper's scenarios, as world factories.

Each factory takes a :class:`~repro.netd.worlds.NodeContext` and returns
a :class:`~repro.netd.worlds.World` subclass carrying the scenario's
steps, so it runs unchanged on a simulated
:class:`~repro.domains.Deployment`, a bare in-process context or a node
under ``repro serve --world repro.scenarios.<module>:<factory>``:

* :func:`build_hospital` / :func:`build_national_ehr` — the healthcare
  setting of Sect. 2/3 and Fig. 3;
* :func:`build_galleries` — reciprocal group membership (Sect. 5);
* :func:`build_clinic` — the anonymous genetic clinic (Sect. 5).

They compile the shipped ``.oasis`` files under
:data:`repro.netd.worlds.POLICY_DIR` (a gallery's text is generated), so
each rule set is declared once, as text that CI's ``lint`` and ``verify``
gates read.  Teaching examples that walk through a policy spell it out
on purpose.
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
