"""A served node re-emits its journalled cascades only once its whole
world is built.

``ehr_front`` hosts ``login`` and ``admin``, whose ``administrator`` role
is a membership dependant of ``login``'s session.  A crash that journals
a logout at ``login`` but dies before ``admin`` sees the event must
still end with ``administrator`` revoked after the restart — which needs
``admin`` to exist, subscribed, when ``login`` replays.
"""

import pytest

from repro.core import Presentation, PrincipalId
from repro.core.service import ServiceRegistry
from repro.events import EventBroker
from repro.netd.deploy import boot_world
from repro.netd.worlds import NodeContext


class SimulatedCrash(Exception):
    """Stands in for the process dying mid-publish."""


def boot_front(state_dir):
    ctx = NodeContext("front", EventBroker(), ServiceRegistry(), None,
                      state_dir=str(state_dir))
    world = boot_world(ctx, "repro.netd.worlds:ehr_front")
    return world.services["login"], world.services["admin"]


def test_cut_cascade_reaches_a_service_built_after_its_origin(tmp_path):
    login, admin = boot_front(tmp_path)
    user = PrincipalId("u1")
    session = login.activate_role(user, "logged_in_user", ["u1"], [])
    administrator = admin.activate_role(user, "administrator", None,
                                        [Presentation(session)])
    login.checkpoint()
    admin.checkpoint()

    def dying_publish(events):
        raise SimulatedCrash()

    # Journalled at login, never delivered to admin.
    login.broker.publish_batch = dying_publish
    with pytest.raises(SimulatedCrash):
        login.revoke(session.ref, "logout")
    login.store.close(flush=False)
    admin.store.close(flush=False)

    login, admin = boot_front(tmp_path)
    try:
        assert not login.is_active(session.ref)
        assert not admin.is_active(administrator.ref)
        assert login.replay_pending() == 0
    finally:
        login.store.close()
        admin.store.close()
