"""A scenario world factory served unchanged: the Sect. 5 galleries
behind a real OS process and socket, driven through the card flow."""

import time

import pytest

from repro.core.exceptions import CredentialRevoked
from repro.core.service import Presentation
from repro.netd.deploy import NodeSpec, Supervisor, free_port


def test_galleries_served_unchanged():
    spec = NodeSpec(name="tate", port=free_port(),
                    world="repro.scenarios.membership:build_galleries")
    with Supervisor([spec]) as fleet:
        client = fleet.client("tate")
        desk = client.activate("membership", "membership-desk",
                               "membership_desk")
        card = client.appoint("membership", "membership-desk",
                              "friend_of_the_tate", [time.time() + 3600],
                              credentials=[desk])
        assert card.holder is None

        friend = client.activate("london", "anon", "friend",
                                 credentials=[Presentation(card)])
        assert client.invoke("london", "anon", "newsletter",
                             credentials=[friend]) == "london newsletter"

        assert client.revoke(card.ref, "membership cancelled")
        assert not client.is_active(friend.ref)
        with pytest.raises(CredentialRevoked):
            client.invoke("london", "anon", "newsletter",
                          credentials=[friend])
