"""Multi-process integration: real OS processes, real sockets.

Three drills:

* cross-process revocation — the Fig. 5 cascade crossing a process
  boundary via the event channel;
* kill-and-resume — SIGKILL a served node with a state directory and
  check the restarted process still honours certificates issued by
  its previous incarnation (ROADMAP's crash-consistency story over the
  served transport), and no longer trusts a validation it cached before
  a revocation it missed while down;
* fact retraction — a care registration deleted on a served node stays
  deleted through a SIGKILL and restart.
"""

import os
import time

import pytest

from repro.core.exceptions import ActivationDenied, CredentialRevoked
from repro.core.service import Presentation
from repro.netd.deploy import NodeSpec, Supervisor, free_port

WORLDS = "repro.netd.worlds"


def wait_for(probe, timeout=15.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if probe():
            return True
        time.sleep(interval)
    return probe()


class TestCrossProcessRevocation:
    def test_cascade_crosses_process_boundary(self):
        front_port = free_port()
        specs = [
            NodeSpec(name="front", port=front_port,
                     world=f"{WORLDS}:ehr_front"),
            NodeSpec(name="records", port=free_port(),
                     world=f"{WORLDS}:ehr_records",
                     peers={"front": ("127.0.0.1", front_port)},
                     subscribe=("front",)),
        ]
        with Supervisor(specs) as fleet:
            front = fleet.client("front")
            records = fleet.client("records")

            admin_login = front.activate(
                "login", "admin", "logged_in_user", ["admin"])
            admin = front.activate(
                "admin", "admin", "administrator", ["admin"],
                credentials=[admin_login])
            allocation = front.appoint(
                "admin", "admin", "allocated", ["dr-who", "p1"],
                credentials=[admin], holder="dr-who")
            doctor_login = front.activate(
                "login", "dr-who", "logged_in_user", ["dr-who"])

            # Activation at records validates both credentials by
            # callback over TCP to the front process.
            treating = records.activate(
                "records", "dr-who", "treating_doctor",
                ["dr-who", "p1"],
                credentials=[doctor_login,
                             Presentation(allocation, holder="dr-who")])
            assert records.is_active(treating.ref)

            # The cascade root: revoke the allocation in the front
            # process; the records process must collapse the dependent
            # treating_doctor membership on its own.
            front.revoke(allocation.ref, "patient discharged")
            assert wait_for(
                lambda: not records.is_active(treating.ref)), \
                "revocation did not cross the process boundary"


class TestKillAndResume:
    def test_sigkill_then_restart_resumes_state(self, tmp_path):
        state_dir = str(tmp_path / "state")
        spec = NodeSpec(name="bench", port=free_port(),
                        world=f"{WORLDS}:bench_world",
                        state_dir=state_dir)
        with Supervisor([spec]) as fleet:
            client = fleet.client("bench")
            rmc = client.activate("svc", "alice", "user", ["alice"])
            keep = client.activate("svc", "bob", "user", ["bob"])
            assert client.invoke("svc", "alice", "echo", ["x"],
                                 credentials=[rmc]) == "x"

            # The state directory put the store on disk, not in
            # :memory:.
            sqlite_files = list((tmp_path / "state").glob("*.sqlite"))
            assert sqlite_files, "no on-disk store despite state_dir"

            # Stores are write-behind: durability points are checkpoints
            # and the (always-durable) cascade journal.  Checkpoint, then
            # SIGKILL — the classic crash drill.
            client.checkpoint()
            fleet.kill("bench")
            fleet.restart("bench")
            client = fleet.client("bench")

            # The restarted process resumed the store: records survive,
            # the signing secret matches, old certificates still work.
            assert client.is_active(rmc.ref)
            assert client.is_active(keep.ref)
            assert client.invoke("svc", "alice", "echo", ["y"],
                                 credentials=[rmc]) == "y"

            # And the resumed state is live, not a read-only ghost.
            client.revoke(rmc.ref, "done")
            assert not client.is_active(rmc.ref)
            assert client.is_active(keep.ref)

    def test_revocation_survives_crash_without_checkpoint(self, tmp_path):
        """Revocations are crash-consistent on their own: the cascade
        journal commits durably at revoke time, so even a SIGKILL right
        after the RPC returns must not resurrect the credential."""
        spec = NodeSpec(name="bench", port=free_port(),
                        world=f"{WORLDS}:bench_world",
                        state_dir=str(tmp_path / "state"))
        with Supervisor([spec]) as fleet:
            client = fleet.client("bench")
            rmc = client.activate("svc", "alice", "user", ["alice"])
            client.checkpoint()
            client.revoke(rmc.ref, "compromised")  # no checkpoint after
            fleet.kill("bench")
            fleet.restart("bench")
            client = fleet.client("bench")
            assert not client.is_active(rmc.ref), \
                "revocation lost across crash"

    def test_a_restarted_holder_refuses_a_revocation_it_missed(
            self, tmp_path):
        """Fig. 3 with national durable: national caches the treating
        RMC's validation and is killed; records revokes the RMC while no
        event can reach national; the restarted national calls back and
        refuses ``request_EHR``."""
        front_port, records_port = free_port(), free_port()
        specs = [
            NodeSpec(name="front", port=front_port,
                     world=f"{WORLDS}:ehr_front"),
            NodeSpec(name="records", port=records_port,
                     world=f"{WORLDS}:ehr_records",
                     peers={"front": ("127.0.0.1", front_port)},
                     subscribe=("front",)),
            NodeSpec(name="national", port=free_port(),
                     world=f"{WORLDS}:ehr_national",
                     peers={"records": ("127.0.0.1", records_port)},
                     subscribe=("records",),
                     state_dir=str(tmp_path / "state")),
        ]
        with Supervisor(specs) as fleet:
            front = fleet.client("front")
            records = fleet.client("records")
            national = fleet.client("national")
            registrar = national.activate("registry", "registrar",
                                          "registrar")
            accreditation = national.appoint(
                "registry", "registrar", "accredited_hospital",
                ["addenbrookes"], credentials=[registrar],
                holder="gateway")
            gateway = national.activate(
                "patient-records", "gateway", "hospital", ["addenbrookes"],
                credentials=[Presentation(accreditation, holder="gateway")])
            admin_login = front.activate("login", "admin",
                                         "logged_in_user", ["admin"])
            admin = front.activate("admin", "admin", "administrator",
                                   ["admin"], credentials=[admin_login])
            allocation = front.appoint(
                "admin", "admin", "allocated", ["dr", "p1"],
                credentials=[admin], holder="dr")
            doctor_login = front.activate("login", "dr", "logged_in_user",
                                          ["dr"])
            treating = records.activate(
                "records", "dr", "treating_doctor", ["dr", "p1"],
                credentials=[doctor_login,
                             Presentation(allocation, holder="dr")])

            def request_ehr():
                return fleet.client("national").invoke(
                    "patient-records", "gateway", "request_EHR", ["p1"],
                    credentials=[gateway,
                                 Presentation(treating, on_behalf_of="dr")])

            assert request_ehr()  # caches the treating RMC's validation
            national.checkpoint()
            fleet.kill("national")
            records.revoke(treating.ref, "patient discharged")
            fleet.restart("national")
            assert fleet.client("national").is_active(gateway.ref)
            with pytest.raises(CredentialRevoked):
                request_ehr()

    def test_fact_retraction_survives_sigkill(self, tmp_path, monkeypatch):
        """The retraction commits before the handler replies, so the
        restarted node's re-seeded table is replaced by the stored,
        emptied one and the activation stays refused."""
        here = os.path.dirname(os.path.abspath(__file__))
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
            part for part in (here, os.environ.get("PYTHONPATH")) if part))
        spec = NodeSpec(name="records", port=free_port(),
                        world="fact_worlds:registered_world",
                        state_dir=str(tmp_path / "state"))
        with Supervisor([spec]) as fleet:
            client = fleet.client("records")
            client.activate("records", "dan", "treating_doctor",
                            ["dan", "p1"])
            assert client.handler("retract", {"doctor": "dan"}) == 1
            fleet.kill("records")
            fleet.restart("records")
            client = fleet.client("records")
            with pytest.raises(ActivationDenied):
                client.activate("records", "dan", "treating_doctor",
                                ["dan", "p1"])

    def test_state_dir_alone_makes_a_node_durable(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.delenv("OASIS_STORE_BACKEND", raising=False)
        spec = NodeSpec(name="bench", port=free_port(),
                        world=f"{WORLDS}:bench_world",
                        state_dir=str(tmp_path / "state"))
        with Supervisor([spec]) as fleet:
            client = fleet.client("bench")
            rmc = client.activate("svc", "alice", "user", ["alice"])
            client.checkpoint()
            fleet.kill("bench")
            fleet.restart("bench")
            assert fleet.client("bench").is_active(rmc.ref)

    def test_memory_backend_loses_state_as_expected(self, monkeypatch):
        """Control: without a state directory the restarted process is
        blank — proving the resume test above demonstrates persistence
        rather than some cached client state."""
        monkeypatch.setenv("OASIS_STORE_BACKEND", "memory")
        spec = NodeSpec(name="bench", port=free_port(),
                        world=f"{WORLDS}:bench_world")
        with Supervisor([spec]) as fleet:
            client = fleet.client("bench")
            rmc = client.activate("svc", "alice", "user", ["alice"])
            fleet.kill("bench")
            fleet.restart("bench")
            client = fleet.client("bench")
            assert not client.is_active(rmc.ref)
