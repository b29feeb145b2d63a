"""The Fig. 3 scenario as three OS processes over real TCP sockets.

Run:  PYTHONPATH=src python examples/serve_ehr.py [--check]

The single-process ``healthcare_ehr.py`` walk-through split across a
served deployment (:mod:`repro.netd`):

* **front**    — hospital ``login`` + ``admin`` (issues the ``allocated``
  appointment, the root of the revocation cascade);
* **records**  — hospital ``records`` hosting ``treating_doctor``, which
  validates login RMCs and allocation appointments *by callback over
  TCP* to the front process and subscribes to its event stream;
* **national** — national-EHR ``registry`` + ``patient-records``, which
  validates treating RMCs by callback to the records process and caches
  them (the ECR); records' event stream reaches its service-level
  revocation handler, which drops the cached entry.

The driver below is a pure RPC client: it never touches a service
object.  It replays the paper's flow (registrar accredits the hospital
gateway, the admin allocates Dr Who to patient p1, Dr Who activates
``treating_doctor``, the gateway fetches the EHR), then revokes the
allocation at the *front* process and watches the Fig. 5 cascade cross
two process boundaries: the event channel carries the revocation to
records, the treating subtree collapses there, records' own cascade
events flow on to national, and the cached validation (ECR) is
invalidated — the next ``request_EHR`` is refused.

Because every process runs with node-prefixed span ids and revocation
events carry span context, the driver can pull ``spans`` from all three
processes, merge them with :meth:`repro.obs.tracing.Tracer.adopt`, and
print the cascade as ONE tree rooted at the front process's ``revoke``
span.  ``--check`` exits non-zero unless the cascade propagated,
national's ``audit`` row for the refusal carries its trace id and a
``credential-invalid`` attempt, and the stitched trace is a single tree
— CI runs exactly that.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.service import Presentation
from repro.netd.deploy import NodeSpec, Supervisor, free_port
from repro.obs.tracing import Tracer

WORLDS = "repro.netd.worlds"


def build_specs() -> list:
    front_port = free_port()
    records_port = free_port()
    national_port = free_port()
    front = NodeSpec(
        name="front", port=front_port,
        world=f"{WORLDS}:ehr_front", observed=True)
    records = NodeSpec(
        name="records", port=records_port,
        world=f"{WORLDS}:ehr_records",
        peers={"front": ("127.0.0.1", front_port)},
        subscribe=("front",), observed=True)
    national = NodeSpec(
        name="national", port=national_port,
        world=f"{WORLDS}:ehr_national",
        peers={"records": ("127.0.0.1", records_port)},
        subscribe=("records",), observed=True)
    return [front, records, national]


def await_true(probe, deadline: float, interval: float = 0.05) -> bool:
    while time.monotonic() < deadline:
        if probe():
            return True
        time.sleep(interval)
    return probe()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless the cross-process "
                             "cascade and trace stitching assertions hold")
    parser.add_argument("--timeout", type=float, default=15.0,
                        help="per-assertion wait budget (seconds)")
    args = parser.parse_args(argv)

    failures = []

    def check(label: str, ok: bool) -> bool:
        mark = "ok" if ok else "FAIL"
        print(f"  [{mark}] {label}")
        if not ok:
            failures.append(label)
        return ok

    with Supervisor(build_specs()) as fleet:
        front = fleet.client("front")
        records = fleet.client("records")
        national = fleet.client("national")
        print("three processes up:",
              ", ".join(f"{name}={fleet.specs[name].port}"
                        for name in ("front", "records", "national")))

        # -- the Fig. 3 flow, every hop a real RPC -------------------------
        registrar = national.activate("registry", "registrar", "registrar")
        accreditation = national.appoint(
            "registry", "registrar", "accredited_hospital",
            ["addenbrookes"], credentials=[registrar], holder="gateway")
        gateway = national.activate(
            "patient-records", "gateway", "hospital", ["addenbrookes"],
            credentials=[Presentation(accreditation, holder="gateway")])
        print(f"1. national accredited the hospital: {gateway.role}")

        admin_login = front.activate(
            "login", "admin", "logged_in_user", ["admin"])
        admin = front.activate(
            "admin", "admin", "administrator", ["admin"],
            credentials=[admin_login])
        allocation = front.appoint(
            "admin", "admin", "allocated", ["dr-who", "p1"],
            credentials=[admin], holder="dr-who")
        print(f"2. admin allocated dr-who to p1: {allocation.ref}")

        doctor_login = front.activate(
            "login", "dr-who", "logged_in_user", ["dr-who"])
        treating = records.activate(
            "records", "dr-who", "treating_doctor", ["dr-who", "p1"],
            credentials=[doctor_login,
                         Presentation(allocation, holder="dr-who")])
        print(f"3. dr-who activated {treating.role} "
              f"(credentials validated by callback to front)")

        ehr = national.invoke(
            "patient-records", "gateway", "request_EHR", ["p1"],
            credentials=[gateway,
                         Presentation(treating, on_behalf_of="dr-who")])
        print(f"4. gateway fetched the EHR via national: {ehr}")
        check("EHR fetched across processes", bool(ehr))

        # -- the Fig. 5 cascade, across two process boundaries -------------
        print(f"5. front revokes the allocation {allocation.ref} "
              f"(patient discharged)")
        front.revoke(allocation.ref, "patient discharged")

        deadline = time.monotonic() + args.timeout
        collapsed = await_true(
            lambda: not records.is_active(treating.ref), deadline)
        check("treating_doctor collapsed in the records process",
              collapsed)

        invalidated = await_true(
            lambda: national.stats()["services"]["patient-records"]
            ["cache_invalidations"] >= 1, deadline)
        check("national's cached validation (ECR) invalidated", invalidated)

        try:
            national.invoke(
                "patient-records", "gateway", "request_EHR", ["p1"],
                credentials=[gateway,
                             Presentation(treating, on_behalf_of="dr-who")])
            refused = False
        except Exception as error:  # noqa: BLE001 - remote denial classes vary
            refused = True
            print(f"6. second request_EHR refused: "
                  f"{type(error).__name__}: {error}")
        check("second request_EHR refused after the cascade", refused)
        # The operator's view of that refusal: national's audit row says
        # why, over the wire (timestamp, kind, principal, subject,
        # reason, trace id, rule attempts).
        rows = national.call("audit", service="patient-records",
                             kind="validation-failed")["records"]
        check("national's audit row explains the refusal",
              bool(rows) and rows[-1][5] is not None
              and any(attempt.get("failure_kind") == "credential-invalid"
                      for attempt in rows[-1][6]))

        # -- stitch the trace: one tree spanning three processes -----------
        tracer = Tracer(id_prefix="driver.")
        for client in (front, records, national):
            tracer.adopt(client.spans())
        revoke_spans = tracer.spans(name="revoke")
        check("exactly one revoke root span", len(revoke_spans) == 1)
        if revoke_spans:
            trace_id = revoke_spans[0].trace_id
            forest = tracer.tree(trace_id)
            check("stitched revocation trace is ONE tree",
                  len(forest) == 1)
            nodes = {span.span_id.split(".")[0]
                     for tree in forest for sub in [tree]
                     for span in [s.span for s in sub.walk()]}
            check("trace spans >= 2 processes", len(nodes) >= 2)
            print(f"\nstitched cascade trace {trace_id} "
                  f"({sum(t.span_count() for t in forest)} spans, "
                  f"processes: {', '.join(sorted(nodes))}):")
            for tree in forest:
                _print_tree(tree)

    if failures:
        print(f"\n{len(failures)} assertion(s) failed: {failures}")
        return 1
    print("\nall assertions passed"
          + (" (--check)" if args.check else ""))
    return 0


def _print_tree(tree, indent: int = 1) -> None:
    span = tree.span
    attrs = ""
    if "credential_ref" in span.attrs:
        attrs = f"  {span.attrs['credential_ref']}"
    print(f"{'  ' * indent}{span.span_id}  {span.name}{attrs}")
    for child in tree.children:
        _print_tree(child, indent + 1)


if __name__ == "__main__":
    sys.exit(main())
