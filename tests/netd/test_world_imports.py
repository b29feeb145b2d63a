"""A served node compiles its policy files through ``repro.policy``: the
analysis tooling in ``repro.lang`` (passes, verifier, diagnostics, CLI)
is never on its boot path.  ``repro serve --help`` builds no world, so
this builds every shipped one, the scenario worlds included."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

BOOT = """
import sys
from repro.core.service import ServiceRegistry
from repro.events import EventBroker
from repro.netd.worlds import (NodeContext, ScaleWorld, bench_world,
                               ehr_front, ehr_national, ehr_records)
from repro.scenarios import (build_clinic, build_galleries, build_hospital,
                             build_national_ehr)

for factory in (ehr_front, ehr_records, ehr_national, bench_world,
                ScaleWorld, build_hospital, build_national_ehr,
                build_galleries, build_clinic):
    ctx = NodeContext(factory.__name__, EventBroker(), ServiceRegistry(),
                      network=None)
    assert factory(ctx).services, factory
print(sorted(name for name in sys.modules
             if name == "repro.lang" or name.startswith("repro.lang.")))
"""


def test_booting_every_shipped_world_imports_no_repro_lang():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    booted = subprocess.run([sys.executable, "-c", BOOT], env=env,
                            capture_output=True, text=True, check=True,
                            timeout=120)
    assert booted.stdout.strip() == "[]"
