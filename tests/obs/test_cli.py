"""CLI integration: ``repro trace`` / ``repro metrics`` and the depth-16
golden trace snapshot (the Fig. 5 acceptance scenario)."""

import json
import os
import pathlib

import pytest

from repro.db import BACKEND_ENV
from repro.lang.cli import main
from repro.obs.cli import run_chain_cascade
from repro.obs.export import trace_to_dict

SNAPSHOT = pathlib.Path(__file__).parent / "snapshots" / "trace_depth16.json"


class TestDepth16Golden:
    def test_depth16_cascade_matches_golden_snapshot(self):
        """The acceptance scenario: a depth-16 revocation across 17
        chained services reconstructs as one causal trace tree, byte-for-
        byte reproducible (sim-clock timestamps, deterministic ids)."""
        obs, trace_id = run_chain_cascade(depth=16)
        rendered = json.loads(json.dumps(  # normalise tuples etc.
            trace_to_dict(obs.tracer, trace_id)))
        golden = json.loads(SNAPSHOT.read_text())
        assert rendered == golden

    def test_golden_snapshot_shape(self):
        golden = json.loads(SNAPSHOT.read_text())
        assert golden["schema"] == "oasis-trace/1"
        assert golden["trace_id"] == "t0001"
        # One root revoke span, 17 cascade.revoke hops (svc-0 .. svc-16).
        assert golden["span_count"] == 18
        assert len(golden["roots"]) == 1
        node, depth = golden["roots"][0], 0
        assert node["name"] == "revoke"
        while node["children"]:
            (node,) = node["children"]
            assert node["name"] == "cascade.revoke"
            assert node["attrs"]["service"] == f"dom/svc-{depth}"
            depth += 1
        assert depth == 17

    def test_per_hop_sim_clock_timings(self):
        """Each hop of the chain carries the sim-clock time it ran at;
        the build-up advanced the clock one tick per hop, so the cascade
        fires at the final time."""
        obs, trace_id = run_chain_cascade(depth=4)
        spans = obs.tracer.spans(trace_id, name="cascade.revoke")
        assert [span.start for span in spans] == [0.005] * 5
        assert all(span.end is not None for span in spans)

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            run_chain_cascade(depth=0)


class TestCliCommands:
    def _run(self, capsys, *argv):
        exit_code = main(list(argv))
        assert exit_code in (0, None)
        return capsys.readouterr().out

    def test_trace_json_matches_snapshot(self, capsys):
        out = self._run(capsys, "trace", "--depth", "16",
                        "--format", "json")
        assert json.loads(out) == json.loads(SNAPSHOT.read_text())

    def test_trace_text_renders_the_tree(self, capsys):
        out = self._run(capsys, "trace", "--depth", "3")
        assert "revoke" in out
        assert "cascade.revoke" in out
        assert "svc-3" in out

    def test_metrics_prometheus_output(self, capsys):
        out = self._run(capsys, "metrics", "--depth", "4")
        assert "# TYPE oasis_revocations_cascaded_total counter" in out \
            or "oasis_service_stats" in out
        assert "oasis_cascade_depth_bucket" in out
        assert "oasis_activations_total" in out

    def test_metrics_json_output(self, capsys):
        out = self._run(capsys, "metrics", "--depth", "4",
                        "--format", "json")
        data = json.loads(out)
        assert data["schema"] == "oasis-metrics/1"
        names = {family["name"] for family in data["families"]}
        assert "oasis_activations_total" in names
        assert "oasis_cascade_depth" in names

    def test_metrics_json_exports_exactly_the_catalogue(self, capsys):
        """The metric families ``python -m repro metrics --format json``
        exports, pinned: a family that appears or goes is a catalogue
        change (docs/observability.md) made on purpose."""
        out = self._run(capsys, "metrics", "--format", "json")
        names = sorted(family["name"]
                       for family in json.loads(out)["families"])
        expected = [
            "oasis_activation_latency_seconds",
            "oasis_activations_total",
            "oasis_broker_events_total",
            "oasis_broker_queue_depth",
            "oasis_broker_queue_depth_peak",
            "oasis_broker_subscriptions",
            "oasis_cascade_depth",
            "oasis_cascade_width",
            "oasis_decision_cache_entries",
            "oasis_invocations_total",
            "oasis_live_credentials",
            "oasis_memory_access_log",
            "oasis_memory_intern_pool_entries",
            "oasis_memory_intern_pool_requests",
            "oasis_memory_resident_objects",
            "oasis_service_stats",
            "oasis_validation_cache_entries",
        ]
        if os.environ.get(BACKEND_ENV) == "sqlite":
            # Every service mirrors into a record store, which exports too.
            expected += ["oasis_record_store_log_entries",
                         "oasis_record_store_ops",
                         "oasis_record_store_pending_writes"]
        assert names == sorted(expected)
