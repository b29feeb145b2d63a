"""The repo benchmark: four session-level workloads, end to end and by layer.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

is the contract ``BENCHMARK.json`` names: one workload per process (so
``peak_rss_mib`` is per workload), every metric printed by name with its
unit, the last line one JSON object.  ``--trace 0`` measures the
end-to-end metrics with no instrumentation; ``--trace 1`` measures half
the time untraced and half under the span shim (``shim.py``) and reports
the per-layer metrics.  Without ``--workload`` every workload runs in
turn and ``<out>/result.json`` collects them for ``compare.py``;
``--check`` is the determinism / hook smoke test.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: Everything the benchmark writes lives here, inside the checkout and
#: ignored by git: sqlite files, traces, collected results.
WORK = os.path.join(ROOT, ".bench_e2e")

#: A run is cut into this many timed blocks; the metrics come from the
#: fastest of them (see ``_timed_metrics``).
BLOCKS = 40
#: Samples a median rests on, and a p95 (ten samples beyond it).
P50_SAMPLES = 50
TAIL_SAMPLES = 200
#: The traced segment stops early once the generator holds this many
#: spans, so analysis stays within seconds.
SPAN_BUDGET = 300_000

_clock = time.perf_counter_ns


def _spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _percentile(ordered: List[int], share: float) -> float:
    """Linear interpolation between closest ranks of a sorted list."""
    at = (len(ordered) - 1) * share
    low = int(at)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (at - low)


def _child_pids() -> List[int]:
    """Live direct children of this process (the served nodes)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            found.append(int(entry))
    return found


def _nodes_hwm_mib() -> float:
    total = 0.0
    for pid in _child_pids():
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        except OSError:
            continue
    return total


# -- running ------------------------------------------------------------------

def _run_segment(workload: Any, seconds: float, cycles: Optional[int],
                 recorder: Any = None) -> Tuple[Any, float]:
    """Whole periods until ``seconds`` passed (or exactly ``cycles``, for
    the determinism check); returns the samples and the elapsed seconds."""
    from workloads import Samples
    samples = workload.samples = Samples()
    budget = int(seconds * 1e9)
    cycle_id = recorder.name_id("cycle") if recorder is not None else 0
    start = _clock()
    while True:
        for _ in range(workload.period):
            if recorder is None:
                workload.run_cycle()
            else:
                began = time.monotonic_ns()
                workload.run_cycle()
                recorder.spans.append(
                    (cycle_id, began, time.monotonic_ns(), None))
        if cycles is not None:
            if samples.cycles >= cycles:
                break
        elif _clock() - start >= budget:
            break
    return samples, (_clock() - start) / 1e9


Block = Tuple[Any, float]  # (Samples, elapsed seconds)


def _run_blocks(workload: Any, seconds: float, count: int,
                cycles: Optional[int] = None, recorder: Any = None
                ) -> List[Block]:
    """``seconds`` of sessions cut into ``count`` blocks (one block of
    exactly ``cycles`` for the determinism check).  Untraced blocks are
    each followed by the oracle's audit; a traced part is audited by its
    caller, after the layer counters are read."""
    if cycles is not None:
        return [_run_segment(workload, 0.0, cycles, recorder)]
    blocks: List[Block] = []
    spent = 0.0
    span_limit = len(recorder.spans) + SPAN_BUDGET \
        if recorder is not None else 0
    while spent < seconds:
        blocks.append(_run_segment(workload, seconds / count, None,
                                   recorder))
        spent += blocks[-1][1]
        if recorder is None:
            workload.audit()
        elif len(recorder.spans) > span_limit:
            break
    return blocks


def _warm_up(workload: Any) -> None:
    for _ in range(workload.warmup_cycles):
        workload.run_cycle()
    workload.audit()


_LATENCIES = (("activate", "activate"), ("invoke", "invoke"),
              ("revoke", "revoke"), ("settle", "revocation_settle"))


def _timed_metrics(blocks: List[Block], every_block: bool = False
                   ) -> Dict[str, float]:
    """The timed end-to-end metrics, each over the blocks that ran fastest.

    The host is shared: its speed moves by 20-30% in phases of seconds to
    minutes, which no run of this length averages out (one metric over all
    blocks of ten 20 s runs spread 11-15%, over the fastest tenth 2-5%).
    Slow phases only ever add time, so the blocks that ran fastest are the
    ones closest to the program's own cost.  A latency metric ranks the
    blocks by their median of that op kind (a block of
    ``durable_chain_revoke`` is fast or slow by its fsyncs, which says
    nothing about how its in-memory ops fared) and pools the samples of the
    fastest tenth, plus as many more blocks as it takes to hold
    ``P50_SAMPLES`` for a median or ``TAIL_SAMPLES`` for a tail (ten
    samples beyond the percentile).  ``ops_per_s`` is that of the tenth
    with the most cycles per second.

    What this cannot see: a stall rarer than once a block (a sqlite buffer
    flush, a full GC) lands in a block that is then not among the fastest.
    The same metrics over ``every_block`` are printed beside and kept in
    the result file."""
    tenth = len(blocks) if every_block else max(len(blocks) // 10, 1)

    def fastest(kind: str, need: int) -> List[int]:
        ranked = sorted(
            (samples.ns[kind] for samples, _ in blocks if samples.ns[kind]),
            key=statistics.median)
        pooled: List[int] = []
        for used, values in enumerate(ranked, 1):
            pooled.extend(values)
            if used >= tenth and len(pooled) >= need:
                break
        pooled.sort()
        return pooled

    share = sorted(blocks, key=lambda block: block[0].cycles / block[1],
                   reverse=True)[:tenth]
    found = {"ops_per_s": sum(samples.ops for samples, _ in share)
             / sum(elapsed for _, elapsed in share)}
    for kind, prefix in _LATENCIES:
        found[f"{prefix}_p50_us"] = \
            _percentile(fastest(kind, P50_SAMPLES), 0.50) / 1e3
        found[f"{prefix}_p95_us"] = \
            _percentile(fastest(kind, TAIL_SAMPLES), 0.95) / 1e3
    found["invoke_cold_p50_us"] = \
        _percentile(fastest("invoke_cold", P50_SAMPLES), 0.50) / 1e3
    return found


def _no_node_outlives(workload: Any) -> None:
    workload.teardown()
    deadline = time.monotonic() + 5.0
    while _child_pids() and time.monotonic() < deadline:
        time.sleep(0.05)
    left = _child_pids()
    if left:
        raise RuntimeError(f"node processes outlived the run: {left}")


def run_untraced(cls: Any, args: argparse.Namespace, scratch: str
                 ) -> Dict[str, Any]:
    workload = cls(args.seed, scratch)
    build_times: List[float] = []
    setup_times: List[float] = []
    try:
        for attempt in range(workload.setups):
            if attempt:
                workload.teardown()
            start = _clock()
            workload.start()
            build_times.append((_clock() - start) / 1e9)
            _warm_up(workload)
            setup_times.append((_clock() - start) / 1e9)
        # Memory at a fixed amount of work (the builds and their warm-up
        # sessions): issued credentials are kept for the life of a service,
        # so a high-water mark taken after the timed part would grow with
        # the number of sessions the run got through, i.e. with its speed.
        peak_rss_mib = _nodes_hwm_mib() + resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        blocks = _run_blocks(workload, args.seconds, BLOCKS)
        facts = workload.facts()
        workload.finish()
    finally:
        _no_node_outlives(workload)
    metrics = _timed_metrics(blocks)
    every_block = _timed_metrics(blocks, every_block=True)
    # Printed beside each value: the same metric over every block, or the
    # lowest and highest of the repeated set-ups.
    beside = {name: [every_block[name]] for name in metrics}
    metrics["setup_s"] = statistics.median(setup_times)
    beside["setup_s"] = [min(setup_times), max(setup_times)]
    metrics["peak_rss_mib"] = peak_rss_mib
    cycles = sum(samples.cycles for samples, _ in blocks)
    return {"metrics": metrics, "beside": beside, "facts": facts,
            "attempted": workload.attempted, "failed": workload.failed,
            "failures": workload.failures, "cycles": cycles,
            "blocks": len(blocks), "build_s": build_times,
            "settle_probes_per_revoke":
                sum(samples.probes for samples, _ in blocks) / cycles}


def _pull_spans(client: Any, offset: int) -> Tuple[List[str], List[Any]]:
    from traced_worlds import SPANS_HANDLER
    spans: List[Any] = []
    while True:
        page = client.handler(SPANS_HANDLER,
                              {"offset": offset + len(spans)})
        spans.extend(tuple(span) for span in page["spans"])
        if not page["spans"] or offset + len(spans) >= page["total"]:
            return page["names"], spans


def run_traced(cls: Any, args: argparse.Namespace, scratch: str
               ) -> Dict[str, Any]:
    import shim
    from traced_worlds import SPANS_HANDLER
    half = args.seconds / 2

    # Untraced reference first: same seed, same inputs, no shim loaded.
    workload = cls(args.seed, scratch)
    try:
        workload.start()
        _warm_up(workload)
        reference = _run_blocks(workload, half, BLOCKS // 2, args.cycles)
    finally:
        _no_node_outlives(workload)

    recorder = shim.install()
    workload = cls(args.seed, scratch, traced=True)
    trace = shim.Trace()
    try:
        workload.start()
        _warm_up(workload)
        nodes = workload.node_clients()
        offsets = {name: client.handler(SPANS_HANDLER, {"limit": 0})["total"]
                   for name, client in nodes.items()}
        mark = len(recorder.spans)
        before = workload.counters()
        traced = _run_blocks(workload, half, BLOCKS // 2, args.cycles,
                             recorder)
        after = workload.counters()
        workload.audit()
        trace.add("generator", recorder.names, recorder.spans[mark:])
        pulled = {name: _pull_spans(client, offsets[name])
                  for name, client in nodes.items()}
        resume = workload.finish(repeats=3)
    finally:
        _no_node_outlives(workload)
    # Which hooks fired at all: everything the generator process ran
    # (setup preloads in bulk, resume scans) plus the nodes' segment.
    hook_calls = Counter(recorder.names[span[0]] for span in recorder.spans)
    for name, (names, spans) in pulled.items():
        trace.add(name, names, spans)
        hook_calls.update(names[span[0]] for span in spans)
    shim.add_queue_waits(trace)
    charged = shim.attribute(trace)
    cycles = sum(samples.cycles for samples, _ in traced)
    delta = {key: after[key] - before.get(key, 0.0) for key in after}
    delta["requests"] = delta.get("requests", 0.0) - len(nodes)

    def us(*names: str) -> float:
        return sum(charged["self_ns"].get(name, 0)
                   for name in names) / cycles / 1e3

    def calls(*names: str) -> float:
        return sum(charged["calls"].get(name, 0) for name in names) / cycles

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    def d(key: str) -> float:
        return delta.get(key, 0.0)

    matches = ("core.engine.match_activation",
               "core.engine.match_authorization",
               "core.engine.match_appointment")
    encode_id = trace.name_id("netd.protocol.encode")
    frame_bytes = sum(tag for _p, name, _s, _e, tag in trace.spans
                      if name == encode_id and tag)
    hops = shim.event_hops(trace)
    ping = sorted(value for samples, _ in reference
                  for value in samples.ns["ping"])
    bulk = sorted(value for samples, _ in reference
                  for value in samples.ns["bulk"])
    settle = sorted(value for samples, _ in traced
                    for value in samples.ns["settle"])
    untraced = _timed_metrics(reference)
    rates = [untraced["ops_per_s"], _timed_metrics(traced)["ops_per_s"]]
    metrics = {
        "core.engine.match_us": us(*matches),
        "core.engine.match_calls": calls(*matches),
        "core.service.activate_self_us": us("core.service.activate_role"),
        "core.service.invoke_self_us": us("core.service.invoke"),
        "core.service.revoke_self_us": us("core.service.revoke"),
        "core.service.validation_cache_hit_ratio": ratio(
            d("cache_hits"), d("cache_hits") + d("callbacks_made")),
        "core.service.callbacks_per_cycle": d("callbacks_made") / cycles,
        "core.state.install_us": us("core.state.install"),
        "core.state.mark_revoked_us": us("core.state.mark_revoked"),
        "core.state.journal_us": us("core.state.log_cascade",
                                    "core.state.log_cascade_done"),
        "crypto.sign_us": us("crypto.sign"),
        "crypto.verify_us": us("crypto.verify"),
        "crypto.sign_calls": calls("crypto.sign"),
        "crypto.verify_calls": calls("crypto.verify"),
        "crypto.sig_cache_hit_ratio": ratio(
            d("sig_cache_hits"),
            d("sig_cache_hits") + d("sig_verifications")),
        "events.publish_us": us("events.publish", "events.publish_batch"),
        "events.events_per_revoke": d("published") / cycles,
        "events.deliveries_per_event": ratio(d("delivered"),
                                             d("published")),
        "db.put_us": us("db.put", "db.put_many"),
        "db.flush_us": us("db.flush"),
        "db.log_append_us": us("db.log_append"),
        "db.put_calls": d("puts") / cycles,
        "db.flush_calls": d("flushes") / cycles,
        "db.durable_commits_per_revoke": d("durable_commits") / cycles,
        "db.resume_s": resume.get("resume_s", 0.0),
        "db.resume_records_per_s": ratio(resume.get("records", 0.0),
                                         resume.get("resume_s", 0.0)),
        "db.bytes_per_record": ratio(resume.get("store_bytes", 0.0),
                                     resume.get("records", 0.0)),
        "core.wire.encode_us": us("core.wire.encode"),
        "core.wire.decode_us": us("core.wire.decode"),
        "netd.protocol.encode_us": us("netd.protocol.encode"),
        "netd.protocol.decode_us": us("netd.protocol.decode"),
        "netd.protocol.bytes_per_rpc": ratio(frame_bytes, d("requests")),
        "netd.client.ping_p50_us":
            _percentile(ping, 0.5) / 1e3 if ping else 0.0,
        "netd.client.call_self_us": us("netd.client.call"),
        "netd.client.bulk_creds_per_s":
            cls.BULK / (_percentile(bulk, 0.5) / 1e9) if bulk else 0.0,
        "netd.server.queue_wait_us": us(shim.QUEUE_WAIT),
        "netd.server.execute_us": us("netd.server.execute"),
        "netd.server.handle_self_us": us("netd.server.handle"),
        "netd.server.rpcs_per_cycle": d("requests") / cycles,
        "netd.events.hop_p50_us":
            statistics.median(hops) / 1e3 if hops else 0.0,
        "netd.events.pushes_per_revoke": d("pushed_events") / cycles,
        "netd.events.coalesce_ratio": ratio(d("pushed_events"),
                                            d("pushed_batches")),
        "obs.trace_overhead_pct": (rates[0] - rates[1]) / rates[0] * 100,
        "cycle.unattributed_share":
            charged["self_ns"]["cycle"] / charged["cycle_ns"],
    }
    # The tails are not gated (see README): from the untraced half.
    metrics.update((f"ungated.{name}", value)
                   for name, value in untraced.items()
                   if name.endswith("_p95_us"))
    if args.out:
        _write_trace(args.out, workload.name, trace, charged)
    return {"metrics": metrics, "hook_calls": hook_calls, "cycles": cycles,
            "settle_p50_us": _percentile(settle, 0.5) / 1e3,
            "attempted": workload.attempted, "failed": workload.failed,
            "failures": workload.failures}


def _write_trace(out: str, workload: str, trace: Any,
                 charged: Dict[str, Any]) -> None:
    """Spans as ``[process, name, start_ns, end_ns, parent, cycle]``
    sorted by start; ``parent`` indexes this list (-1: none), ``cycle``
    numbers the enclosing session (-1: outside any)."""
    order = sorted(range(len(trace.spans)),
                   key=lambda index: trace.spans[index][2])
    position = {index: at for at, index in enumerate(order)}
    rows = [[*trace.spans[index][:4],
             position.get(charged["parents"][index], -1),
             charged["cycles"][index]] for index in order]
    with open(os.path.join(out, f"{workload}.trace.json"), "w") as handle:
        json.dump({"processes": trace.processes, "names": trace.names,
                   "spans": rows}, handle)


# -- reporting ----------------------------------------------------------------

def _meta(args: argparse.Namespace) -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"commit": commit, "seed": args.seed, "seconds": args.seconds,
            "traced_cycles": args.cycles, "blocks": BLOCKS,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "load": "closed loop, one outstanding request, one generator "
                    "thread; GC enabled; generator and nodes pinned to one "
                    "CPU"}


def _report(name: str, section: List[Dict[str, str]],
            outcome: Dict[str, Any]) -> Dict[str, Any]:
    metrics = {}
    print(f"# {name}: {outcome['cycles']} cycles, "
          f"{outcome['attempted']} ops attempted, "
          f"{outcome['failed']} failed")
    for entry in section:
        value = outcome["metrics"][entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        beside = outcome.get("beside", {}).get(entry["name"])
        note = "   [" + " .. ".join(f"{x:.4g}" for x in beside) + "]" \
            if beside else ""
        print(f"{entry['name']:<44}{value:>14.4f} {entry['unit']}{note}")
    listed = {entry["name"] for entry in section}
    for extra, value in outcome["metrics"].items():
        if extra not in listed:
            print(f"{extra:<44}{value:>14.4f} us   (ungated)")
    for failure in outcome["failures"]:
        print(f"! {failure}")
    return {"correct": outcome["failed"] == 0,
            "attempted": outcome["attempted"], "failed": outcome["failed"],
            "metrics": metrics}


def _share_one_cpu() -> None:
    """Pin this process, and so every node it spawns, to one CPU.

    The load is a closed loop with one outstanding request, so at most one
    thread is runnable at a time anyway; left to the scheduler, the hops
    between generator, loop and worker threads sometimes cross CPUs, and on
    a virtualised host a cross-CPU wake-up costs about as much as the RPC
    (served latencies were bimodal, 0.5 ms vs 1.0 ms, by placement)."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_one(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS
    spec = _spec()
    _share_one_cpu()
    cls = WORKLOADS[args.workload]
    scratch = os.path.join(WORK, f"tmp-{os.getpid()}")
    os.makedirs(scratch)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    try:
        if args.trace:
            outcome = run_traced(cls, args, scratch)
            section = spec["per_layer"]
        else:
            outcome = run_untraced(cls, args, scratch)
            section = spec["end_to_end"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not os.listdir(WORK):
            os.rmdir(WORK)
    result = _report(args.workload, section, outcome)
    if args.out:
        kind = "layers" if args.trace else "e2e"
        with open(os.path.join(args.out, f"{args.workload}.{kind}.json"),
                  "w") as handle:
            json.dump({"meta": _meta(args), "result": result,
                       "detail": {key: value
                                  for key, value in outcome.items()
                                  if key != "metrics"}}, handle, indent=1)
    print(json.dumps(result))
    return 0


def _child(args: argparse.Namespace, workload: str, trace: int,
           out: str) -> Dict[str, Any]:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--out", out]
    if args.cycles is not None:
        command += ["--cycles", str(args.cycles)]
    done = subprocess.run(command, capture_output=True, text=True)
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} --trace {trace} exited "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; ``<out>/result.json``."""
    out = args.out or os.path.join(WORK, "out")
    os.makedirs(out, exist_ok=True)
    names = [entry["name"] for entry in _spec()["workloads"]]
    collected: Dict[str, Any] = {}
    for name in names:
        collected[name] = {"end_to_end": _child(args, name, 0, out)}
        if args.trace:
            collected[name]["per_layer"] = _child(args, name, 1, out)
    path = os.path.join(out, "result.json")
    with open(path, "w") as handle:
        json.dump({"meta": _meta(args), "workloads": collected}, handle,
                  indent=1)
    print(f"# wrote {path}")
    return 0


# -- determinism / hook check -------------------------------------------------

_COUNT_SUFFIXES = ("_calls", "_per_revoke", "_per_cycle",
                   "deliveries_per_event")
#: Counts the clock decides: the fleet's probes are sent back to back
#: until the revocation has crossed two processes, and each granted probe
#: is one more RPC and one more rule match.
_TIMING_DEPENDENT = {"fleet_ehr_sessions": (
    "core.engine.match_calls", "netd.server.rpcs_per_cycle")}


def run_check(args: argparse.Namespace) -> int:
    """Two short traced runs per workload at a fixed seed and cycle count:
    count-type per-layer metrics must agree exactly, and every hook must
    have fired on the workloads meant to exercise it and on no other."""
    import shim
    out = args.out or os.path.join(WORK, "check")
    names = [args.workload] if args.workload else \
        [entry["name"] for entry in _spec()["workloads"]]
    args.cycles = args.cycles or 100
    problems = []
    for name in names:
        runs = []
        for attempt in ("a", "b"):
            target = os.path.join(out, attempt)
            _child(args, name, 1, target)
            with open(os.path.join(target, f"{name}.layers.json")) as handle:
                runs.append(json.load(handle))
        first, second = (run["result"]["metrics"] for run in runs)
        for metric, entry in first.items():
            if metric.endswith(_COUNT_SUFFIXES) \
                    and metric not in _TIMING_DEPENDENT.get(name, ()) \
                    and entry["value"] != second[metric]["value"]:
                problems.append(f"{name}: {metric} differs between runs: "
                                f"{entry['value']} vs "
                                f"{second[metric]['value']}")
        fired = runs[0]["detail"]["hook_calls"]
        for *_target, span, _tag, exercised_by in shim.HOOKS:
            count = fired.get(span, 0)
            if name in exercised_by and not count:
                problems.append(f"{name}: hook {span} never fired")
            if name not in exercised_by and count:
                problems.append(f"{name}: hook {span} fired {count} times "
                                f"on a workload meant to bypass it")
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    if not problems:
        print(f"# check passed: {', '.join(names)}")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload, in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed seconds per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--cycles", type=int,
                        help="exactly this many cycles per segment, "
                             "instead of --seconds")
    parser.add_argument("--out", help="directory for result and trace "
                                      "files (default: none written)")
    parser.add_argument("--check", action="store_true",
                        help="determinism and hook smoke test")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # Served nodes import traced_worlds / shim from this directory.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        part for part in (HERE, os.environ.get("PYTHONPATH")) if part)
    # The workloads choose their stores themselves.
    os.environ.pop("OASIS_STORE_BACKEND", None)
    os.environ.pop("OASIS_STORE_PATH", None)
    import repro  # noqa: F401 - a checkout without src/ must fail here
    if args.check:
        return run_check(args)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
