#!/usr/bin/env python3
"""Self-test of the benchmark itself:

    python3 perfbench/selftest.py

Run from the repository root.  For every workload it checks
- determinism: two untraced runs with one seed give identical simulated
  figures (end-to-end and per-layer) and identical GC allocation counts,
  and a traced run simulates exactly what the untraced one did;
- a held-out seed passes every output check;
- layer coverage: each per-layer metric's layer is exercised heavily by
  the workload it is meant for and lightly by the contrasting one, so an
  edit that stops a workload exercising a layer fails here.
Exits 1 on any failure.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 1
HELD_OUT_SEED = 977
WORKLOADS = ["bulk_eth", "rpc_an1", "churn_eth", "paper_tables"]

# metric -> (volume metric, heavy workload, light workload or None).
# The volume is the amount of the layer's work the workload performs;
# heavy must exceed light COVERAGE_RATIO-fold, and the metric itself must
# be non-zero on the heavy workload.
COVERAGE_RATIO = 5
COVERAGE = {
    "cpu.busy_ms": ("cpu.busy_ms", "bulk_eth", "churn_eth"),
    "cpu.copy_checksum_ms": ("cpu.copy_checksum_ms", "bulk_eth", "churn_eth"),
    "cpu.checksum_ms": ("cpu.checksum_ms", "bulk_eth", "churn_eth"),
    "cpu.utilization_max": ("cpu.utilization_max", "rpc_an1", None),
    "link.frames": ("link.frames", "bulk_eth", "churn_eth"),
    "link.payload_mb": ("link.payload_mb", "bulk_eth", "churn_eth"),
    "napi.interrupts": ("napi.interrupts", "rpc_an1", "bulk_eth"),
    "napi.polls": ("napi.polls", "rpc_an1", "bulk_eth"),
    "netio.frames_per_wakeup": ("netio.frames_per_wakeup", "rpc_an1", None),
    "protolib.acks_elided": ("protolib.acks_elided", "rpc_an1", "bulk_eth"),
    "netio.sw_demuxed": ("netio.sw_demuxed", "bulk_eth", "rpc_an1"),
    "netio.hw_demuxed": ("netio.hw_demuxed", "rpc_an1", "bulk_eth"),
    "netio.demux_cycles_mean": ("netio.sw_demuxed", "bulk_eth", "rpc_an1"),
    "registry.leg_port_alloc_us": ("pktfilter.installs", "churn_eth", "bulk_eth"),
    "registry.leg_round_trip_us": ("pktfilter.installs", "churn_eth", "bulk_eth"),
    "registry.leg_finish_us": ("pktfilter.installs", "churn_eth", "bulk_eth"),
    "sem.contended": ("sem.contended", "churn_eth", None),
    "sem.wait_ms": ("sem.wait_ms", "rpc_an1", None),
    "engine.pheap_ns_per_op": ("engine.frames_per_host_s", "rpc_an1", "churn_eth"),
    "engine.queue_depth_p99": ("engine.queue_depth_p99", "rpc_an1", None),
    "engine.timer_ns_per_op": ("engine.frames_per_host_s", "rpc_an1", "churn_eth"),
    "engine.thread_switch_ns": ("engine.frames_per_host_s", "rpc_an1", "churn_eth"),
    "engine.frames_per_host_s": ("engine.frames_per_host_s", "bulk_eth", "churn_eth"),
    "buf.bytequeue_ns_per_kb": ("link.payload_mb", "bulk_eth", "rpc_an1"),
    "buf.flatten_ns_per_kb": ("link.payload_mb", "bulk_eth", "rpc_an1"),
    "proto.checksum_ns_per_kb": ("link.payload_mb", "bulk_eth", "churn_eth"),
    "proto.tcp_decode_ns_per_seg": ("link.frames", "rpc_an1", "churn_eth"),
    "proto.tcp_encode_ns_per_seg": ("link.frames", "bulk_eth", "churn_eth"),
    "netsim.to_wire_ns_per_frame": ("netio.sw_demuxed", "bulk_eth", "rpc_an1"),
    "pktfilter.dispatch_ns_per_frame": ("netio.sw_demuxed", "bulk_eth", "rpc_an1"),
    "pktfilter.admit_us_per_install": ("pktfilter.installs", "churn_eth", "bulk_eth"),
    "pktfilter.entries_max": ("pktfilter.entries_max", "churn_eth", "bulk_eth"),
    "core.connect_host_us_q1": ("pktfilter.installs", "churn_eth", "bulk_eth"),
    "core.connect_host_us_q4": ("pktfilter.installs", "churn_eth", "bulk_eth"),
    "gc.retained_kb_per_conn": ("gc.retained_kb_per_conn", "churn_eth", None),
    "gc.retained_mb_after_run": ("gc.retained_mb_after_run", "paper_tables", None),
}
GC_EVERYWHERE = ("gc.minor_mwords", "gc.promoted_mwords", "gc.major_collections")


def layers_of(r):
    out = dict(r["sim_layers"])
    out.update(r["wire_layers"])
    out.update(r["host_layers"])
    out.update(r["gc"])
    out["engine.frames_per_host_s"] = out["link.frames"] / r["measure_s"]
    return out


def main():
    run.check_checkout()
    run.build()
    errors = []
    traced = {}
    os.makedirs(run.OUT_DIR, exist_ok=True)
    trace_file = os.path.join(run.OUT_DIR, "selftest-trace.json")
    for wl in WORKLOADS:
        a = run.run_once(wl, SEED)
        b = run.run_once(wl, SEED)
        t = run.run_once(wl, SEED, trace_file)
        h = run.run_once(wl, HELD_OUT_SEED)
        traced[wl] = layers_of(t)
        for key in ("sim", "sim_layers"):
            for name in run.differing([a, b, t], key):
                errors.append("%s: %s %s not deterministic" % (wl, key, name))
        if run.PREFIX:
            for name in run.differing([a, b], "gc", run.EXACT_GC):
                errors.append("%s: %s not deterministic" % (wl, name))
        for r, seed in ((a, SEED), (h, HELD_OUT_SEED)):
            if r["failed"] or r["failures"]:
                errors.append("%s seed %d: %d failed %s" % (wl, seed, r["failed"], r["failures"]))
        print("%-13s deterministic over seed %d, held-out seed %d checked" % (wl, SEED, HELD_OUT_SEED))

    for name, (volume, heavy, light) in COVERAGE.items():
        v_heavy = traced[heavy][volume]
        v_light = traced[light][volume] if light else 0.0
        if not traced[heavy][name] > 0:
            errors.append("coverage: %s is 0 on %s" % (name, heavy))
        if not v_heavy > COVERAGE_RATIO * v_light:
            errors.append(
                "coverage: %s volume %s is %g on %s vs %g on %s" % (name, volume, v_heavy, heavy, v_light, light)
            )
        print("%-34s %-26s %-10s %12.4g  %-12s %12.4g" % (name, volume, heavy, v_heavy, light or "-", v_light))
    for wl in WORKLOADS:
        for name in GC_EVERYWHERE:
            if not traced[wl][name] > 0:
                errors.append("coverage: %s is 0 on %s" % (name, wl))

    for e in errors:
        print("FAIL " + e)
    print("selftest: %s" % ("FAILED" if errors else "ok"))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
