"""Pure functions of the repository benchmark: percentiles, open-loop
latency accounting, metric assembly and the result schema.

run.py drives the programs; everything here is deterministic and is what
test_benchlib.py checks.
"""

import json
import statistics

# End-to-end metrics (untraced run) and per-layer metrics (traced run), by
# name -> unit. BENCHMARK.json lists the same names; test_benchlib.py checks
# that they agree.
END_TO_END = {
    "setup_s": "s",
    "state_mb": "MB",
}

# Peak memory, throughput and latencies: printed and kept in the report
# (tails with their percentile and sample count), but not bounded. The
# peak depends on how the engine's threads overlap their transient
# allocations and on which thread frees what, and moved by up to 0.18
# (quartile distance / median) on fleet. On a shared host
# the speed of a core drifts by 10-20% within minutes, so over five to ten
# seeds the spread (quartile distance / median) of every one of them, per
# CPU second as well as per wall second, reached 0.15-0.45 in some hours:
# wider than any bound the benchmark may set. README.md has the numbers.
REPORTED = {
    "peak_rss_mb": "MB",
    "records_per_user_cpu_s": "1/s",
    "blocks_per_s": "1/s",
    "records_per_s": "1/s",
    "response_p50_s": "s",
    "response_tail_s": "s",
    "ingest_p50_s": "s",
    "ingest_tail_s": "s",
}

PER_LAYER = {
    "core.add_block_s": "s",
    "core.quiesce_s": "s",
    "core.cpu_per_wall": "ratio",
    "core.gemm.begin_block_s": "s",
    "core.gemm.drain_offline_s": "s",
    "core.engine.self_s": "s",
    "core.unattributed_share": "ratio",
    "itemsets.borders.add_block_s": "s",
    "itemsets.borders.detect_s": "s",
    "itemsets.borders.update_s": "s",
    "itemsets.borders.new_candidates": "count",
    "itemsets.borders.update_iterations": "count",
    "itemsets.borders.candidate_yield": "ratio",
    "itemsets.apriori_s": "s",
    "itemsets.count.ptscan_s": "s",
    "itemsets.count.ecut_s": "s",
    "itemsets.count.ecutplus_s": "s",
    "itemsets.count.slots_fetched": "count",
    "itemsets.count.lists_opened": "count",
    "itemsets.count.transactions_scanned": "count",
    "tidlist.build_s": "s",
    "tidlist.payload_bytes": "bytes",
    "tidlist.lists_raw": "count",
    "tidlist.lists_delta": "count",
    "tidlist.lists_bitmap": "count",
    "tidlist.page_ins": "count",
    "tidlist.evictions": "count",
    "tidlist.peak_resident_bytes": "bytes",
    "patterns.add_block_s": "s",
    "patterns.sequences": "count",
    "persistence.wal_append_p50_s": "s",
    "persistence.wal_append_p99_s": "s",
    "persistence.checkpoint_p50_s": "s",
    "persistence.checkpoint_max_s": "s",
    "persistence.bytes_written": "bytes",
    "persistence.write_amplification": "ratio",
    "server.wire.encode_s": "s",
    "server.wire.decode_s": "s",
    "server.wire.frame_bytes": "bytes",
    "server.host.append_p50_s": "s",
    "server.host.append_p99_s": "s",
    "server.host.flush_s": "s",
    "server.call_p50_s": "s",
    "server.call_p99_s": "s",
    "server.transport_self_s": "s",
    "server.backlog_records_max": "count",
    "server.generator_lag_p99_s": "s",
    "trace.overhead_share": "ratio",
}

# Exact work counters of a traced serve run (bytes are a pure function of
# the record stream); fleet/shift report the replay's counting/tidlist
# counters.
SERVE_COUNTERS = ("server.wire.frame_bytes", "persistence.bytes_written")

# Tail percentiles tried from the highest down; a percentile qualifies
# when at least TAIL_MIN_BEYOND samples lie beyond it.
TAIL_LADDER = (99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10

# ROADMAP item 1: the share of engine time no layer accounts for.
UNATTRIBUTED_LIMIT = 0.10


def percentile(values, q):
    """Linear-interpolated q-th percentile (0..100) of a non-empty list."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_label(n):
    """Which tail n samples support: the highest ladder percentile with at
    least TAIL_MIN_BEYOND samples beyond it ("p99", ...), else "max"."""
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            return "p%g" % q
    return "max"


def tail(values):
    """The tail of `values` as (label, value); see tail_label."""
    label = tail_label(len(values))
    if label == "max":
        return label, max(values)
    return label, percentile(values, float(label[1:]))


def open_loop_latencies(due, sent, done):
    """Per-request latency from the due time and the generator lag.

    Latency runs from when a request was due, not from when it was sent,
    so a stall that delays later sends is charged to every request it
    delayed. Lag is how late the generator sent. A request with done < 0
    never completed and is returned as None.
    """
    latencies = [d - u if d >= 0 else None for u, d in zip(due, done)]
    lags = [s - u for u, s in zip(due, sent)]
    return latencies, lags


def engine_e2e(raw):
    """End-to-end metrics of a fleet/shift run from engine_bench's JSON."""
    ingest = [q + a for q, a in zip(raw["quiesce_s"], raw["add_block_s"])]
    wall = raw["wall_s"]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "records_per_user_cpu_s": raw["timed_records"] / raw["user_cpu_s"],
        "blocks_per_s": raw["timed_blocks"] / wall,
        "records_per_s": raw["timed_records"] / wall,
        "response_p50_s": statistics.median(raw["add_block_s"]),
        "response_tail_s": tail(raw["add_block_s"])[1],
        "ingest_p50_s": statistics.median(ingest),
        "ingest_tail_s": tail(ingest)[1],
        "peak_rss_mb": raw["peak_rss_mb"],
        # The smallest episode's: now and then an episode ends holding one
        # more buffer of tens of MB, depending on how its threads ran.
        "state_mb": min(raw["state_mb"]),
    }


def serve_e2e(raw):
    """End-to-end metrics of a serve run from serve_bench's JSON.

    Throughput per user CPU second is the median over the capacity rounds
    of the records a round sends ÷ the demon_serve user-mode CPU seconds
    from its first send through its FlushAll reply. The wall-time rate is
    the open loop's: records durably admitted ÷ wall time through the
    final flush, which the offered rate pins."""
    ingest, _ = open_loop_latencies(raw["due"], raw["sent"], raw["acked"])
    durable, _ = open_loop_latencies(raw["due"], raw["sent"], raw["durable"])
    if any(v is None for v in ingest + durable):
        raise ValueError("a batch was never acknowledged or never durable")
    wall = raw["wall_s"]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "records_per_user_cpu_s": statistics.median(
            raw["capacity_records"] / cpu
            for cpu in raw["capacity_server_user_cpu_s"]),
        "blocks_per_s": raw["blocks"] / wall,
        "records_per_s": raw["records"] / wall,
        "response_p50_s": statistics.median(durable),
        "response_tail_s": tail(durable)[1],
        "ingest_p50_s": statistics.median(ingest),
        "ingest_tail_s": tail(ingest)[1],
        "peak_rss_mb": raw["peak_rss_mb"],
        "state_mb": raw["state_mb"],
    }


def empty_layers():
    """Every per-layer metric at 0: layers a workload never calls."""
    return {name: 0.0 for name in PER_LAYER}


def engine_layers(raw):
    """Per-layer metrics of a traced fleet/shift run."""
    t = raw["trace"]
    lay = t["layers"]
    m = empty_layers()
    m["core.add_block_s"] = sum(raw["add_block_s"])
    m["core.quiesce_s"] = sum(raw["quiesce_s"]) + raw["final_quiesce_s"]
    m["core.cpu_per_wall"] = (
        (raw["user_cpu_s"] + raw["system_cpu_s"]) / raw["wall_s"])
    for name in ("core.gemm.begin_block_s", "core.gemm.drain_offline_s",
                 "itemsets.borders.add_block_s", "itemsets.borders.detect_s",
                 "itemsets.borders.update_s", "itemsets.borders.new_candidates",
                 "itemsets.borders.update_iterations", "itemsets.apriori_s",
                 "itemsets.count.ptscan_s", "itemsets.count.ecut_s",
                 "itemsets.count.ecutplus_s", "tidlist.build_s",
                 "tidlist.payload_bytes", "tidlist.lists_raw",
                 "tidlist.lists_delta", "tidlist.lists_bitmap",
                 "tidlist.page_ins", "tidlist.evictions",
                 "tidlist.peak_resident_bytes", "patterns.add_block_s",
                 "patterns.sequences"):
        m[name] = lay[name]
    seq_total = lay["core.engine.seq_total_s"]
    m["core.engine.self_s"] = seq_total - lay["core.engine.replayed_calls_s"]
    m["core.unattributed_share"] = m["core.engine.self_s"] / seq_total
    counted = lay["itemsets.borders.new_candidates"]
    m["itemsets.borders.candidate_yield"] = (
        lay["itemsets.borders.newly_frequent"] / counted if counted else 0.0)
    counters = lay["counters"]
    m["itemsets.count.slots_fetched"] = counters["counting/slots_fetched"]
    m["itemsets.count.lists_opened"] = counters["counting/lists_opened"]
    m["itemsets.count.transactions_scanned"] = (
        counters["counting/transactions_scanned"])
    m["trace.overhead_share"] = t["spans"] * t["span_cost_s"] / raw["wall_s"]
    return m


def serve_layers(raw):
    """Per-layer metrics of a traced serve run."""
    t = raw["trace"]
    m = empty_layers()
    _, lags = open_loop_latencies(raw["due"], raw["sent"], raw["acked"])
    m["core.add_block_s"] = t["core.add_block_s"]
    m["persistence.wal_append_p50_s"] = statistics.median(t["wal_append_s"])
    m["persistence.wal_append_p99_s"] = percentile(t["wal_append_s"], 99)
    m["persistence.checkpoint_p50_s"] = statistics.median(t["checkpoint_s"])
    m["persistence.checkpoint_max_s"] = max(t["checkpoint_s"])
    m["persistence.bytes_written"] = t["persistence.bytes_written"]
    m["persistence.write_amplification"] = (
        t["persistence.bytes_written"] / t["server.wire.frame_bytes"])
    m["server.wire.encode_s"] = statistics.median(t["wire_encode_s"])
    m["server.wire.decode_s"] = statistics.median(t["wire_decode_s"])
    m["server.wire.frame_bytes"] = t["server.wire.frame_bytes"]
    m["server.host.append_p50_s"] = statistics.median(t["host_append_s"])
    m["server.host.append_p99_s"] = percentile(t["host_append_s"], 99)
    m["server.host.flush_s"] = t["server.host.flush_s"]
    m["server.call_p50_s"] = statistics.median(t["call_s"])
    m["server.call_p99_s"] = percentile(t["call_s"], 99)
    m["server.transport_self_s"] = (
        m["server.call_p50_s"] - m["server.wire.encode_s"] -
        m["server.wire.decode_s"] - m["server.host.append_p50_s"])
    m["server.backlog_records_max"] = raw["backlog_records_max"]
    m["server.generator_lag_p99_s"] = percentile(lags, 99)
    m["trace.overhead_share"] = t["spans"] * t["span_cost_s"] / raw["wall_s"]
    return m


def attribution_rows(workload, layers):
    """Self-time table of a traced run as (layer, seconds, share, note)."""
    if workload == "serve":
        call = layers["server.call_p50_s"]
        parts = [("server.wire.encode_s", layers["server.wire.encode_s"]),
                 ("server.wire.decode_s", layers["server.wire.decode_s"]),
                 ("server.host.append_p50_s",
                  layers["server.host.append_p50_s"]),
                 ("server.transport_self_s", layers["server.transport_self_s"])]
        return [("server.call_p50_s", call, 1.0, "per AppendBatch call")] + [
            (name, value, value / call if call else 0.0, "")
            for name, value in parts]
    parts = [("itemsets.borders.add_block_s",
              layers["itemsets.borders.add_block_s"]),
             ("core.gemm.begin_block_s", layers["core.gemm.begin_block_s"]),
             ("core.gemm.drain_offline_s",
              layers["core.gemm.drain_offline_s"]),
             ("patterns.add_block_s", layers["patterns.add_block_s"]),
             ("core.engine.self_s", layers["core.engine.self_s"])]
    total = sum(value for _, value in parts)
    share = layers["core.unattributed_share"]
    flag = "FLAG > %.2f (ROADMAP item 1)" % UNATTRIBUTED_LIMIT \
        if share > UNATTRIBUTED_LIMIT else "within %.2f" % UNATTRIBUTED_LIMIT
    rows = [("engine AddBlock+Quiesce, num_threads=0", total, 1.0, "")]
    rows += [(name, value, value / total if total else 0.0,
              flag if name == "core.engine.self_s" else "")
             for name, value in parts]
    return rows


def result_line(correct, attempted, failed, metrics, units):
    """The final stdout line: exactly correct/attempted/failed/metrics."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    })


def check_result_schema(line, units):
    """Raises ValueError unless `line` is a result line carrying exactly
    the metrics in `units`, each a number with its unit."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys: %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError("%s must be an integer" % key)
    if result["attempted"] < 1 or result["failed"] < 0:
        raise ValueError("attempted must be >= 1 and failed >= 0")
    if set(result["metrics"]) != set(units):
        raise ValueError("metric names differ: %s" %
                         sorted(set(result["metrics"]) ^ set(units)))
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or metric["unit"] != units[name]:
            raise ValueError("metric %s: %s" % (name, metric))
        if not isinstance(metric["value"], (int, float)):
            raise ValueError("metric %s is not a number" % name)
    return result
