#!/usr/bin/env python3
"""Validates a ControlLoop JSON export against schema_version 1.

Run by the CI telemetry smoke steps against the files
example_fluctuating_streams and example_tpch_pipeline write, and usable
locally against any ControlLoop::WriteJson output:

    python3 tools/validate_telemetry.py telemetry.json [--require-edges]

Checks:
  * top level: telemetry (string), schema_version == 1, meta, samples,
    decisions, trace
  * meta: period_us, capacity, samples_taken, samples_kept, tasks — all
    non-negative integers, samples_kept == len(samples) <= samples_taken
  * every sample: t_us, backlog, an exchange rollup, a tasks array (joiner
    entries carry the full counter set incl. epoch/migrating, reshuffler
    entries the routing counters, agg entries the group-by counters incl.
    groups / table_bytes / flushed), and an edges array whose entries carry
    the backpressure fields (credit_waits, credit_wait_ns, ring_occupancy,
    ring_peak, ring_capacity, overflow_depth)
  * per-task cumulative counters are monotone across samples
  * every decision: t_us, op, action (grow / shrink / shed_rate), prev,
    next, accepted (0/1), the signals the policy saw (live_joiners,
    migrating, stall_ratio, input_rate, max_stored, backlog) and its
    thresholds (the AutoscaleConfig or ShedConfig fields); prev -> next
    must be the policy's step (grow: live * 4, shrink: live / 4, shed: one
    shed_factor step within [min_rate_ppm, 1000000]), and the signals must
    cross the thresholds that step requires (grow: stall or rate surge,
    shrink: idle, shed down: stall or backlog overload, shed up: calm), so
    every decision is explained by its own entry
  * every trace event: index, a known kind, task, t_us, a, b; non-object
    entries and unknown kind strings are reported as failures, never
    skipped
  * --require-edges: at least one sample must carry a non-empty edges array
    (threaded exports; sim-engine exports have no exchange plane)
  * --require-scale-events: the trace must carry at least one scale_grow and
    one scale_shrink event, and the decision log an accepted grow and an
    accepted shrink (elastic-autoscaling smoke runs)
  * --require-shed-events: the trace must carry at least one shed_enter
    event, some joiner sample must report a shed rate below 1000000 ppm,
    and the decision log must carry an accepted shed_rate decision
    (overload-shedding smoke runs)
  * --require-agg-tasks: some sample must carry at least one agg task, and
    the final sample's agg tasks must all report flushed == 1 (group-by
    pipeline smoke runs that end with a drained EOS barrier)

Exit code 0 = valid; 1 = findings (printed one per line).
"""

import argparse
import json
import sys

SAMPLE_KEYS = ("t_us", "backlog", "exchange", "tasks", "edges")
EXCHANGE_KEYS = ("envelopes", "batches", "credit_waits", "credit_wait_ns",
                 "overflow_batches")
JOINER_KEYS = ("in_tuples", "in_bytes", "probe_candidates", "output_tuples",
               "mig_out_tuples", "mig_in_tuples", "discarded_tuples",
               "migrations_finalized", "stored_tuples", "stored_bytes",
               "peak_stored_bytes", "epoch", "migrating", "active",
               "shed_probes_skipped", "shed_rate_ppm")
RESHUFFLER_KEYS = ("routed_tuples", "sent_msgs", "sent_bytes",
                   "epoch_changes", "results_restamped")
AGG_KEYS = ("in_tuples", "in_bytes", "groups", "table_bytes",
            "mig_out_cells", "mig_in_cells", "migrations_finalized",
            "emitted_results", "epoch", "migrating", "flushed")
EDGE_KEYS = ("producer", "consumer", "bounded", "batches", "envelopes",
             "credit_waits", "credit_wait_ns", "overflow_batches",
             "ring_occupancy", "ring_peak", "ring_capacity", "overflow_depth")
MONOTONE_JOINER_KEYS = ("in_tuples", "output_tuples", "migrations_finalized",
                        "shed_probes_skipped")
MONOTONE_AGG_KEYS = ("in_tuples", "in_bytes", "migrations_finalized",
                     "emitted_results")
TRACE_KINDS = ("epoch_change", "migration_begin", "migration_finalize",
               "credit_stall", "scale_grow", "scale_shrink", "shed_enter",
               "shed_exit", "shed_rate_change")
EXACT_PPM = 1000000  # shed_rate_ppm at or above this means shedding is off
DECISION_KEYS = ("t_us", "op", "prev", "next")
ACTIONS = ("grow", "shrink", "shed_rate")
SIGNAL_KEYS = ("live_joiners", "migrating", "stall_ratio", "input_rate",
               "max_stored", "backlog")
AUTOSCALE_THRESHOLDS = ("min_live", "max_live", "grow_stall_ratio",
                        "grow_rate_per_joiner", "shrink_rate_per_joiner",
                        "surge_ticks", "idle_ticks", "cooldown_ticks")
SHED_THRESHOLDS = ("enter_stall_ratio", "exit_stall_ratio", "enter_backlog",
                   "exit_backlog", "overload_ticks", "recover_ticks",
                   "cooldown_ticks", "min_rate_ppm", "shed_factor")
# Doubles are exported with 6 significant digits: compare ratios and rates
# against their thresholds with that much relative slack.
REL_TOL = 1e-5


def require(errors, cond, msg):
    if not cond:
        errors.append(msg)


def check_counter(errors, obj, key, where):
    require(errors, key in obj, f"{where}: missing '{key}'")
    if key in obj:
        value = obj[key]
        require(errors, isinstance(value, (int, float)) and value >= 0,
                f"{where}: '{key}' is not a non-negative number")


def check_sample(errors, sample, i):
    where = f"samples[{i}]"
    if not isinstance(sample, dict):
        errors.append(f"{where}: not an object")
        return
    for key in SAMPLE_KEYS:
        require(errors, key in sample, f"{where}: missing '{key}'")
    if isinstance(sample.get("exchange"), dict):
        for key in EXCHANGE_KEYS:
            check_counter(errors, sample["exchange"], key,
                          f"{where}.exchange")
    for t, task in enumerate(sample.get("tasks", [])):
        twhere = f"{where}.tasks[{t}]"
        if not isinstance(task, dict):
            errors.append(f"{twhere}: not an object")
            continue
        require(errors, task.get("kind") in ("joiner", "reshuffler", "agg"),
                f"{twhere}: bad kind {task.get('kind')!r}")
        keys = (JOINER_KEYS if task.get("kind") == "joiner"
                else AGG_KEYS if task.get("kind") == "agg"
                else RESHUFFLER_KEYS)
        for key in keys:
            check_counter(errors, task, key, twhere)
    for e, edge in enumerate(sample.get("edges", [])):
        ewhere = f"{where}.edges[{e}]"
        if not isinstance(edge, dict):
            errors.append(f"{ewhere}: not an object")
            continue
        for key in EDGE_KEYS:
            check_counter(errors, edge, key, ewhere)


def at_least(value, threshold):
    return value >= threshold * (1 - REL_TOL)


def at_most(value, threshold):
    return value <= threshold * (1 + REL_TOL) + 1e-12


def explain_scale(sig, thr, action, prev, nxt):
    """Why AutoscalePolicy took `action` on these signals; None if it
    could not have (see AutoscalePolicy::OnSample)."""
    live = sig["live_joiners"]
    if sig["migrating"] != 0:
        return None
    stalled = (thr["grow_stall_ratio"] > 0
               and at_least(sig["stall_ratio"], thr["grow_stall_ratio"]))
    if action == "grow":
        surge = (thr["grow_rate_per_joiner"] > 0
                 and at_least(sig["input_rate"],
                              thr["grow_rate_per_joiner"] * live))
        if (stalled or surge) and prev == live and nxt == live * 4 \
                and live * 4 <= thr["max_live"]:
            return "stall" if stalled else "rate"
        return None
    not_stalled = (thr["grow_stall_ratio"] == 0
                   or at_most(sig["stall_ratio"], thr["grow_stall_ratio"]))
    idle = (not_stalled and thr["shrink_rate_per_joiner"] > 0
            and at_most(sig["input_rate"],
                        thr["shrink_rate_per_joiner"] * live))
    if idle and prev == live and nxt == live // 4 and live % 4 == 0 \
            and live // 4 >= thr["min_live"]:
        return "idle"
    return None


def explain_shed(sig, thr, prev, nxt):
    """Why ShedPolicy moved the rate prev -> nxt on these signals; None if
    it could not have (see ShedPolicy::OnSample)."""
    factor = max(2, thr["shed_factor"])
    floor = max(1, thr["min_rate_ppm"])
    if nxt < prev:
        stalled = (thr["enter_stall_ratio"] > 0
                   and at_least(sig["stall_ratio"], thr["enter_stall_ratio"]))
        backlogged = (thr["enter_backlog"] > 0
                      and sig["backlog"] >= thr["enter_backlog"])
        if (stalled or backlogged) and nxt == max(prev // factor, floor):
            return "stall" if stalled else "backlog"
        return None
    calm = (at_most(sig["stall_ratio"], thr["exit_stall_ratio"])
            and (thr["enter_backlog"] == 0
                 or sig["backlog"] <= thr["exit_backlog"]))
    if calm and prev < EXACT_PPM and nxt == min(prev * factor, EXACT_PPM):
        return "calm"
    return None


def check_decision(errors, decision, i):
    where = f"decisions[{i}]"
    if not isinstance(decision, dict):
        errors.append(f"{where}: not an object")
        return
    for key in DECISION_KEYS:
        check_counter(errors, decision, key, where)
    action = decision.get("action")
    require(errors, action in ACTIONS, f"{where}: bad action {action!r}")
    require(errors, decision.get("accepted") in (0, 1),
            f"{where}: 'accepted' is not 0 or 1")
    sig = decision.get("signals")
    thr = decision.get("thresholds")
    if not isinstance(sig, dict) or not isinstance(thr, dict):
        errors.append(f"{where}: missing 'signals' or 'thresholds' object")
        return
    for key in SIGNAL_KEYS:
        check_counter(errors, sig, key, f"{where}.signals")
    for key in (SHED_THRESHOLDS if action == "shed_rate"
                else AUTOSCALE_THRESHOLDS):
        check_counter(errors, thr, key, f"{where}.thresholds")
    if errors or action not in ACTIONS:
        return  # the consistency check below needs a well-formed entry
    prev, nxt = decision["prev"], decision["next"]
    if action == "shed_rate":
        require(errors, 0 < prev <= EXACT_PPM and 0 < nxt <= EXACT_PPM
                and prev != nxt,
                f"{where}: shed rate {prev} -> {nxt} out of range")
        reason = explain_shed(sig, thr, prev, nxt)
    else:
        reason = explain_scale(sig, thr, action, prev, nxt)
    require(errors, reason is not None,
            f"{where}: {action} {prev} -> {nxt} is not explained by its "
            f"signals {sig} and thresholds {thr}")


def check_monotone(errors, samples):
    prev = {}
    for i, sample in enumerate(samples):
        if not isinstance(sample, dict):
            continue  # already reported by check_sample
        for task in sample.get("tasks", []):
            if not isinstance(task, dict):
                continue
            if task.get("kind") == "joiner":
                monotone_keys = MONOTONE_JOINER_KEYS
            elif task.get("kind") == "agg":
                monotone_keys = MONOTONE_AGG_KEYS
            else:
                continue
            tid = task.get("task")
            for key in monotone_keys:
                last = prev.get((tid, key), 0)
                cur = task.get(key, 0)
                require(errors, cur >= last,
                        f"samples[{i}] task {tid}: '{key}' went backwards "
                        f"({last} -> {cur})")
                prev[(tid, key)] = cur


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", help="ControlLoop::WriteJson output")
    parser.add_argument("--require-edges", action="store_true",
                        help="fail unless some sample has per-edge stats")
    parser.add_argument("--require-scale-events", action="store_true",
                        help="fail unless the trace has at least one "
                             "scale_grow and one scale_shrink event and the "
                             "decision log an accepted grow and shrink")
    parser.add_argument("--require-shed-events", action="store_true",
                        help="fail unless the trace has a shed_enter event, "
                             "some joiner sample reports an active shed "
                             "rate, and the decision log an accepted "
                             "shed_rate decision")
    parser.add_argument("--require-agg-tasks", action="store_true",
                        help="fail unless some sample carries agg tasks and "
                             "the final sample's agg tasks all report "
                             "flushed == 1")
    args = parser.parse_args()

    errors = []
    try:
        with open(args.path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{args.path}: unreadable or invalid JSON: {exc}")
        return 1

    require(errors, isinstance(doc.get("telemetry"), str),
            "top level: missing 'telemetry' name")
    require(errors, doc.get("schema_version") == 1,
            f"top level: schema_version {doc.get('schema_version')!r} != 1")
    meta = doc.get("meta")
    require(errors, isinstance(meta, dict), "top level: missing 'meta'")
    samples = doc.get("samples")
    require(errors, isinstance(samples, list), "top level: missing 'samples'")
    decisions = doc.get("decisions")
    require(errors, isinstance(decisions, list),
            "top level: missing 'decisions'")
    trace = doc.get("trace")
    require(errors, isinstance(trace, list), "top level: missing 'trace'")
    if errors:
        for error in errors:
            print(error)
        return 1

    for key in ("period_us", "capacity", "samples_taken", "samples_kept",
                "tasks"):
        check_counter(errors, meta, key, "meta")
    if "samples_kept" in meta:
        require(errors, meta["samples_kept"] == len(samples),
                f"meta: samples_kept {meta['samples_kept']} != "
                f"{len(samples)} samples present")
    if "samples_taken" in meta and "samples_kept" in meta:
        require(errors, meta["samples_kept"] <= meta["samples_taken"],
                "meta: samples_kept exceeds samples_taken")

    for i, sample in enumerate(samples):
        check_sample(errors, sample, i)
    check_monotone(errors, samples)

    for i, decision in enumerate(decisions):
        decision_errors = []
        check_decision(decision_errors, decision, i)
        errors += decision_errors

    for i, event in enumerate(trace):
        where = f"trace[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        require(errors, event.get("kind") in TRACE_KINDS,
                f"{where}: unknown kind {event.get('kind')!r}")
        for key in ("index", "task", "t_us", "a", "b"):
            check_counter(errors, event, key, where)

    if args.require_edges:
        require(errors,
                any(sample.get("edges") for sample in samples),
                "--require-edges: no sample carries per-edge stats")

    kinds = {event.get("kind") for event in trace
             if isinstance(event, dict)}
    accepted = {d.get("action") for d in decisions
                if isinstance(d, dict) and d.get("accepted") == 1}
    if args.require_scale_events:
        require(errors, "scale_grow" in kinds,
                "--require-scale-events: no scale_grow trace event")
        require(errors, "scale_shrink" in kinds,
                "--require-scale-events: no scale_shrink trace event")
        require(errors, "grow" in accepted,
                "--require-scale-events: no accepted grow decision")
        require(errors, "shrink" in accepted,
                "--require-scale-events: no accepted shrink decision")

    if args.require_shed_events:
        require(errors, "shed_enter" in kinds,
                "--require-shed-events: no shed_enter trace event")
        shed_seen = any(
            task.get("kind") == "joiner"
            and 0 < task.get("shed_rate_ppm", EXACT_PPM) < EXACT_PPM
            for sample in samples if isinstance(sample, dict)
            for task in sample.get("tasks", []) if isinstance(task, dict))
        require(errors, shed_seen,
                "--require-shed-events: no joiner sample reports an active "
                "shed rate (shed_rate_ppm < 1000000)")
        require(errors, "shed_rate" in accepted,
                "--require-shed-events: no accepted shed_rate decision")

    if args.require_agg_tasks:
        agg_seen = any(
            task.get("kind") == "agg"
            for sample in samples if isinstance(sample, dict)
            for task in sample.get("tasks", []) if isinstance(task, dict))
        require(errors, agg_seen,
                "--require-agg-tasks: no sample carries an agg task")
        if samples and isinstance(samples[-1], dict):
            final_aggs = [task for task in samples[-1].get("tasks", [])
                          if isinstance(task, dict)
                          and task.get("kind") == "agg"]
            require(errors,
                    final_aggs and all(task.get("flushed") == 1
                                       for task in final_aggs),
                    "--require-agg-tasks: final sample's agg tasks are not "
                    "all flushed (EOS barrier never drained)")

    for error in errors:
        print(error)
    if errors:
        print(f"\n{len(errors)} telemetry schema failure(s)", file=sys.stderr)
        return 1
    n_tasks = max((len(s.get("tasks", [])) for s in samples), default=0)
    print(f"telemetry schema valid: {len(samples)} samples, "
          f"{n_tasks} tasks, {len(decisions)} decisions, "
          f"{len(trace)} trace events")
    return 0


if __name__ == "__main__":
    sys.exit(main())
