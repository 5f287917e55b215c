#!/usr/bin/env python3
"""Validate sttlock observability artifacts.

Checks that a Chrome trace JSON written by ``--trace`` is loadable by
chrome://tracing (structurally: a ``traceEvents`` list of complete "X"
events with the required keys) and that a metrics JSON written by
``--metrics`` has the counters/gauges/histograms shape.

Also validates a campaign JSON document written by ``--out-json``: every
``results`` row must carry the defense axis columns (``defense``,
``defense_tuning``, ``key_cells``, ``key_bits``, ``cells_added``,
``cells_replaced``) and every ``summary`` entry the per-defense aggregate
shape.

Also validates a bench JSON document against its schema: ``--bench netlist``
checks the shape bench_netlist_perf writes (counts, matching structural
checksums, the per-path/per-phase timing rows, and the keydep support,
cells and pairs rows under both interference requests); ``--bench sat`` checks
the shape bench_sat_perf writes (exactly the pruned and pruned_sim modes,
integer counts, positive seconds, and every mode's CNF growth per DIP
within a tenth of ``full_copy_per_iter``), plus the optional ``history``
rows of retired modes.

Usage:
  scripts/validate_obs.py --trace trace.json [--require-cats job,flow-stage,...]
  scripts/validate_obs.py --metrics metrics.json [--require-counters a,b]
  scripts/validate_obs.py --campaign campaign.json \\
      [--require-defenses xor,latch] [--require-attacks sat,none]
  scripts/validate_obs.py --bench netlist --bench-json BENCH_netlist_perf.json
  scripts/validate_obs.py --bench sat --bench-json BENCH_sat_perf.json

Exits non-zero with a diagnostic on the first violation. Stdlib only.
"""

import argparse
import json
import sys

TRACE_EVENT_KEYS = {"name", "cat", "ph", "ts", "dur", "pid", "tid"}

CAMPAIGN_ROW_KEYS = {
    "benchmark", "algorithm", "defense", "defense_tuning", "trial",
    "circuit_seed", "selection_seed", "status", "attempts", "luts",
    "key_cells", "key_bits", "cells_added", "cells_replaced",
}
CAMPAIGN_ROW_COUNTS = ("key_cells", "key_bits", "cells_added",
                       "cells_replaced")
# Present only on rows whose lint stage ran (verify/keydep analysis).
CAMPAIGN_KEYDEP_KEYS = {"key_bits_static", "eff_key_bits", "analyze_verdict"}
CAMPAIGN_KEYDEP_COUNTS = ("key_bits_static", "eff_key_bits")
# "" marks a lint run whose keydep stage was skipped (no LUTs).
CAMPAIGN_ANALYZE_VERDICTS = {"", "empty", "broken", "degraded", "secure"}
CAMPAIGN_SUMMARY_KEYS = {
    "defense", "defense_tuning", "rows", "failed", "perf_pct_mean",
    "power_pct_mean", "area_pct_mean", "luts_mean", "key_bits_mean",
    "attacked", "attack_breaks",
}
# The "runtime" section (present in --out-json, absent from --stable-json)
# carries the resume/shard/dedup-cache accounting of the result store.
CAMPAIGN_RUNTIME_KEYS = {
    "threads", "wall_seconds", "job_cpu_seconds", "executed", "stolen",
    "failed_rows", "rows_resumed", "rows_executed", "shard_index",
    "shard_count", "cache_builds", "cache_reuses", "cache_saved_ms",
    "store_note", "obs",
}
CAMPAIGN_RUNTIME_COUNTS = ("rows_resumed", "rows_executed", "cache_builds",
                           "cache_reuses")


def fail(msg):
    print(f"validate_obs: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def validate_trace(path, require_cats):
    doc = load_json(path)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: top-level object must contain 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail(f"{path}: 'traceEvents' must be a list")
    cats = set()
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            fail(f"{path}: event {i} is not an object")
        missing = TRACE_EVENT_KEYS - e.keys()
        if missing:
            fail(f"{path}: event {i} missing keys {sorted(missing)}")
        if e["ph"] != "X":
            fail(f"{path}: event {i} has ph={e['ph']!r}, expected complete"
                 " event 'X'")
        for key in ("ts", "dur", "pid", "tid"):
            if not isinstance(e[key], int) or e[key] < 0:
                fail(f"{path}: event {i} field {key}={e[key]!r} must be a"
                     " non-negative integer")
        cats.add(e["cat"])
    for cat in require_cats:
        if cat not in cats:
            fail(f"{path}: required span category {cat!r} absent"
                 f" (present: {sorted(cats)})")
    print(f"validate_obs: OK: {path}: {len(events)} events,"
          f" categories {sorted(cats)}")


def validate_metrics(path, require_counters):
    doc = load_json(path)
    if not isinstance(doc, dict):
        fail(f"{path}: top-level value must be an object")
    for section in ("counters", "gauges", "histograms"):
        if section not in doc or not isinstance(doc[section], dict):
            fail(f"{path}: missing or non-object section {section!r}")
    for name, value in doc["counters"].items():
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: counter {name!r} must be a non-negative integer")
    for name, value in doc["gauges"].items():
        if not isinstance(value, int):
            fail(f"{path}: gauge {name!r} must be an integer")
    for name, h in doc["histograms"].items():
        if not isinstance(h, dict) or not {"count", "sum"} <= h.keys():
            fail(f"{path}: histogram {name!r} must carry count and sum")
    for name in require_counters:
        if name not in doc["counters"]:
            fail(f"{path}: required counter {name!r} absent"
                 f" (present: {sorted(doc['counters'])})")
    validate_sim_isa_counters(path, doc["counters"])
    print(f"validate_obs: OK: {path}: {len(doc['counters'])} counters,"
          f" {len(doc['gauges'])} gauges, {len(doc['histograms'])} histograms")


def validate_sim_isa_counters(path, counters):
    """Cross-check the simulation engine's per-ISA word attribution.

    ``sim.words`` counts true pattern words; ``sim.isa.<name>`` and
    ``sim.lane_words.<K>`` attribute those same words to the kernel that
    evaluated them, so each family must sum to exactly ``sim.words``.
    """
    if "sim.words" not in counters:
        return
    total = counters["sim.words"]
    for prefix in ("sim.isa.", "sim.lane_words."):
        family = {k: v for k, v in counters.items() if k.startswith(prefix)}
        if not family:
            fail(f"{path}: sim.words present but no {prefix}* counters")
        attributed = sum(family.values())
        if attributed != total:
            fail(f"{path}: {prefix}* counters sum to {attributed},"
                 f" expected sim.words={total} ({family})")
    known_isas = {"sim.isa.scalar", "sim.isa.avx2", "sim.isa.avx512"}
    unknown = {k for k in counters if k.startswith("sim.isa.")} - known_isas
    if unknown:
        fail(f"{path}: unknown sim.isa counters {sorted(unknown)}")


def validate_campaign(path, require_defenses, require_attacks):
    doc = load_json(path)
    if not isinstance(doc, dict):
        fail(f"{path}: top-level value must be an object")
    for section in ("results", "summary"):
        if section not in doc or not isinstance(doc[section], list):
            fail(f"{path}: missing or non-list section {section!r}")
    defenses, attacks = set(), set()
    for i, row in enumerate(doc["results"]):
        if not isinstance(row, dict):
            fail(f"{path}: results[{i}] is not an object")
        missing = CAMPAIGN_ROW_KEYS - row.keys()
        if missing:
            fail(f"{path}: results[{i}] missing keys {sorted(missing)}")
        for key in CAMPAIGN_ROW_COUNTS:
            if not isinstance(row[key], int) or row[key] < 0:
                fail(f"{path}: results[{i}] field {key}={row[key]!r} must be"
                     " a non-negative integer")
        if "lint" in row:
            missing = CAMPAIGN_KEYDEP_KEYS - row.keys()
            if missing:
                fail(f"{path}: results[{i}] ran lint but is missing keydep"
                     f" keys {sorted(missing)}")
            for key in CAMPAIGN_KEYDEP_COUNTS:
                if not isinstance(row[key], int) or row[key] < 0:
                    fail(f"{path}: results[{i}] field {key}={row[key]!r}"
                         " must be a non-negative integer")
            if row["eff_key_bits"] > row["key_bits"]:
                fail(f"{path}: results[{i}] eff_key_bits"
                     f" {row['eff_key_bits']} exceeds key_bits"
                     f" {row['key_bits']}")
            if row["analyze_verdict"] not in CAMPAIGN_ANALYZE_VERDICTS:
                fail(f"{path}: results[{i}] analyze_verdict"
                     f" {row['analyze_verdict']!r} not in"
                     f" {sorted(CAMPAIGN_ANALYZE_VERDICTS)}")
        if row["algorithm"] != row["defense"]:
            fail(f"{path}: results[{i}] legacy 'algorithm' column"
                 f" {row['algorithm']!r} != 'defense' {row['defense']!r}")
        defenses.add(row["defense"])
        # Rows without an attack stage carry no "attack" key.
        attacks.add(row.get("attack", "none"))
    for i, entry in enumerate(doc["summary"]):
        if not isinstance(entry, dict):
            fail(f"{path}: summary[{i}] is not an object")
        missing = CAMPAIGN_SUMMARY_KEYS - entry.keys()
        if missing:
            fail(f"{path}: summary[{i}] missing keys {sorted(missing)}")
    if "runtime" in doc:
        validate_campaign_runtime(path, doc["runtime"], len(doc["results"]))
    summarized = {e["defense"] for e in doc["summary"]}
    for kind in require_defenses:
        if kind not in defenses:
            fail(f"{path}: required defense {kind!r} absent from results"
                 f" (present: {sorted(defenses)})")
        if kind not in summarized:
            fail(f"{path}: required defense {kind!r} absent from summary"
                 f" (present: {sorted(summarized)})")
    for name in require_attacks:
        if name not in attacks:
            fail(f"{path}: required attack {name!r} absent from results"
                 f" (present: {sorted(attacks)})")
    print(f"validate_obs: OK: {path}: {len(doc['results'])} rows,"
          f" defenses {sorted(defenses)}, attacks {sorted(attacks)}")


def validate_campaign_runtime(path, rt, n_rows):
    if not isinstance(rt, dict):
        fail(f"{path}: 'runtime' must be an object")
    missing = CAMPAIGN_RUNTIME_KEYS - rt.keys()
    if missing:
        fail(f"{path}: runtime section missing keys {sorted(missing)}")
    for key in CAMPAIGN_RUNTIME_COUNTS:
        if not isinstance(rt[key], int) or rt[key] < 0:
            fail(f"{path}: runtime field {key}={rt[key]!r} must be a"
                 " non-negative integer")
    if not isinstance(rt["shard_index"], int) \
            or not isinstance(rt["shard_count"], int) \
            or not 1 <= rt["shard_index"] <= rt["shard_count"]:
        fail(f"{path}: runtime shard {rt['shard_index']!r}/"
             f"{rt['shard_count']!r} must satisfy 1 <= index <= count")
    # Every reported row was either replayed from the store or executed in
    # this process — the two counters partition the rows exactly.
    if rt["rows_resumed"] + rt["rows_executed"] != n_rows:
        fail(f"{path}: rows_resumed {rt['rows_resumed']} + rows_executed"
             f" {rt['rows_executed']} != {n_rows} result rows")
    if not isinstance(rt["cache_saved_ms"], (int, float)) \
            or rt["cache_saved_ms"] < 0:
        fail(f"{path}: runtime cache_saved_ms={rt['cache_saved_ms']!r} must"
             " be a non-negative number")
    if rt["cache_builds"] == 0 and rt["cache_reuses"] != 0:
        fail(f"{path}: runtime reports {rt['cache_reuses']} cache reuses"
             " with no cache builds")
    if not isinstance(rt["store_note"], str):
        fail(f"{path}: runtime store_note must be a string")
    # The same accounting flows through the runtime-tagged obs counters;
    # when present (enabled obs builds) they must agree with the fields.
    counters = rt["obs"].get("counters", {}) if isinstance(rt["obs"], dict) \
        else {}
    for counter, field in (("campaign.rows.resumed", "rows_resumed"),
                           ("campaign.rows.executed", "rows_executed"),
                           ("campaign.cache.builds", "cache_builds"),
                           ("campaign.cache.reuses", "cache_reuses")):
        if counter in counters and counters[counter] != rt[field]:
            fail(f"{path}: runtime obs counter {counter}="
                 f"{counters[counter]} disagrees with {field}={rt[field]}")


NETLIST_BENCH_KEYS = {
    "benchmark", "cells", "edges", "luts", "bench_bytes", "findings",
    "checksum", "seed_checksum", "load_lint_speedup", "keydep_netlist",
    "keydep_cells", "keydep_key_cells", "keydep_edges", "phases",
}
NETLIST_BENCH_COUNTS = ("cells", "edges", "luts", "bench_bytes", "findings",
                        "keydep_cells", "keydep_key_cells", "keydep_edges")
NETLIST_PHASE_KEYS = {"path", "phase", "reps", "seconds", "cells_per_sec"}
NETLIST_KEYDEP_PATHS = {"keydep_edges", "keydep_degrees"}
NETLIST_PATHS = {"current", "seed"} | NETLIST_KEYDEP_PATHS
# Every path must time at least these phases. The audit passes "scoap" and
# "seq_depth" (and "lower") run on the current path only: the seed replica
# core is a bench-local type the library passes do not consume. The keydep
# paths time the analysis' own spans, once per interference request.
NETLIST_REQUIRED_PHASES = {"parse", "finalize", "topo", "lint"}
NETLIST_CURRENT_PHASES = {"scoap", "seq_depth"}
NETLIST_KEYDEP_PHASES = {"support", "cells", "pairs"}


def validate_netlist_bench(path):
    doc = load_json(path)
    if not isinstance(doc, dict):
        fail(f"{path}: top-level value must be an object")
    missing = NETLIST_BENCH_KEYS - doc.keys()
    if missing:
        fail(f"{path}: missing keys {sorted(missing)}")
    for key in NETLIST_BENCH_COUNTS:
        if not isinstance(doc[key], int) or doc[key] < 0:
            fail(f"{path}: field {key}={doc[key]!r} must be a non-negative"
                 " integer")
    if doc["cells"] <= 0:
        fail(f"{path}: cells must be positive")
    # The bench refuses to emit JSON on a checksum mismatch, so a committed
    # artifact with differing checksums is corrupt by construction.
    if doc["checksum"] != doc["seed_checksum"]:
        fail(f"{path}: checksum {doc['checksum']!r} != seed_checksum"
             f" {doc['seed_checksum']!r}")
    if not isinstance(doc["load_lint_speedup"], (int, float)) \
            or doc["load_lint_speedup"] <= 0:
        fail(f"{path}: load_lint_speedup must be a positive number")
    if not isinstance(doc["phases"], list) or not doc["phases"]:
        fail(f"{path}: 'phases' must be a non-empty list")
    timed = {p: set() for p in NETLIST_PATHS}
    for i, row in enumerate(doc["phases"]):
        if not isinstance(row, dict):
            fail(f"{path}: phases[{i}] is not an object")
        missing = NETLIST_PHASE_KEYS - row.keys()
        if missing:
            fail(f"{path}: phases[{i}] missing keys {sorted(missing)}")
        if row["path"] not in NETLIST_PATHS:
            fail(f"{path}: phases[{i}] path {row['path']!r} not in"
                 f" {sorted(NETLIST_PATHS)}")
        if not isinstance(row["reps"], int) or row["reps"] < 2:
            fail(f"{path}: phases[{i}] reps={row['reps']!r} must be an"
                 " integer >= 2 (the bench always times at least two reps)")
        for key in ("seconds", "cells_per_sec"):
            if not isinstance(row[key], (int, float)) or row[key] < 0:
                fail(f"{path}: phases[{i}] field {key}={row[key]!r} must be"
                     " a non-negative number")
        timed[row["path"]].add(row["phase"])
    for p in NETLIST_PATHS:
        required = NETLIST_REQUIRED_PHASES
        if p == "current":
            required = required | NETLIST_CURRENT_PHASES
        elif p in NETLIST_KEYDEP_PATHS:
            required = NETLIST_KEYDEP_PHASES
        missing = required - timed[p]
        if missing:
            fail(f"{path}: path {p!r} missing timed phases"
                 f" {sorted(missing)}")
    print(f"validate_obs: OK: {path}: {doc['benchmark']} with"
          f" {doc['cells']} cells, {len(doc['phases'])} phase rows,"
          f" {doc['load_lint_speedup']}x load+lint speedup")


SAT_BENCH_KEYS = {"benchmark", "algorithm", "luts", "key_bits", "checksum",
                  "full_copy_per_iter", "modes"}
SAT_BENCH_MODES = ("pruned", "pruned_sim")
SAT_MODE_COUNTS = ("iterations", "queries", "conflicts", "decisions",
                   "propagations", "learned", "peak_clauses", "cnf_initial",
                   "cnf_dip", "key_rows_folded")
SAT_MODE_KEYS = {"name", "seconds", "cnf_per_iter", *SAT_MODE_COUNTS}
# bench_sat_perf's gate: folded CNF growth per DIP stays within
# full_copy_per_iter / SAT_MIN_CNF_REDUCTION.
SAT_MIN_CNF_REDUCTION = 10


def is_count(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_sat_rows(path, key, rows):
    """Check a list of bench_sat_perf mode rows; return them by name."""
    if not isinstance(rows, list):
        fail(f"{path}: {key!r} must be a list")
    by_name = {}
    for m in rows:
        if not isinstance(m, dict) or not isinstance(m.get("name"), str):
            fail(f"{path}: {key} row {m!r} must be an object with a name")
        name = m["name"]
        if name in by_name:
            fail(f"{path}: {key} row {name} appears twice")
        missing = SAT_MODE_KEYS - m.keys()
        if missing:
            fail(f"{path}: {key} row {name} missing keys {sorted(missing)}")
        for field in SAT_MODE_COUNTS:
            if not is_count(m[field]):
                fail(f"{path}: {key} row {name} field {field}={m[field]!r}"
                     " must be a non-negative integer")
        if not is_number(m["seconds"]) or m["seconds"] <= 0:
            fail(f"{path}: {key} row {name} seconds={m['seconds']!r} must"
                 " be > 0")
        if not is_number(m["cnf_per_iter"]) or m["cnf_per_iter"] < 0:
            fail(f"{path}: {key} row {name} cnf_per_iter="
                 f"{m['cnf_per_iter']!r} must be a number >= 0")
        by_name[name] = m
    return by_name


def validate_sat_bench(path):
    doc = load_json(path)
    if not isinstance(doc, dict):
        fail(f"{path}: top-level value must be an object")
    missing = SAT_BENCH_KEYS - doc.keys()
    if missing:
        fail(f"{path}: missing keys {sorted(missing)}")
    for key in ("luts", "key_bits"):
        if not is_count(doc[key]):
            fail(f"{path}: field {key}={doc[key]!r} must be a non-negative"
                 " integer")
    full = doc["full_copy_per_iter"]
    if not is_number(full) or full <= 0:
        fail(f"{path}: full_copy_per_iter={full!r} must be a number > 0")
    modes = check_sat_rows(path, "modes", doc["modes"])
    if sorted(modes) != sorted(SAT_BENCH_MODES):
        fail(f"{path}: modes {sorted(modes)!r} must be exactly"
             f" {list(SAT_BENCH_MODES)}")
    for name, m in modes.items():
        if m["cnf_per_iter"] * SAT_MIN_CNF_REDUCTION > full:
            fail(f"{path}: mode {name} cnf_per_iter={m['cnf_per_iter']} is"
                 f" more than 1/{SAT_MIN_CNF_REDUCTION} of"
                 f" full_copy_per_iter={full}")
    history = check_sat_rows(path, "history", doc.get("history", []))
    overlap = set(history) & set(modes)
    if overlap:
        fail(f"{path}: history repeats live modes {sorted(overlap)}")
    print(f"validate_obs: OK: {path}: {doc['benchmark']}/{doc['algorithm']},"
          f" pruned_sim {modes['pruned_sim']['iterations']} DIPs at"
          f" {modes['pruned_sim']['cnf_per_iter']} clauses/DIP"
          f" (full copy {full}), {len(history)} history row(s)")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace", help="Chrome trace JSON to validate")
    ap.add_argument("--metrics", help="metrics JSON to validate")
    ap.add_argument("--campaign", help="campaign --out-json document to"
                    " validate (defense axis columns)")
    ap.add_argument("--bench", choices=["netlist", "sat"],
                    help="bench JSON schema to validate (--bench-json)")
    ap.add_argument("--bench-json",
                    help="bench JSON path (default BENCH_<bench>_perf.json)")
    ap.add_argument("--require-cats", default="",
                    help="comma-separated span categories that must appear")
    ap.add_argument("--require-counters", default="",
                    help="comma-separated counters that must appear")
    ap.add_argument("--require-defenses", default="",
                    help="comma-separated defense kinds that must appear in"
                    " campaign results and summary")
    ap.add_argument("--require-attacks", default="",
                    help="comma-separated attack names that must appear in"
                    " campaign results")
    args = ap.parse_args()
    if not args.trace and not args.metrics and not args.campaign \
            and not args.bench:
        ap.error("at least one of --trace / --metrics / --campaign /"
                 " --bench is required")
    split = lambda s: [x for x in s.split(",") if x]  # noqa: E731
    if args.trace:
        validate_trace(args.trace, split(args.require_cats))
    if args.metrics:
        validate_metrics(args.metrics, split(args.require_counters))
    if args.campaign:
        validate_campaign(args.campaign, split(args.require_defenses),
                          split(args.require_attacks))
    if args.bench:
        bench_json = args.bench_json or f"BENCH_{args.bench}_perf.json"
        if args.bench == "netlist":
            validate_netlist_bench(bench_json)
        else:
            validate_sat_bench(bench_json)


if __name__ == "__main__":
    main()
