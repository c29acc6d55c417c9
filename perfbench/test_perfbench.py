#!/usr/bin/env python3
"""Self-test of the benchmark at small scale.

Run from the repository root:

    python3 perfbench/test_perfbench.py

Checks that
  * every workload answers correctly and prints exactly the metrics that
    BENCHMARK.json names (end-to-end untraced, per-layer traced);
  * on static-query and mixed-update the block, posting and candidate counts
    and write_amp / space_amp repeat exactly for a seed, and a different
    seed generates different inputs;
  * a deliberately corrupted answer is caught (non-zero exit, correct=false).
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SCALE = "0.05"
EXACT = [
    "e2e write_amp", "e2e space_amp",
    "layer core.postings_per_lookup.lazy",
    "layer core.postings_per_lookup.composite",
    "layer core.candidates_per_result", "layer core.valid_ratio",
    "layer core.records_scanned_per_lookup.embedded",
    "layer db.blocks_per_get", "layer db.primary_bloom_useful_ratio",
    "layer db.blocks_per_lookup.embedded", "layer db.blocks_per_lookup.lazy",
    "layer db.blocks_per_lookup.composite", "layer db.blocks_per_validation",
    "layer db.compaction_bytes_written", "layer db.flushes",
    "layer table.zonemap_blocks_pruned_per_rangelookup",
    "layer table.secondary_bloom_useful_ratio",
    "layer table.bytes_per_block_read", "layer env.reads_per_op",
    "layer env.write_bytes_per_put", "layer env.syncs",
    "layer wal.bytes_per_put", "layer compress.ratio",
]


def invoke(binary, workload, seed, trace, extra=()):
    data = os.path.join(run.ROOT, ".bench_data", "selftest")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           "2", "--trace", str(trace), "--scale", SCALE,
           "--dir", data] + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    shutil.rmtree(data, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    values, meta = {}, {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] in ("e2e", "layer"):
            values[parts[0] + " " + parts[1]] = parts[2]
        elif line.startswith("meta "):
            meta = json.loads(line[5:])
    return proc.returncode, json.loads(lines[-1]), values, meta, proc.stderr


def main():
    binary = run.build()
    if binary is None:
        print("FAIL: build")
        return 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for workload in run.WORKLOADS:
        for trace, names in ((0, e2e_names), (1, layer_names)):
            code, result, _, _, err = invoke(binary, workload, 3, trace)
            check(code == 0 and result["correct"] and result["failed"] == 0,
                  "%s trace=%d answers correctly %s" % (workload, trace, err[-300:]))
            check(set(result["metrics"]) == names,
                  "%s trace=%d prints the BENCHMARK.json metrics" % (workload, trace))

    for workload in ("static-query", "mixed-update"):
        _, _, first, meta1, _ = invoke(binary, workload, 7, 1)
        _, _, second, meta2, _ = invoke(binary, workload, 7, 1)
        _, _, _, meta3, _ = invoke(binary, workload, 8, 0)
        diff = [k for k in EXACT if first.get(k) != second.get(k)]
        check(not diff and all(k in first for k in EXACT),
              "%s exact counts repeat for a seed %s" % (workload, diff))
        check(meta1["input_digest"] == meta2["input_digest"],
              "%s same seed, same inputs" % workload)
        check(meta1["input_digest"] != meta3["input_digest"],
              "%s different seed, different inputs" % workload)

    for workload in run.WORKLOADS:
        code, result, _, _, err = invoke(binary, workload, 3, 0, ["--corrupt", "1"])
        check(code != 0 and not result["correct"] and result["failed"] >= 1
              and "WRONG" in err, "%s corrupted answer is caught" % workload)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
