#!/usr/bin/env python3
"""Self-test of the v6pool benchmark, at a scale that runs in seconds.

    python3 perfbench/selftest.py

For every workload, untraced and traced, it checks that the run is correct
and emits every metric BENCHMARK.json declares, with its unit, and that
every name matches [A-Za-z0-9_.-]+. Then it gives each workload a
deliberately wrong expected digest and checks that the run counts a failed
check (so failed/attempted, the failed_ratio, rises above 0).
Exits 0 when everything holds.
"""

import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"[A-Za-z0-9_.-]+")
GATED = {
    "study": "study.ntp_digest",
    "collect_spill": "collect_spill.corpus_digest",
    "serve_live": "serve_live.final_digest",
    "collect_dist": "collect_dist.corpus_digest",
}


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "5", "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for group in (spec["workloads"], spec["end_to_end"], spec["per_layer"]):
        for item in group:
            expect(NAME.fullmatch(item["name"]) is not None,
                   f"name {item['name']!r} matches [A-Za-z0-9_.-]+")

    for workload in GATED:
        for trace in (0, 1):
            result = run(workload, trace)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload} trace={trace}: result keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{workload} trace={trace}: correct, "
                   f"{result['failed']} failed of {result['attempted']}")
            metrics = result["metrics"]
            expect(all(NAME.fullmatch(n) for n in metrics),
                   f"{workload} trace={trace}: emitted names are valid")
            for m in declared[trace]:
                got = metrics.get(m["name"])
                expect(got is not None
                       and isinstance(got.get("value"), (int, float))
                       and got.get("unit") == m["unit"],
                       f"{workload} trace={trace}: {m['name']} emitted "
                       f"in {m['unit']}")

        wrong = run(workload, 0, "--expect", GATED[workload] + "=" + "0" * 16)
        expect(not wrong["correct"] and wrong["failed"] >= 1,
               f"{workload}: a wrong expected {GATED[workload]} raises "
               f"failed_ratio to {wrong['failed']}/{wrong['attempted']}")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
