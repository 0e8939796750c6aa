#!/usr/bin/env python3
"""Self-test of the benchmark's outputs.

    python3 perfbench/tests/check_outputs.py [--seconds 2]

From the repository root: builds perfbench, runs the span self-test
(tests/spans_test.cc), then runs every workload of BENCHMARK.json, and
serve_mixed, once untraced and once traced, and checks that

  * every declared metric name matches [A-Za-z0-9_.-]+ and is unique;
  * each result line parses, has exactly the contract's keys, and
    carries exactly the declared metrics with the declared units;
  * end-to-end values are positive (no timing reads 0);
  * the traced runs show the intended layer split: deep_scan emits at
    least 10x the elements per request of serve_mixed, only fed_churn
    has nonzero federate.* and em.* counts, and trace.overhead_pct is
    reported.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402  (perfbench/run.py: the build step)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+")

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}")


def run_workload(name, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", name, "--seed", "7", "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    check(proc.returncode == 0, f"{name} trace={trace} exit {proc.returncode}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {}
    for group in ("end_to_end", "per_layer"):
        for m in bench[group]:
            check(NAME.fullmatch(m["name"]) is not None,
                  f"metric name {m['name']!r}")
            check(UNIT.fullmatch(m["unit"]) is not None,
                  f"unit {m['unit']!r} of {m['name']}")
            check(m["name"] not in declared, f"duplicate metric {m['name']}")
            declared[m["name"]] = (group, m["unit"])

    test = run.build("perfbench_spans_test")
    check(subprocess.run([test]).returncode == 0, "spans_test")

    # serve_mixed is not in BENCHMARK.json (see README.md) but still runs
    # here: it is the small-k side of the layer-split check below.
    names = [w["name"] for w in bench["workloads"]] + ["serve_mixed"]
    layers = {}
    for name in names:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = run_workload(name, args.seconds, trace)
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, f"{name} result keys")
            check(result["correct"] is True, f"{name} correct")
            want = {n: u for n, (g, u) in declared.items() if g == group}
            got = result["metrics"]
            check(set(got) == set(want),
                  f"{name} trace={trace} metrics "
                  f"missing {sorted(set(want) - set(got))} "
                  f"extra {sorted(set(got) - set(want))}")
            for n, m in got.items():
                check(m.get("unit") == want.get(n),
                      f"{name} {n} unit {m.get('unit')}")
                if group == "end_to_end":
                    check(m["value"] > 0, f"{name} {n} = {m['value']}")
            if trace == 1:
                layers[name] = {n: m["value"] for n, m in got.items()}

    if {"serve_mixed", "deep_scan", "fed_churn"} <= set(layers):
        emitted = "core.elements_emitted_per_req"
        check(layers["deep_scan"][emitted] >=
              10 * layers["serve_mixed"][emitted],
              "deep_scan emits >= 10x serve_mixed per request")
        for w, values in layers.items():
            for n in ("federate.shard_fetches_per_miss", "em.syncs_per_ack",
                      "em.checkpoints", "epoch.live_epochs_max"):
                nonzero = values[n] != 0
                check(nonzero == (w == "fed_churn"), f"{w} {n} = {values[n]}")
            check("trace.overhead_pct" in values, f"{w} trace.overhead_pct")

    print("ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
