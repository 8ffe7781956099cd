#!/usr/bin/env python3
"""Tiny-scale self-check of the benchmark. It sets no timing bounds.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json on a small table, with and without
tracing, and checks that:
- the last line of output is the result object with exactly the keys
  correct, attempted, failed and metrics, and correct is true;
- every metric BENCHMARK.json names for that mode is printed, with its unit;
- the run record shows that the oracle and property checks ran;
- a traced run wrote its spans;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits with an error and prints no result.
Exits 0 when all hold.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ROWS = 4000
SEED = 1

problems = []


def check(ok, what):
    if not ok:
        problems.append(what)
        print(f"FAIL {what}", flush=True)


def run(workload, trace, cwd=ROOT, rows=ROWS):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--rows", str(rows)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=900)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for w in bench["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            tag = f"{name} trace={trace}"
            proc = run(name, trace)
            check(proc.returncode == 0, f"{tag}: exit code {proc.returncode}: {proc.stderr.decode()[-2000:]}")
            if proc.returncode != 0:
                continue
            res = json.loads(proc.stdout.decode().strip().splitlines()[-1])
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"], f"{tag}: result keys {sorted(res)}")
            check(res["correct"] is True, f"{tag}: correct is {res['correct']}")
            check(isinstance(res["attempted"], int) and res["attempted"] >= 1, f"{tag}: attempted {res['attempted']}")
            check(isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"], f"{tag}: failed {res['failed']}")
            for m in wanted:
                got = res["metrics"].get(m["name"])
                check(got is not None, f"{tag}: metric {m['name']} missing")
                if got is not None:
                    check(got.get("unit") == m["unit"], f"{tag}: {m['name']} unit {got.get('unit')} != {m['unit']}")
                    check(isinstance(got.get("value"), (int, float)), f"{tag}: {m['name']} value {got.get('value')}")
            extra = set(res["metrics"]) - {m["name"] for m in wanted}
            check(not extra, f"{tag}: metrics not in BENCHMARK.json: {sorted(extra)}")
            record_path = os.path.join(HERE, "out", f"run-{name}-seed{SEED}-trace{trace}.json")
            with open(record_path) as fh:
                record = json.load(fh)
            check(record["setup_checks_ok"] is True, f"{tag}: set-up checks failed")
            check(record["keys_checked"] > 0, f"{tag}: no lookup result was checked against the oracle")
            check(record["property_checks"] > 0, f"{tag}: no property check ran")
            if trace:
                spans = os.path.join(HERE, "out", f"spans-{name}-seed{SEED}-trace1.jsonl")
                check(os.path.isfile(spans) and os.path.getsize(spans) > 0, f"{tag}: no spans written")
            print(f"ok   {tag}: {res['attempted']} operations, {res['failed']} failed", flush=True)

    # Without the program's sources the benchmark must fail and print no result.
    bare = os.path.join(HERE, ".work", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("target", ".work", "out"))
    proc = run(bench["workloads"][0]["name"], 0, cwd=bare)
    check(proc.returncode != 0, "bare directory: exit code 0")
    check(not proc.stdout.strip(), "bare directory: printed a result")
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode != 0:
        print("ok   bare directory: refused", flush=True)

    print(f"\n{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
