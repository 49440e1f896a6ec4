"""Self-tests of the benchmark, at a tiny size (about a minute).

    python3 perfbench/selftest.py

Checks that
  * every metric of BENCHMARK.json is printed, by name and unit;
  * a corrupted reference entry gives failed > 0, correct false, exit 1;
  * the per-layer self times sum to at most the traced time;
  * a second seed passes the structural checks (triples, witness).
Exits 1 if any check fails.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

FAILURES = []


def expect(ok, what):
    print("%s %s" % ("PASS" if ok else "FAIL", what), flush=True)
    if not ok:
        FAILURES.append(what)


def bench(workload, seed, trace, reference=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace)]
    if reference:
        cmd += ["--reference", reference]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=180)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def spec_units(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def units(result):
    return {k: m["unit"] for k, m in result["metrics"].items()}


def self_time_bound(result, label):
    m = {k: v["value"] for k, v in result["metrics"].items()}
    self_sum = sum(v for k, v in m.items()
                   if k.endswith(".self_s") and not k.startswith("trace."))
    traced = m["trace.batch_s"] + m["trace.setup_s"]
    expect(self_sum <= traced,
           "%s: per-layer self times %.4f s <= traced time %.4f s"
           % (label, self_sum, traced))


def main():
    code, res = bench("bruhat", 3, 0)
    expect(code == 0 and res["correct"] and res["failed"] == 0,
           "bruhat passes its checks")
    expect(units(res) == spec_units("end_to_end"),
           "every end-to-end metric is printed with its unit")
    expect(all(m["value"] > 0 for m in res["metrics"].values()),
           "end-to-end metrics are positive")

    code, res = bench("bruhat", 3, 1)
    expect(code == 0 and res["correct"], "traced bruhat passes its checks")
    expect(units(res) == spec_units("per_layer"),
           "every per-layer metric is printed with its unit")
    self_time_bound(res, "bruhat")

    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    ref["bruhat"]["bruhat n=2 q=3"]["P"] = [1, 2, 5]
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        path = os.path.join(tmp, "reference.json")
        with open(path, "w") as fh:
            json.dump(ref, fh)
        code, res = bench("bruhat", 3, 0, reference=path)
    expect(code == 1 and not res["correct"] and res["failed"] > 0,
           "a corrupted reference entry fails the run (exit %d, %d/%d failed)"
           % (code, res["failed"], res["attempted"]))

    code, res = bench("triples", 2, 1)
    expect(code == 0 and res["correct"], "traced triples passes its checks")
    self_time_bound(res, "triples")
    for workload in ("triples", "witness"):
        for seed in (101, 202):
            code, res = bench(workload, seed, 0)
            expect(code == 0 and res["correct"],
                   "%s seed %d passes the structural checks"
                   % (workload, seed))
    if FAILURES:
        print("%d self-test(s) failed" % len(FAILURES))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
