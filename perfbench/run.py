"""flagtype benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a flagtype checkout; flagtype is imported from ``src/``.
Each workload runs in its own fresh, single-threaded Python process
(``worker.py``), one process at a time.  With ``--trace 0`` the last stdout
line is a JSON object with the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it holds the per-layer metrics instead.  Every output is
checked; any failed or wrong operation makes ``correct`` false and the exit
code 1.  ``--all`` runs every workload untraced and traced and prints one
table.  Workloads are described in LAYERS.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["census", "bruhat", "witness", "triples", "classify"]
SETUPS = 3            # set-up is timed in this many fresh processes
RUN_LIMIT_S = 170     # the whole run must end within 180 s
UNITS = {"batch_s": "s", "setup_s": "s", "op_p50_ms": "ms",
         "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def _git_sha():
    """The checkout's commit from .git, without running git; else unknown."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _child_env():
    """A fixed hash seed, so set and dict orders, and with them the work an
    operation does, are the same in every worker."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker_cmd(args, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.reference:
        cmd += ["--reference", args.reference]
    if setup_only:
        cmd.append("--setup-only")
    return cmd


def _run_worker(cmd, timeout):
    """Start a worker; return (seconds until its "ready" line, its stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, env=_child_env())
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise RuntimeError("worker exited with code %s" % proc.returncode)
    return ready, rest


def _metadata():
    return {"nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "git_sha": _git_sha(),
            "loadavg_1m": os.getloadavg()[0]}


def run_workload(args):
    start = time.perf_counter()
    meta = _metadata()
    setups = []
    raw_setups = []
    if not args.trace:
        for _ in range(SETUPS):
            before = calib.probe()
            ready = _run_worker(_worker_cmd(args, setup_only=True), 60)[0]
            setups.append(calib.scale_between(ready, before, calib.probe()))
            raw_setups.append(ready)
    left = RUN_LIMIT_S - (time.perf_counter() - start)
    out = _run_worker(_worker_cmd(args), max(left, 1))[1]
    line = out.strip().splitlines()[-1]
    if not line.startswith("RESULT "):
        raise RuntimeError("worker printed no result")
    res = json.loads(line[len("RESULT "):])
    wm = res["metrics"]
    if args.trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)}
                   for k, v in res["layers"].items()}
    else:
        vals = dict(wm, setup_s=statistics.median(setups))
        metrics = {k: {"value": vals[k], "unit": u} for k, u in UNITS.items()}

    print("workload %s  seed %d  seconds %g  trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("meta %s" % json.dumps(meta, sort_keys=True))
    print("ops: %d items, %d timed runs, %d attempted"
          % (wm["items"], res["runs"], res["attempted"]))
    for name, m in metrics.items():
        print("%-48s %14.6g %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        raw = dict(res["raw"], setup_s=statistics.median(raw_setups))
        print("unscaled: %s" % "  ".join(
            "%s %.6g" % (k, raw[k]) for k in UNITS if k in raw))
    print("fail_ratio %d/%d = %.4g" % (res["failed"], res["attempted"],
                                       res["failed"] / res["attempted"]))
    for err in res["errors"]:
        print("FAIL %s" % err)
    ok = res["failed"] == 0
    print(json.dumps({"correct": ok, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if ok else 1


def _layer_unit(name):
    return "s" if name.endswith("_s") else "count"


def run_all(args):
    """Every workload untraced then traced; one summary table."""
    rows = []
    status = 0
    for w in WORKLOADS:
        res = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", w, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  cwd=ROOT, timeout=190)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("\n".join(lines))
                status = 1
            if lines and lines[-1].startswith("{"):
                res[trace] = json.loads(lines[-1])
        rows.append((w, res))
    for w, res in rows:
        print("== %s" % w)
        if 0 in res:
            r = res[0]
            for name, m in r["metrics"].items():
                print("  %-14s %12.6g %s" % (name, m["value"], m["unit"]))
            print("  %-14s %d/%d" % ("fail_ratio", r["failed"],
                                     r["attempted"]))
        if 1 in res:
            lm = {k: m["value"] for k, m in res[1]["metrics"].items()}
            print("  tracing overhead %.3f s (traced pass %.3f s unscaled)"
                  % (lm["trace.overhead_s"], lm["trace.batch_s"]))
            selfs = sorted(((v, k[:-len(".self_s")]) for k, v in lm.items()
                            if k.endswith(".self_s") and v > 0),
                           reverse=True)
            total = sum(v for v, _ in selfs) or 1.0
            for v, k in selfs[:6]:
                print("  %-44s self %8.3f s  %5.1f%% of traced self time"
                      % (k, v, 100 * v / total))
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "flagtype",
                                       "engine.py")):
        print("no flagtype source under %s/src; run from a checkout" % ROOT,
              file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("--workload or --all is required")
    try:
        return run_workload(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("benchmark run failed: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
