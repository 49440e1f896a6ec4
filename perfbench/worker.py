"""One workload in one fresh process: set up, print "ready", then measure.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --trace 0|1 [--setup-only] [--reference PATH]

``run.py`` starts this; it is not meant to be called by hand.  Set-up is the
interpreter start, the imports, generator sets and input generation; ``run.py``
times it from outside, up to the "ready" line.  The measured loop then runs
every item once, and repeats the items, in order, while the next one still
fits in ``--seconds``.  The last stdout line is ``RESULT <json>``.

With ``--trace 1`` the tracer is installed before set-up; passes alternate
between traced and untraced, so the run also gives the tracing overhead.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import tracer as _tracer  # noqa: E402
import workloads  # noqa: E402

MAX_ERRORS = 20


def load_reference(path, workload):
    with open(path) as fh:
        ref = json.load(fh)
    if workload == "classify":
        codes = ref["classify"]["codes"]
        verdicts = ref["classify"]["verdicts"]
        tris = workloads.composition_triples(workloads.CLASSIFY_N)
        if len(tris) != len(verdicts):
            raise ValueError("classify reference has %d verdicts for %d "
                             "triples" % (len(verdicts), len(tris)))
        return {workloads.triple_label(workloads.CLASSIFY_N, t): codes[v]
                for t, v in zip(tris, verdicts)}
    return ref.get(workload, {})


class Loop:
    """Runs items, times them, and checks every output.

    Each repetition is stored as (start, seconds); the speed samples taken
    meanwhile give its time at reference speed.
    """

    def __init__(self, items, reference, tracer):
        self.items = items
        self.reference = reference
        self.tracer = tracer
        self.first = [None] * len(items)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reps = {False: [[] for _ in items], True: [[] for _ in items]}
        self.buckets = [{} for _ in items]
        self.sampler = calib.Sampler()

    def fail(self, msgs):
        self.failed += 1
        self.errors.extend(msgs[:MAX_ERRORS - len(self.errors)])

    def run_one(self, i, traced):
        item = self.items[i]
        gc.collect()  # cheap after gc.freeze(); each item starts clean
        if traced:
            self.tracer.swap_bucket(self.buckets[i])
        t0 = time.perf_counter()
        try:
            out = item.run()
        except Exception as exc:  # a failing operation is a measured outcome
            out, err = None, "%s: %s: %s" % (item.label,
                                            type(exc).__name__, exc)
        else:
            err = None
        dt = time.perf_counter() - t0
        if traced:
            self.tracer.swap_bucket({})
        self.attempted += 1
        if err is not None:
            self.fail([err])
            return dt
        self.reps[traced][i].append((t0, dt))
        rec = item.record(out)
        if self.first[i] is None:
            self.first[i] = rec
            errs = item.check(out, rec)
            if item.has_reference:
                want = self.reference.get(item.label)
                if want is None:
                    errs.append("%s: no reference entry" % item.label)
                elif json.loads(json.dumps(rec)) != want:
                    errs.append("%s: output differs from the reference"
                                % item.label)
        elif rec != self.first[i]:
            errs = ["%s: output differs between repetitions" % item.label]
        else:
            errs = []
        if errs:
            self.fail(errs)
        return dt

    def run(self, seconds, trace):
        with self.sampler:
            self._passes(seconds, trace)

    def _passes(self, seconds, trace):
        """One mandatory pass (two when tracing), then passes until time."""
        deadline = time.perf_counter() + seconds
        modes = [True, False] if trace else [False]
        last = [0.0] * len(self.items)
        for traced in modes:
            self.set_traced(traced)
            for i in range(len(self.items)):
                last[i] = self.run_one(i, traced)
        k = 0
        while True:
            traced = modes[k % len(modes)]
            self.set_traced(traced)
            for i in range(len(self.items)):
                if time.perf_counter() + last[i] > deadline:
                    self.set_traced(False)
                    return
                last[i] = self.run_one(i, traced)
            k += 1

    def set_traced(self, on):
        if self.tracer is None:
            return
        if on and not self.tracer.restore:
            self.tracer.install()
        elif not on and self.tracer.restore:
            self.tracer.uninstall()

    def times(self, traced, scaled):
        """Per item, its repetitions in seconds (at reference speed)."""
        if not scaled:
            return [[dt for _, dt in reps] for reps in self.reps[traced]]
        return [[self.sampler.scale(t0, dt) for t0, dt in reps]
                for reps in self.reps[traced]]


def latency_metrics(times):
    """batch_s and per-operation percentiles over per-item medians."""
    med = [statistics.median(t) for t in times if t]
    cuts = statistics.quantiles(med, n=100, method="inclusive") \
        if len(med) > 1 else [med[0]] * 99
    return {"batch_s": sum(med),
            "op_p50_ms": statistics.median(med) * 1e3,
            "op_p90_ms": cuts[89] * 1e3,
            "items": len(med)}


def layer_metrics(loop, setup_bucket, setup_s):
    """Per-layer totals for set-up plus one pass over the items (raw)."""
    traced = loop.times(True, scaled=False)
    total = {k: list(v) for k, v in setup_bucket.items()}
    for bucket, runs in zip(loop.buckets, traced):
        for key, rec in bucket.items():
            acc = total.setdefault(key, [0, 0.0, 0])
            for j in range(3):
                acc[j] += rec[j] / len(runs)
    out = {}
    for mod, fn, work, _, _ in _tracer.LAYERS:
        key = "%s.%s" % (mod, fn)
        calls, self_s, count = total.get(key, [0, 0.0, 0])
        out[key + ".calls"] = round(calls, 3)
        out[key + ".self_s"] = self_s
        if work:
            out["%s.%s" % (key, work)] = round(count, 3)
    out["trace.setup_s"] = setup_s
    # the mean, like the per-layer figures, so that their sum stays below it
    out["trace.batch_s"] = sum(statistics.fmean(t) for t in traced if t)
    out["trace.overhead_s"] = (
        latency_metrics(loop.times(True, scaled=True))["batch_s"]
        - latency_metrics(loop.times(False, scaled=True))["batch_s"])
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--reference", default=os.path.join(HERE,
                                                        "reference.json"))
    args = ap.parse_args(argv)

    tr = None
    setup_bucket = {}
    if args.trace:
        tr = _tracer.Tracer()
        tr.install()
        tr.swap_bucket(setup_bucket)
    t0 = time.perf_counter()
    reference = load_reference(args.reference, args.workload)
    items = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - t0
    if tr is not None:
        tr.uninstall()
        tr.swap_bucket({})
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # Set-up objects stay alive for the whole run; frozen, they are not
    # scanned by the collections made before each item.
    gc.collect()
    gc.freeze()
    loop = Loop(items, reference, tr)
    loop.run(args.seconds, args.trace)
    result = {"attempted": loop.attempted, "failed": loop.failed,
              "errors": loop.errors,
              "runs": sum(map(len, loop.reps[False])),
              "metrics": latency_metrics(loop.times(False, scaled=True)),
              "raw": latency_metrics(loop.times(False, scaled=False))}
    result["metrics"]["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        result["layers"] = layer_metrics(loop, setup_bucket, setup_s)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
