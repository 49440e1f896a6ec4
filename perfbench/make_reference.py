"""Record the exact outputs the benchmark checks against.

    python3 perfbench/make_reference.py [--out perfbench/reference.json]

Runs every item that has a reference once and stores its record: census JSON
(orbit counts, sizes, signatures, representatives), Bruhat orbit sizes,
witness class partitions, and the classifier verdict of every triple (one
letter per triple, in ``composition_triples`` order).  The committed file was
recorded from the flagtype source the benchmark was defined on; regenerate it
only when an output is meant to change.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

CODES = {"F": "Finite", "S": "FiniteIffSquareClassesFinite",
         "I": "Infinite", "E": "Empirical"}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=os.path.join(HERE, "reference.json"))
    args = ap.parse_args(argv)
    ref = {}
    for name in ("census", "bruhat", "witness"):
        ref[name] = {item.label: item.record(item.run())
                     for item in workloads.WORKLOADS[name](0)
                     if item.has_reference}
    letter = {v: k for k, v in CODES.items()}
    n = workloads.CLASSIFY_N
    verdicts = "".join(
        letter[workloads._classify_item(n, tri).run().status]
        for tri in workloads.composition_triples(n))
    ref["classify"] = {"n": n, "codes": CODES, "verdicts": verdicts}
    with open(args.out, "w") as fh:
        json.dump(ref, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
