"""External tracer: wraps public flagtype functions from outside the package.

Each traced function is replaced by a wrapper under every name that binds it
in a loaded ``flagtype.*`` module, so calls from inside the package (for
example ``engine`` calling the ``mat_mul`` it imported from ``linalg``) are
caught too.  A wrapper keeps a stack of open spans; a span's self time is its
duration minus the durations of the traced spans it directly contains.
Spans are aggregated in memory per function into the current bucket:
``[calls, self_s, work]``, where work is a function-specific count.
"""

import sys
import time


def _count(args, out, pre):
    return len(out)


def _points(args, out, pre):
    return len(out[0])


def _grown(args, out, pre):
    return len(out) - pre


# (module, function, work-count name, work function, pre-call hook)
LAYERS = [
    ("flags", "enumerate_chains", "chains", _count, None),
    ("engine", "schreier_descend", None, None, None),
    ("engine", "grow_group", "elements", _grown, lambda a: len(a[0])),
    ("engine", "close_group", None, None, None),
    ("engine", "orbit_with_tree", "points", _points, None),
    ("engine", "subspace_orbit_with_transversal", "points", _points, None),
    ("engine", "census_direct", None, None, None),
    ("engine", "census_product", None, None, None),
    ("engine", "same_orbit", None, None, None),
    ("linalg", "mat_mul", None, None, None),
    ("linalg", "inverse", None, None, None),
    ("linalg", "canonicalize", None, None, None),
    ("linalg", "act_on_subspace", None, None, None),
    ("linalg", "meet", None, None, None),
    ("geometry", "perp", None, None, None),
    ("geometry", "group_generators", None, None, None),
    ("invariants", "b_invariants", None, None, None),
    ("invariants", "theta", None, None, None),
    ("invariants", "x_filtration", None, None, None),
    ("canonical", "normalize_pair", None, None, None),
    ("canonical", "representative", None, None, None),
    ("witnesses", "build", None, None, None),
    ("witnesses", "family_classes", None, None, None),
    ("classifier", "classify", None, None, None),
    ("classifier", "sq_free_cover", None, None, None),
    ("classifier", "matched_conditions", None, None, None),
    ("classifier", "gates_fired", None, None, None),
]


class Tracer:
    def __init__(self):
        self.stack = []
        self.bucket = {}
        self.restore = []

    def _wrap(self, key, orig, work, pre):
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = pre(args) if pre else None
            stack.append(0.0)
            t0 = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                rec = self.bucket.get(key)
                if rec is None:
                    rec = self.bucket[key] = [0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt - inner
            if work:
                rec[2] += work(args, out, state)
            return out

        traced.__wrapped__ = orig
        traced.__name__ = orig.__name__
        return traced

    def install(self):
        """Wrap every function of LAYERS in every flagtype namespace."""
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "flagtype"
                                      or name.startswith("flagtype."))]
        for mod, fn, _, work, pre in LAYERS:
            orig = getattr(sys.modules["flagtype." + mod], fn)
            wrapper = self._wrap("%s.%s" % (mod, fn), orig, work, pre)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self.restore.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self.restore):
            setattr(m, attr, orig)
        self.restore = []

    def swap_bucket(self, bucket):
        """Aggregate into `bucket` from now on."""
        self.bucket = bucket
