"""Spans around calls into the program's layers, recorded from outside.

``Tracer.install`` replaces each target function by a wrapper in every
``wro`` module namespace that holds it (the defining module and every
module that imported the name), so calls are caught however they are
looked up.  Spans (name, start, end, parent, job) and counts stay in
memory; ``summary`` computes self time as a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from time import perf_counter

CHECK_FUNCS = {
    "_check_consistency": "report-consistency",
    "_check_radius_routes": "radius-routes",
    "_check_diagonal": "diagonal-candidates",
    "_check_smoothing": "smoothing-identity",
    "_check_rank": "truncation-rank",
    "_check_gap_trend": "pseudospectrum-trend",
    "_check_residual_decay": "residual-decay",
    "_check_norm_ladder": "norm-ladder",
}


def _count_refined(counts, args, kwargs, result):
    # the membership scan doubles its grid exactly when the first grid
    # certifies nothing, and only the first grid can answer certified_in
    counts["ergodic.ap_membership.refined"] += result.verdict != "certified_in"


def _count_items(counts, args, kwargs, result):
    counts["ergodic.ordered_parallel_map.items"] += len(result)


def _count_points(counts, args, kwargs, result):
    counts["oracle.pseudospectrum_scan.points"] += int(result.points.size)


#: (module, function, span name, post hook)
TARGETS = (
    [("wro.cli", "load_job", "cli.load_job", None),
     ("wro.cli", "spectrum_payload", "cli.serialize", None),
     ("wro.cli", "_dump_json", "cli.serialize", None)]
    + [("wro.cli", "cmd_" + c, "cli.cmd_" + c, None) for c in ("classify", "verify", "scan", "plot", "radius")]
    + [("wro.cli", f, "cli.check." + n, None) for f, n in CHECK_FUNCS.items()]
    + [("wro.analysis", f, "analysis." + f, None)
       for f in ("find_zeros", "geometric_mean", "factorization_summary", "invertibility_profile")]
    + [("wro.classify", "classify", "classify.classify", None),
       ("wro.classify", "report_consistency", "classify.report_consistency", None),
       ("wro.ergodic", "ap_membership", "ergodic.ap_membership", _count_refined),
       ("wro.ergodic", "group_rotation_radius", "ergodic.group_rotation_radius", None),
       ("wro.ergodic", "ordered_parallel_map", "ergodic.ordered_parallel_map", _count_items),
       ("wro.oracle", "pseudospectrum_scan", "oracle.pseudospectrum_scan", _count_points)]
    + [("wro.oracle", f, "oracle." + f, None)
       for f in ("build_truncation", "truncation_rank", "check_smoothing_identity",
                 "singular_sequence_residual", "bloch_norm", "norm_asymptotics")]
)


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, job id]
        self.counts = defaultdict(int)
        self.job = None
        self._local = threading.local()
        self._patched = []   # (module, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, post=None):
        spans, counts, stack_of = self.spans, self.counts, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if post is not None:
                post(counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "wro" or k.startswith("wro.")]
        for modname, attr, span, post in TARGETS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(span, orig, post)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, orig))

    def uninstall(self):
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def inclusive_under(self, name, ancestor):
        """Total seconds of ``name`` spans that run inside an ``ancestor`` span."""
        total = 0.0
        for span, start, end, parent, _ in self.spans:
            if span != name:
                continue
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent >= 0:
                total += end - start
        return total

    def summary(self):
        """{name: (calls, inclusive seconds, self seconds)}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, incl, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, incl + (end - start), own + (end - start - child[i]))
        return out
