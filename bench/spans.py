"""In-memory span recorder for the traced benchmark run.

Wrappers are installed from outside on the names as bound in the calling
modules (``qii.cli.split_self_intersections``, ``qii.models.eigh``, ...), so
every span sits at a layer boundary and the program itself is unchanged.
A span is ``[name, start, end, parent index, item id]``; spans stay in memory
until the run writes them out at exit.
"""

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = -1
        self.counts = defaultdict(int)
        self._undo = []

    def span(self, name, fn, parts=None):
        """fn wrapped in a span; parts(result, args) is added to the name's parts count."""
        perf = time.perf_counter

        def traced(*args, **kwargs):
            spans, stack = self.spans, self.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                rec[2] = perf()
                stack.pop()
            if parts is not None:
                self.counts[name + ".parts"] += parts(out, args)
            return out

        return traced

    def patch(self, module, attr, name, parts=None):
        orig = getattr(module, attr)
        setattr(module, attr, self.span(name, orig, parts))
        self._undo.append((module, attr, orig))

    def restore(self):
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(int)
        self.stack.clear()
        return spans, counts


def totals(spans):
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus that of its direct children; spans of
    one thread never overlap, so the children's durations add.  A span inside
    another of the same name adds no inclusive time, so nothing counts twice.
    """
    calls = defaultdict(int)
    incl = defaultdict(float)
    child = defaultdict(float)
    for name, start, end, parent, _ in spans:
        calls[name] += 1
        up = parent
        while up >= 0 and spans[up][0] != name:
            up = spans[up][3]
        if up < 0:
            incl[name] += end - start
        if parent >= 0:
            child[spans[parent][0]] += end - start
    return {name: {"calls": calls[name], "s": incl[name],
                   "self_s": incl[name] - child[name]} for name in calls}


def write_spans(path, groups, extra):
    """Write {group: spans} compactly, span names replaced by indices."""
    names = sorted({s[0] for spans in groups.values() for s in spans})
    index = {n: i for i, n in enumerate(names)}
    doc = dict(extra, names=names, spans={
        group: [[index[n], a, b, p, i] for n, a, b, p, i in spans]
        for group, spans in groups.items()})
    path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
