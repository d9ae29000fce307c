"""Spans recorded around calls into the program, and their analysis.

A span is (name, start, end, parent), with `parent` the index of the span
that was open when it began (-1 at the top).  Spans are kept in memory and
handed to the parent process when the repetition ends.  Nothing here imports
the program: `patch_everywhere` replaces a function in every module that
binds it, so a caller that imported the function by name is timed as well
as one that looks it up on its defining module.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    """In-memory span and counter recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent]
        self.counts = defaultdict(float)
        self._open = []

    def begin(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = self.clock()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def count(self, name, amount=1):
        self.counts[name] += amount

    def wrap(self, name, func, on_return=None):
        """`func` with a span around each call; `on_return(args, kwargs, result)`."""
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.end(index)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result
        return traced

    def wrap_generator(self, name, func, on_item=None):
        """Generator function whose every `next()` is a span of its own."""
        @functools.wraps(func)
        def traced(*args, **kwargs):
            inner = func(*args, **kwargs)
            while True:
                index = self.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.end(index)
                if on_item is not None:
                    on_item(item)
                yield item
        return traced


def patch_everywhere(original, replacement, prefix):
    """Rebind `original` to `replacement` in every loaded module under `prefix`.

    Returns the number of bindings replaced.
    """
    replaced = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
    return replaced


# ---------------------------------------------------------------------------
# Analysis (runs in the parent on the recorded spans).
# ---------------------------------------------------------------------------

def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per span: its duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children[i] if e > start and s < end]
        out.append((end - start) - _covered(clipped))
    return out


def layer_of(name):
    return name.split(".", 1)[0]


def span_totals(spans):
    """name -> {"calls", "s" (inclusive), "self_s"}; plus per-layer "s".

    A layer's "s" sums the spans of that layer whose parent belongs to
    another layer, so a layer function calling another one of the same
    layer is not counted twice.
    """
    selfs = self_times(spans)
    by_name = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    by_layer = defaultdict(float)
    for (name, start, end, parent), own in zip(spans, selfs):
        entry = by_name[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += own
        layer = layer_of(name)
        if parent < 0 or layer_of(spans[parent][0]) != layer:
            by_layer[layer] += end - start
    return dict(by_name), dict(by_layer)
