"""In-memory spans and counters for the traced benchmark run.

A `Tracer` installs wrappers from outside the program, on the attribute
where the program looks each name up (a module global or a class
attribute), and `restore` puts every original object back. Spans are kept
in memory as parallel arrays of name, start, end and parent; counters are
plain integers. Self time is a span's duration minus the time covered by
its direct children, so the self times of all spans add up to the traced
wall time. A generator is resumed millions of times, so its resumes are
not kept as spans: their time is summed under the generator's name and
subtracted from the self time of the span that resumed it.
"""

from __future__ import annotations

import functools
import time
from array import array

_DONE = object()


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.span_name = array("I")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self._stack = []
        self._counters = {}
        self._resumed = {}  # generator name -> [seconds]
        self._absorbed = {}  # span id -> seconds spent in resumed generators
        self.patches = []

    # --- spans ---------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name):
        """Start a span under the innermost open span; returns its id."""
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(self.clock())
        return idx

    def close(self, idx):
        """End span `idx` and any span still open inside it."""
        now = self.clock()
        while self._stack:
            top = self._stack.pop()
            self.span_end[top] = now
            if top == idx:
                return
        raise ValueError(f"span {idx} is not open")

    def counter(self, name):
        """A one-element list that wrappers increment in place."""
        return self._counters.setdefault(name, [0])

    def counts(self):
        return {name: cell[0] for name, cell in self._counters.items()}

    def self_times(self):
        """Seconds of self time per span or generator name."""
        own = self_times(self.names, self.span_name, self.span_start,
                         self.span_end, self.span_parent, self._absorbed)
        for name, cell in self._resumed.items():
            own[name] = own.get(name, 0.0) + cell[0]
        return own

    def total_times(self):
        """Seconds per span name, children included."""
        totals = {}
        for idx, name_id in enumerate(self.span_name):
            name = self.names[name_id]
            totals[name] = totals.get(name, 0.0) + (
                self.span_end[idx] - self.span_start[idx])
        return totals

    def span_count(self, name):
        if name not in self._name_ids:
            return 0
        return self.span_name.count(self._name_ids[name])

    # --- wrappers ------------------------------------------------------------

    def patch(self, owner, attr, make):
        """Replace owner.attr by make(original); `restore` undoes it.

        Class attributes are read from the class dictionary, so a
        classmethod is wrapped around its function and restored as the
        same descriptor object.
        """
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self.patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self):
        while self.patches:
            owner, attr, raw = self.patches.pop()
            setattr(owner, attr, raw)

    def span(self, owner, attr, name, after=None):
        """Record a span around each call; after(result, args) may count."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                if after is not None:
                    after(result, args)
                return result
            return wrapper
        self.patch(owner, attr, make)

    def count(self, owner, attr, name, after=None):
        """Count calls only, for methods called millions of times;
        after(result, args) may count more."""
        cell = self.counter(name)

        def make(fn):
            if after is None:
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    cell[0] += 1
                    return fn(*args, **kwargs)
            else:
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    cell[0] += 1
                    result = fn(*args, **kwargs)
                    after(result, args)
                    return result
            return wrapper
        self.patch(owner, attr, make)

    def generator(self, owner, attr, name):
        """Count calls and items of a generator and time its resumes."""
        calls = self.counter(name + "_calls")
        items = self.counter(name + "_yielded")
        resumed = self._resumed.setdefault(name, [0.0])
        clock, stack, absorbed = self.clock, self._stack, self._absorbed

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[0] += 1
                inner = fn(*args, **kwargs)
                while True:
                    start = clock()
                    item = next(inner, _DONE)
                    elapsed = clock() - start
                    resumed[0] += elapsed
                    if stack:
                        absorbed[stack[-1]] = \
                            absorbed.get(stack[-1], 0.0) + elapsed
                    if item is _DONE:
                        return
                    items[0] += 1
                    yield item
            return wrapper
        self.patch(owner, attr, make)


def self_times(names, span_name, span_start, span_end, span_parent,
               absorbed=None):
    """Self time per name: duration minus the direct children's durations
    and minus any time absorbed[span] spent outside spans, in generators."""
    child = array("d", bytes(8 * len(span_start)))
    for idx, seconds in (absorbed or {}).items():
        child[idx] += seconds
    for idx, parent in enumerate(span_parent):
        if parent >= 0:
            child[parent] += span_end[idx] - span_start[idx]
    totals = {}
    for idx, name_id in enumerate(span_name):
        name = names[name_id]
        own = span_end[idx] - span_start[idx] - child[idx]
        totals[name] = totals.get(name, 0.0) + own
    return totals
