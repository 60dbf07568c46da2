"""In-memory spans around calls into the program, recorded from outside it.

A target is a place where a calling module looks a function up: a module or
class attribute, or a dict entry. Installing a `Recorder` replaces each
target with a wrapper that records one span per call (name, start, end,
parent span) and restores the originals on exit. The program's source is not
touched. Spans stay in memory until `write_csv` dumps them.

Span names are `<layer>.<qualified name>`, where the layer is the module that
defines the function, so a function reached through several lookups (such as
`predict_dataset` from `cli` and from `inference`) is one name.
"""

from __future__ import annotations

import contextlib
import csv
import functools
from time import perf_counter

import numpy as np


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Recorder:
    """Spans of one traced interval, in call order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.kept: dict[str, list] = {}
        self._open: list[int] = []

    def wrap(self, fn, keep=None):
        """Wrapper that records a span per call; `keep(args, result)`, if
        given, picks what to remember of each call for later analysis."""
        name = span_name(fn)
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._open
        )
        kept = self.kept.setdefault(name, []) if keep is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if kept is not None:
                kept.append((idx, keep(args, result)))
            return result

        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, durations.

        Self time is a span's duration minus the durations of its direct
        children; calls are sequential, so children never overlap.
        """
        if not self.names:
            return {}
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        own = dur - child
        names = np.asarray(self.names)
        out = {}
        for name in np.unique(names):
            sel = names == name
            out[str(name)] = {
                "calls": int(sel.sum()),
                "incl_s": float(dur[sel].sum()),
                "self_s": float(own[sel].sum()),
                "durations": dur[sel],
            }
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("span", "name", "start", "end", "parent"))
            for i, name in enumerate(self.names):
                writer.writerow(
                    (i, name, repr(self.starts[i]), repr(self.ends[i]), self.parents[i])
                )


@contextlib.contextmanager
def installed(targets):
    """Trace every target for the duration of the block; yields the Recorder.

    Each target is `(owner, key, keep)`: `owner` is a module, class or dict
    and `key` the attribute or entry the caller looks up.
    """
    rec = Recorder()
    saved = []
    try:
        for owner, key, keep in targets:
            if isinstance(owner, dict):
                saved.append((owner, key, owner[key]))
                owner[key] = rec.wrap(owner[key], keep)
            else:
                original = owner.__dict__[key]
                saved.append((owner, key, original))
                setattr(owner, key, rec.wrap(original, keep))
        yield rec
    finally:
        for owner, key, original in reversed(saved):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
