"""Spans and counters recorded from outside lidkit, by patching its functions.

``Tracer.install`` replaces each traced function at every binding site in the
loaded ``lidkit`` modules (several modules import functions by name, so
patching only the home module would miss calls) and ``Tracer.restore`` puts
the originals back.  Spans are kept in flat in-memory arrays
(name, start, end, parent) and written out once, at the end of the run.

``AttackTally`` counts attack outcomes at the ``run_attack`` binding that
``prepare_batch`` and ``adaptive_failure_rate`` both call.  It records no span
and is installed in untraced runs as well, where it supplies
``adv_success_ratio``.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict


def _lidkit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lidkit" or name.startswith("lidkit."))]


class _Patches:
    """Replace a function at every lidkit binding site; undo in reverse order."""

    def __init__(self):
        self._done = []

    def replace(self, original, wrapper) -> int:
        sites = 0
        for mod in _lidkit_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._done.append((mod, attr, original))
                    sites += 1
        if sites == 0:
            raise RuntimeError(f"no binding site found for {original.__name__}")
        return sites

    def restore(self) -> None:
        while self._done:
            mod, attr, original = self._done.pop()
            setattr(mod, attr, original)


class AttackTally:
    """Per-kind attack calls, successes, iterations and failure reasons."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.successes = defaultdict(int)
        self.iterations = defaultdict(int)
        self.failed = defaultdict(int)
        self._patches = _Patches()

    def install(self) -> None:
        from lidkit import attacks
        from lidkit.errors import ExhaustedFeaturesError, NoDirectionError

        original = attacks.run_attack

        def run_attack(net, x, label, cfg, *args, **kwargs):
            kind = cfg.kind
            self.calls[kind] += 1
            try:
                out = original(net, x, label, cfg, *args, **kwargs)
            except ExhaustedFeaturesError as err:  # "exhausted feature pairs"
                self.failed[kind] += 1
                self.iterations[kind] += err.iterations
                raise
            except NoDirectionError:  # "zero input gradient"
                self.failed[kind] += 1
                raise
            self.successes[kind] += bool(out.success)
            self.iterations[kind] += out.iterations_used
            return out

        self._patches.replace(original, run_attack)

    def restore(self) -> None:
        self._patches.restore()

    def success_ratio(self) -> float:
        attempted = sum(self.calls.values())
        return sum(self.successes.values()) / attempted if attempted else 0.0


class Tracer:
    """In-memory span recorder.

    ``trace(original, name, tag=None, count=None)`` patches ``original``
    everywhere.  ``tag(*args, **kwargs)`` picks a suffix for the span name
    (the attack kind, say); ``count(*args, **kwargs)`` adds to the counter
    ``<name>.rows``.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.counters = defaultdict(int)
        self._stack = [-1]
        self._patches = _Patches()

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def trace(self, original, name: str, tag=None, count=None) -> None:
        fixed = self._id(name) if tag is None else None
        tagged = {}
        name_id, parent = self.name_id, self.parent
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns
        counters = self.counters
        rows = f"{name}.rows"

        def wrapper(*args, **kwargs):
            nid = fixed
            if nid is None:
                suffix = tag(*args, **kwargs)
                nid = tagged.get(suffix)
                if nid is None:
                    nid = tagged[suffix] = self._id(f"{name}.{suffix}")
            if count is not None:
                counters[rows] += count(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        wrapper.__wrapped__ = original
        self._patches.replace(original, wrapper)

    def restore(self) -> None:
        self._patches.restore()

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, from the span arrays.

        A span's self time is its duration minus the durations of its direct
        children.  Raises if any self time is negative, which would mean
        spans that overlap without nesting.
        """
        import numpy as np

        n_names = len(self.names)
        nid = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = (np.asarray(self.end, dtype=np.int64)
               - np.asarray(self.start, dtype=np.int64))
        nested = parent >= 0
        child_ns = np.bincount(parent[nested], weights=dur[nested],
                               minlength=dur.size)
        self_ns = dur - child_ns
        if np.any(self_ns < 0):
            raise RuntimeError("a span has negative self time")
        calls = np.bincount(nid, minlength=n_names)
        incl = np.bincount(nid, weights=dur, minlength=n_names) / 1e9
        own = np.bincount(nid, weights=self_ns, minlength=n_names) / 1e9
        return {name: {"calls": int(calls[i]), "s": float(incl[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def save(self, path: str, run_id: str) -> None:
        import numpy as np

        np.savez(path, run_id=np.array(run_id), names=np.array(self.names),
                 name_id=np.asarray(self.name_id, dtype=np.int32),
                 parent=np.asarray(self.parent, dtype=np.int64),
                 start_ns=np.asarray(self.start, dtype=np.int64),
                 end_ns=np.asarray(self.end, dtype=np.int64))
