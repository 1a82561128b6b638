"""Span tracing installed from outside the library.

``Tracer.install`` replaces module attributes through which the layers
of ``hesspec`` call each other with timing wrappers.  Each call records
a span (name, start, end, parent, thread, pass).  The parent is the
innermost open span on the calling thread; a call on a pool thread with
nothing open is parented to the innermost span open on the thread that
installed the tracer (the ``compare`` that started the pool).  Spans are
kept in per-thread arrays and only combined once the traced passes end.
"""
from __future__ import annotations

import itertools
import threading
import time
from array import array
from collections import defaultdict

import numpy as np


class _Buffer:
    def __init__(self, thread_no):
        self.thread_no = thread_no
        self.stack = []
        self.ids = array("q")
        self.names = array("i")
        self.parents = array("q")
        self.passes = array("i")
        self.starts = array("d")
        self.ends = array("d")


class Tracer:
    def __init__(self):
        self.pass_no = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers = []
        self._names = []
        self._name_ids = {}
        self._restore = []
        self._counters = defaultdict(lambda: defaultdict(float))
        self._main = self._buffer()

    # -- recording -------------------------------------------------------

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def count(self, key, value=1.0):
        with self._lock:
            self._counters[self.pass_no][key] += value

    def peak(self, key, value):
        with self._lock:
            cur = self._counters[self.pass_no]
            cur[key] = max(cur.get(key, value), value)

    def wrap(self, func, name, observe=None, on_error=None):
        """Wrap func so every call records a span called name.

        observe(result, args) runs after a successful call and
        on_error(exc) after a raising one; both feed counters.
        """
        nid = self._name_id(name)
        main_stack = self._main.stack

        def traced(*args, **kwargs):
            buf = self._buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = main_stack[-1]
                except IndexError:
                    parent = -1
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = func(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                buf.ids.append(sid)
                buf.names.append(nid)
                buf.parents.append(parent)
                buf.passes.append(self.pass_no)
                buf.starts.append(start)
                buf.ends.append(end)
            if observe is not None:
                observe(out, args)
            return out

        traced.__wrapped__ = func
        return traced

    def install(self, owner, attr, name, observe=None, on_error=None):
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, observe, on_error))
        self._restore.append((owner, attr, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def spans(self):
        """All spans as a dict of equal-length numpy arrays."""
        with self._lock:
            bufs = list(self._buffers)
        cols = {"id": [], "name": [], "parent": [], "pass": [], "start": [],
                "end": [], "thread": []}
        for buf in bufs:
            # ends is appended last, so its length counts complete spans
            n = len(buf.ends)
            cols["id"].append(np.array(buf.ids, dtype=np.int64)[:n])
            cols["name"].append(np.array(buf.names, dtype=np.int32)[:n])
            cols["parent"].append(np.array(buf.parents, dtype=np.int64)[:n])
            cols["pass"].append(np.array(buf.passes, dtype=np.int32)[:n])
            cols["start"].append(np.array(buf.starts, dtype=float)[:n])
            cols["end"].append(np.array(buf.ends, dtype=float)[:n])
            cols["thread"].append(np.full(n, buf.thread_no, dtype=np.int32))
        out = {k: np.concatenate(v) if v else np.zeros(0) for k, v in cols.items()}
        out["names"] = np.array(self._names)
        return out

    def counters(self, pass_no):
        with self._lock:
            return dict(self._counters.get(pass_no, {}))

    def save(self, path):
        np.savez(path, **self.spans())


def self_times(ids, parents, starts, ends, threads):
    """Span duration minus the part of it covered by its child spans.

    Children on the parent's own thread run one after another, so their
    clipped durations add up.  Children on other threads (pool trials)
    may overlap each other, so for a parent that has any, the union of
    all its children's clipped intervals is measured instead.
    """
    ids = np.asarray(ids)
    n = len(ids)
    dur = np.asarray(ends) - np.asarray(starts)
    if n == 0:
        return dur
    order = np.argsort(ids)
    pos = np.searchsorted(ids[order], parents)
    pos = np.minimum(pos, n - 1)
    has_parent = ids[order][pos] == np.asarray(parents)
    child = np.flatnonzero(has_parent)
    pidx = order[pos[child]]
    c_start = np.maximum(np.asarray(starts)[child], np.asarray(starts)[pidx])
    c_end = np.minimum(np.asarray(ends)[child], np.asarray(ends)[pidx])
    clipped = np.clip(c_end - c_start, 0.0, None)

    cross = np.asarray(threads)[child] != np.asarray(threads)[pidx]
    mixed = np.zeros(n, dtype=bool)
    mixed[pidx[cross]] = True
    simple = ~mixed[pidx]
    covered = np.bincount(pidx[simple], weights=clipped[simple],
                          minlength=n).astype(float)

    for p in np.flatnonzero(mixed):
        sel = pidx == p
        segs = sorted(zip(c_start[sel], c_end[sel]))
        total, cur_s, cur_e = 0.0, None, None
        for s, e in segs:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    total += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            total += cur_e - cur_s
        covered[p] = total
    return dur - covered
