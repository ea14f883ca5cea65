"""Span recording, layer wrappers and the self-time arithmetic.

A traced benchmark process installs wrappers around each layer's
public functions (see ``perfbench.layers.LAYERS``) before it makes the
same calls an untraced run makes.  Every wrapped call records one span
— name, start, end and parent span — in memory; the spans are written
out as one ``.npz`` file when the process ends, and the benchmark turns
them into per-layer self times with :func:`self_times`.

Nothing here edits the program under test: wrappers replace module and
class attributes at run time, and names imported with
``from x import f`` are wrapped in every consumer module that bound
them (:func:`wrap_function`).
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Marks a span with no parent (a top-level span of its thread).
NO_PARENT = -1


class SpanRecorder:
    """Thread-safe in-memory span and counter store.

    Each thread keeps its own stack of open spans, so a span opened in
    an executor thread is parented to the span open *in that thread*,
    never to whatever the event-loop thread happens to be doing.  Span
    ids come from one locked counter, which makes ids unique across
    threads; finished spans are appended under the same lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._names: Dict[str, int] = {}
        self._rows: List[Tuple[int, int, float, float, int]] = []
        self.counters: Dict[str, float] = {}

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> Tuple[int, int]:
        """Open a span in this thread: returns ``(span_id, parent_id)``."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent = stack[-1] if stack else NO_PARENT
        stack.append(span_id)
        return span_id, parent

    def end(self, name: str, span_id: int, parent: int, start: float,
            stop: float) -> None:
        """Close this thread's innermost span and store it."""
        self._stack().pop()
        with self._lock:
            code = self._names.setdefault(name, len(self._names))
            self._rows.append((span_id, code, start, stop, parent))

    def add_span(self, name: str, start: float, stop: float) -> None:
        """Record a span timed by hand (e.g. interpreter start to import)."""
        span_id, parent = self.begin()
        self.end(name, span_id, parent, start, stop)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def arrays(self) -> Dict[str, np.ndarray]:
        """The spans as parallel arrays (the form :func:`self_times` takes)."""
        with self._lock:
            rows = list(self._rows)
            names = sorted(self._names, key=self._names.__getitem__)
        table = np.array(rows, dtype=float).reshape(len(rows), 5)
        return {
            "span_id": table[:, 0].astype(np.int64),
            "name": table[:, 1].astype(np.int64),
            "start": table[:, 2],
            "end": table[:, 3],
            "parent": table[:, 4].astype(np.int64),
            "names": np.array(names, dtype=str),
        }

    def dump(self, path: str, **values: float) -> None:
        """Write spans, counters and extra scalar values to ``path``."""
        arrays = self.arrays()
        meta = dict(self.counters)
        meta.update(values)
        np.savez(path, meta_keys=np.array(sorted(meta), dtype=str),
                 meta_values=np.array([float(meta[k]) for k in sorted(meta)]),
                 **arrays)


def load_dump(path: str) -> Tuple[Dict[str, np.ndarray], Dict[str, float]]:
    """Read a :meth:`SpanRecorder.dump` file: ``(span arrays, values)``."""
    with np.load(path) as data:
        arrays = {key: data[key] for key in
                  ("span_id", "name", "start", "end", "parent", "names")}
        values = {str(k): float(v) for k, v in
                  zip(data["meta_keys"], data["meta_values"])}
    return arrays, values


# -- self-time arithmetic -----------------------------------------------------

def self_times(span_id: np.ndarray, name: np.ndarray, start: np.ndarray,
               end: np.ndarray, parent: np.ndarray,
               names: Sequence[str]) -> Dict[str, float]:
    """Per-name self time: each span's duration minus its children's.

    Children of one span run in the parent's own thread and nest inside
    it, so they never overlap one another and their durations sum to
    the part of the parent's interval they cover.
    """
    duration = end - start
    self_time = duration.copy()
    if len(span_id):
        order = np.argsort(span_id)
        sorted_ids = span_id[order]
        at = np.minimum(np.searchsorted(sorted_ids, parent), len(order) - 1)
        # A parent still open when the spans were dumped is not in the
        # table; its children are then simply top-level.
        known = (parent != NO_PARENT) & (sorted_ids[at] == parent)
        np.subtract.at(self_time, order[at[known]], duration[known])
    sums = np.bincount(name, weights=self_time, minlength=len(names))
    return {str(label): float(sums[code]) for code, label in enumerate(names)}


def coverage(self_seconds: Dict[str, float], wall_s: float,
             unattributed: Iterable[str]) -> float:
    """Share of a process's wall time that named layers account for.

    ``unattributed`` names the root spans whose *self* time is glue
    between layers (a shard entry point, the CLI entry point); their self
    time does not count as covered.
    """
    skip = set(unattributed)
    covered = sum(seconds for label, seconds in self_seconds.items()
                  if label not in skip)
    return covered / wall_s if wall_s > 0 else 0.0


def wrapper_cost_s(calls: int = 20000) -> float:
    """Seconds one span wrapper adds to a call, measured on a no-op."""
    def noop():
        return None
    wrapped = _span_wrapper(SpanRecorder(), "noop", noop, None)
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        noop()
    bare = clock() - start
    start = clock()
    for _ in range(calls):
        wrapped()
    return max(0.0, (clock() - start - bare) / calls)


# -- wrappers -----------------------------------------------------------------

#: ``hook(args, kwargs, result, start, stop)`` runs after a wrapped call.
Hook = Callable[[tuple, dict, object, float, float], None]


def _span_wrapper(recorder: SpanRecorder, name: str, func: Callable,
                  hook: Optional[Hook]) -> Callable:
    clock = time.perf_counter

    if inspect.isgeneratorfunction(func):
        # A generator's work happens in each next(), not in the call:
        # time every resumption as its own span.
        @functools.wraps(func)
        def generator_wrapper(*args, **kwargs):
            inner = func(*args, **kwargs)
            while True:
                span_id, parent = recorder.begin()
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    recorder.end(name, span_id, parent, start, clock())
                    return
                except BaseException:
                    recorder.end(name, span_id, parent, start, clock())
                    raise
                stop = clock()
                recorder.end(name, span_id, parent, start, stop)
                if hook is not None:
                    hook(args, kwargs, item, start, stop)
                yield item
        generator_wrapper.__wrapped_span__ = func
        return generator_wrapper

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span_id, parent = recorder.begin()
        start = clock()
        try:
            result = func(*args, **kwargs)
        finally:
            stop = clock()
            recorder.end(name, span_id, parent, start, stop)
        if hook is not None:
            hook(args, kwargs, result, start, stop)
        return result
    wrapper.__wrapped_span__ = func
    return wrapper


def wrap_function(recorder: SpanRecorder, module_name: str, attr: str,
                  name: str, hook: Optional[Hook] = None,
                  prefix: str = "repro") -> int:
    """Wrap a module-level function wherever it is bound.

    The defining module's attribute is replaced, and so is every
    attribute of an already-imported ``prefix*`` module that holds the
    same function object — the consumer sites of ``from x import f``,
    which a patch of the defining module alone would miss.  Returns the
    number of bindings replaced.
    """
    original = getattr(sys.modules[module_name], attr)
    wrapped = _span_wrapper(recorder, name, original, hook)
    replaced = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith(prefix):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)
                replaced += 1
    return replaced


def wrap_method(recorder: SpanRecorder, module_name: str, qualname: str,
                name: str, hook: Optional[Hook] = None) -> None:
    """Wrap ``Class.method`` of ``module_name`` on the class itself."""
    class_name, method_name = qualname.split(".")
    owner = getattr(sys.modules[module_name], class_name)
    original = owner.__dict__[method_name]
    setattr(owner, method_name,
            _span_wrapper(recorder, name, original, hook))
