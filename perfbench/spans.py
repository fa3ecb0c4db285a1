"""Spans recorded around calls into the program's public functions.

The traced run installs wrappers (see :func:`patched`) that record one
span per call: name, start, end and the index of the enclosing span.  A
generator function (``NewMadeleine.isend``/``irecv``/``wait``) runs in
pieces, one per resume by the scheduler, so it records one span per
resume; their sum is the host time spent inside the call.  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter_ns
from typing import Any, Callable, Iterator, Sequence

#: one span: [name, start_ns, end_ns, parent index or -1]
Span = list


class Recorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf_counter_ns(), 0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span[2] = perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def resumes(self, name: str, gen) -> Any:
        """Drive ``gen`` on behalf of its caller, one span per resume."""
        value: Any = None
        error: BaseException | None = None
        while True:
            span = self._open(name)
            try:
                effect = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self._close(span)
            try:
                value, error = (yield effect), None
            except BaseException as exc:  # forwarded into the generator
                value, error = None, exc

    def wrap(self, name: str, fn: Callable, *, generator: bool = False) -> Callable:
        if generator:

            @functools.wraps(fn)
            def traced_gen(*args: Any, **kwargs: Any):
                return self.resumes(name, fn(*args, **kwargs))

            return traced_gen

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, **kwargs)

        return traced

    def of(self, name: str) -> list[Span]:
        return [span for span in self.spans if span[0] == name]


def duration_ns(span: Span) -> int:
    return span[2] - span[1]


def self_times(spans: Sequence[Span]) -> list[int]:
    """Each span's duration minus the part its direct children cover.

    Children of one span ran one after another in one thread, so their
    intervals never overlap and the covered part is their summed length.
    """
    out = [duration_ns(span) for span in spans]
    for span in spans:
        if span[3] >= 0:
            out[span[3]] -= duration_ns(span)
    return out


def self_time_by_name(spans: Sequence[Span]) -> dict[str, int]:
    totals: dict[str, int] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0) + own
    return totals


@contextlib.contextmanager
def patched(
    recorder: Recorder, targets: Sequence[tuple[object, str, str, bool]]
) -> Iterator[Recorder]:
    """Install span wrappers for the block: each target is
    ``(owner, attribute, span name, is_generator)``; the owner is a module
    or a class.  The originals are restored on exit."""
    saved = []
    try:
        for owner, attr, name, generator in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, generator=generator))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
