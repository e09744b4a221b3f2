"""In-memory tracing for the benchmark's traced run.

Spans and counters are recorded from the benchmark's side: the traced run
replaces module-level names of the program (the functions each layer calls
into the next) with timing wrappers, and restores them afterwards. File-level
calls become spans with name, start, end and parent; per-sentence and
per-token calls only add to a count and a time sum per name. A `gc.callbacks`
hook charges each collection's pause to the innermost open call.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "gc_s", "gc_collections",
                 "findings", "distinct")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.gc_s = 0.0
        self.gc_collections = 0
        self.findings = 0
        self.distinct: set | None = None


class _Frame:
    __slots__ = ("child_s", "gc_s", "gc_collections", "span")

    def __init__(self, span):
        self.child_s = 0.0
        self.gc_s = 0.0
        self.gc_collections = 0
        self.span = span


class Tracer:
    """Collects spans and per-name statistics for one traced pass at a time."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stats: dict[str, Stat] = {}
        self._stack: list[_Frame] = []
        self._gc_start = 0.0
        self._pass = 0

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def begin_pass(self) -> None:
        """Reset the statistics and start charging GC pauses."""
        self.stats = {}
        self._pass += 1
        gc.callbacks.append(self._on_gc)

    def end_pass(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        if self._stack:  # the traced pass itself is the outermost span
            frame = self._stack[-1]
            frame.gc_s += time.perf_counter() - self._gc_start
            frame.gc_collections += 1

    def _open(self, name: str, as_span: bool) -> tuple[_Frame, float]:
        span = None
        if as_span:
            parent = next((f.span for f in reversed(self._stack)
                           if f.span is not None), None)
            span = {"id": len(self.spans), "pass": self._pass, "name": name,
                    "parent": parent["id"] if parent else None}
            self.spans.append(span)
        frame = _Frame(span)
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _close(self, name: str, frame: _Frame, start: float) -> Stat:
        end = time.perf_counter()
        duration = end - start
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += duration
        st = self.stat(name)
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - frame.child_s
        st.gc_s += frame.gc_s
        st.gc_collections += frame.gc_collections
        if frame.span is not None:
            frame.span.update(start=start, end=end,
                              self_s=duration - frame.child_s, gc_s=frame.gc_s)
        return st

    @contextmanager
    def span(self, name: str):
        """Time a block the benchmark itself runs, as a span."""
        frame, start = self._open(name, True)
        try:
            yield
        finally:
            self._close(name, frame, start)

    def wrap(self, name: str, fn, as_span: bool = False,
             findings: bool = False, distinct_arg: bool = False):
        """Return fn wrapped to record its calls under name.

        findings: add len(result) to the name's finding count.
        distinct_arg: remember the distinct values of the first argument.
        """
        def wrapper(*args, **kwargs):
            frame, start = self._open(name, as_span)
            try:
                result = fn(*args, **kwargs)
            finally:
                st = self._close(name, frame, start)
            if findings:
                st.findings += len(result)
            if distinct_arg:
                if st.distinct is None:
                    st.distinct = set()
                st.distinct.add(args[0])
            return result
        return wrapper


class Patches:
    """Module attributes replaced by wrappers, restorable as a unit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def set(self, module, attr: str, make) -> None:
        """Replace module.attr by make(original); note it if absent."""
        if not hasattr(module, attr):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def instrument(tracer: Tracer, mods) -> Patches:
    """Wrap the calls between the program's layers. mods has the modules
    cli, conllu, rules, metadata and tokenizer as attributes."""
    p = Patches()
    w = tracer.wrap
    cli, rules, metadata, tokenizer = mods.cli, mods.rules, mods.metadata, \
        mods.tokenizer
    p.set(cli, "_read_input", lambda f: w("cli.read", f, as_span=True))
    p.set(cli, "lint_sentence", lambda f: w("rules.lint_sentence", f))
    p.set(rules, "validate_structure",
          lambda f: w("conllu.validate_structure", f, findings=True))
    p.set(rules, "SENTENCE_RULES", lambda fns: tuple(
        w(f"rules.{f.__name__}", f, findings=True) for f in fns))
    p.set(cli, "validate_metadata",
          lambda f: w("metadata.validate_metadata", f, findings=True))
    p.set(cli, "check_unique_sent_ids",
          lambda f: w("metadata.check_unique_sent_ids", f, as_span=True,
                      findings=True))
    p.set(metadata, "reconstruct_text",
          lambda f: w("conllu.reconstruct_text", f))
    p.set(cli, "reconstruct_text", lambda f: w("conllu.reconstruct_text", f))
    p.set(cli, "serialize_document",
          lambda f: w("conllu.serialize", f, as_span=True))
    p.set(cli, "default_lexicon",
          lambda f: w("tokenizer.default_lexicon", f, as_span=True))
    p.set(cli, "tokenize_sentence",
          lambda f: w("tokenizer.tokenize_sentence", f))
    p.set(cli, "attach_skeleton_heads",
          lambda f: w("tokenizer.attach_skeleton_heads", f))
    p.set(tokenizer, "segment_token",
          lambda f: w("tokenizer.segment_token", f, distinct_arg=True))
    return p
