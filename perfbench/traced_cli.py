"""Run one ``rectfree`` CLI command with spans around the calls it makes.

Usage::

    python3 perfbench/traced_cli.py TRACE.json CLI-ARGS...

The script imports ``rectfree.cli``, wraps the functions and methods the
CLI calls (listed in ``TARGETS``), runs ``rectfree.cli.main(argv)`` and
exits with its code.  No file of the package changes: the wrappers live
only in this process.  When the process ends it writes TRACE.json::

    {"import_ns": ..., "missing": [names not found],
     "spans": [{"id", "name", "start", "end", "parent", ...}],
     "counters": [{"name", "parent", "calls", "ns"}]}

Calls made once per command become spans.  Calls made once per row
(``TALLIES``) would cost a record per row, so they are summed per parent
span instead: call count and total nanoseconds.  ``detect_period`` spans
also carry the row callback's count, first and last timestamps and its
own time, from which the benchmark splits detection into before, during
and after the rows.  A name that no longer exists is listed under
``missing`` and left unwrapped, as is a ``detect_period`` that takes no
``on_row`` callback.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter_ns as now

# (module, dotted attribute) of every wrapped callable, by kind.
TARGETS = [
    ("rectfree.cli", "detect_period"),
    ("rectfree.cli", "load_checkpoint"),
    ("rectfree.cli", "save_checkpoint"),
    ("rectfree.cli", "RowLog.__init__"),
    ("rectfree.cli", "regenerate_rows"),
    ("rectfree.cli", "fold"),
    ("rectfree.cli", "compact_plane"),
    ("rectfree.cli", "parse_matrix_text"),
    ("rectfree.matrix", "IncidenceMatrix.to_p1"),
    ("rectfree.matrix", "IncidenceMatrix.to_sparse_text"),
    ("rectfree.cli", "verify_configuration"),
    ("rectfree.cli", "is_projective_plane"),
    ("rectfree.cli", "reference_plane"),
    ("rectfree.cli", "automorphism_count"),
    ("rectfree.cli", "isomorphic"),
]
TALLIES = [
    ("rectfree.generator", "GeneratorState.next_row"),
    ("rectfree.cli", "chain_row_hash"),
    ("rectfree.cli", "RowLog.append"),
]


class Tracer:
    """In-memory spans and per-parent tallies for one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.tallies: dict[tuple[str, int | None], list[int]] = {}
        self.missing: list[str] = []

    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "start": now(),
                "end": None,
                "parent": self.stack[-1] if self.stack else None}
        self.spans.append(span)
        self.stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = now()
        self.stack.pop()

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if name == "regenerate_rows":
                span["rows"] = len(result)
            return result
        return wrapper

    def tally(self, name: str, fn):
        tallies = self.tallies
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                key = (name, stack[-1] if stack else None)
                entry = tallies.get(key)
                if entry is None:
                    entry = tallies[key] = [0, 0]
                entry[0] += 1
                entry[1] += now() - t0
        return wrapper

    def detect_period(self, fn):
        """Span for ``detect_period`` that also times its row callback.

        ``cmd_fold`` passes no callback; a counting one is supplied so
        that rows and the pre/post-row split are measured there too.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open("detect_period")
            span.update(rows=0, first_row=None, last_row=None, callback_ns=0)
            inner = kwargs.get("on_row")

            def on_row(k, ones):
                t0 = now()
                if span["first_row"] is None:
                    span["first_row"] = t0
                if inner is not None:
                    inner(k, ones)
                t1 = now()
                span["rows"] += 1
                span["callback_ns"] += t1 - t0
                span["last_row"] = t1

            kwargs["on_row"] = on_row
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return wrapper

    def install(self, targets, kind: str) -> None:
        for module_name, dotted in targets:
            *path, attr = dotted.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(dotted)
                continue
            if dotted == "detect_period" and \
                    "on_row" not in inspect.signature(fn).parameters:
                self.missing.append(dotted)  # rows cannot be observed
                continue
            if kind == "tally":
                wrapped = self.tally(dotted, fn)
            elif dotted == "detect_period":
                wrapped = self.detect_period(fn)
            else:
                wrapped = self.span(dotted, fn)
            setattr(owner, attr, wrapped)

    def record(self, import_ns: int) -> dict:
        return {
            "import_ns": import_ns,
            "missing": self.missing,
            "spans": self.spans,
            "counters": [{"name": name, "parent": parent, "calls": calls,
                          "ns": ns}
                         for (name, parent), (calls, ns)
                         in self.tallies.items()],
        }


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    t0 = now()
    cli = importlib.import_module("rectfree.cli")
    import_ns = now() - t0
    tracer = Tracer()
    tracer.install(TARGETS, "span")
    tracer.install(TALLIES, "tally")
    span = tracer._open("main")
    try:
        code = cli.main(argv)
    finally:
        tracer._close(span)
        sys.stdout.flush()
        with open(trace_path, "w", encoding="ascii") as fh:
            json.dump(tracer.record(import_ns), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
