"""Span recorder for the traced run (``--trace 1``).

The recorder wraps public functions of each layer of ``repro`` from here, in
the benchmark's own files, so the program under test is unchanged.  A span
holds a name, start, end, its parent span and the query or request it served.
Spans stay in memory; :meth:`Recorder.dump` writes them out when the run ends.

A layer's *self time* is its span's duration minus the time its direct child
spans cover, so nested layers (``Executor.execute`` around a first-execution
trace, say) are not counted twice.  Only the outermost of nested calls under
one span name records a span, so a per-call time is per statement (one
``build_ir`` over a whole plan), not per recursive step.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class Recorder:
    """Collects spans from every thread while installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, op, thread)
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._lock = threading.Lock()

    # -- what the benchmark tags ------------------------------------------------

    def set_op(self, op: "str | None") -> None:
        """Tag spans this thread records next with a query or request id."""
        self._local.op = op

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    # -- wrapping -----------------------------------------------------------------

    def wrap(self, owner, attribute: str, span: str, on_result=None) -> None:
        """Replace ``owner.attribute`` with a spanned version until
        :meth:`uninstall`.  ``on_result(result)`` may add counts."""
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        recorder = self

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            local = recorder._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack and stack[-1][1] == span:
                # A recursive call (build_ir over plan children) or a call
                # of a sibling wrapped under the same name (execute_many
                # into execute) belongs to the outermost span.
                return original(*args, **kwargs)
            with recorder._lock:
                index = len(recorder.spans)
                recorder.spans.append(None)  # reserved until the span ends
            parent = stack[-1][0] if stack else None
            stack.append((index, span))
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans[index] = (span, start, end, parent,
                                         getattr(local, "op", None),
                                         threading.get_ident())
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attribute, spanned)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- summaries ------------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """``{span name: (calls, total self seconds)}``."""
        covered = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] is not None:
                covered[span[3]] += span[2] - span[1]
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            entry = totals[span[0]]
            entry[0] += 1
            entry[1] += (span[2] - span[1]) - covered.get(index, 0.0)
        return {name: (calls, total) for name, (calls, total) in totals.items()}

    def dump(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, op, thread = span
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "thread": thread}) + "\n")


def install(recorder: Recorder) -> None:
    """Wrap the public entry points of every layer the workloads cross."""
    import repro.core.executor as executor_module
    import repro.core.ir_builder as ir_builder
    import repro.core.ir_optimizer as ir_optimizer
    import repro.core.session as session_module
    import repro.storage.encodings as encodings
    import repro.tensor.passes as passes
    import repro.tensor.tracing as tracing
    from repro.core.executor import ExecutionResult, Executor
    from repro.core.session import TQPSession
    from repro.datasets import tpch
    from repro.serve import ServingRuntime

    def converted(columns) -> None:
        recorder.add("storage.converted_bytes", sum(
            _column_bytes(column) for column in columns.values()))

    recorder.wrap(tpch, "cached_tables", "dataframe.load")
    recorder.wrap(TQPSession, "register", "storage.register")
    recorder.wrap(TQPSession, "register_model", "ml.compile_model")
    recorder.wrap(TQPSession, "compile", "plan_cache.lookup")
    recorder.wrap(TQPSession, "execution_state", "session.snapshot")
    recorder.wrap(encodings, "encode_table", "storage.convert", converted)
    recorder.wrap(session_module, "sql_to_physical", "frontend")
    recorder.wrap(ir_builder, "build_ir", "ir.build")
    recorder.wrap(ir_optimizer, "optimize_ir", "ir.optimize")
    recorder.wrap(session_module, "plan_ir", "planner")
    recorder.wrap(tracing, "trace", "tensor.trace")
    recorder.wrap(passes, "optimize", "tensor.passes")
    recorder.wrap(executor_module, "ScriptedProgram", "tensor.codegen")
    recorder.wrap(Executor, "execute", "executor.replay")
    recorder.wrap(Executor, "execute_many", "executor.replay")
    recorder.wrap(ExecutionResult, "to_dataframe", "dataframe.materialize")
    recorder.wrap(ServingRuntime, "submit", "serve.submit")


def _column_bytes(column) -> int:
    """Bytes of one converted column: its tensor and validity mask."""
    total = column.tensor.nbytes
    if column.valid is not None:
        total += column.valid.nbytes
    return total
