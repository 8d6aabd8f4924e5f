"""In-memory span tracer for the benchmark's traced run.

The tracer wraps scorelink functions from outside the package: nothing
under ``src/`` knows about it. A span is ``[name, start, end, parent,
run, counts]``: ``parent`` indexes the enclosing span of the same
process, ``run`` numbers the protocol pass, and ``counts`` holds what
the wrapper read from the call's arguments and result.

Pool workers forked by ``scorelink.experiment`` inherit the wrappers.
Each worker appends its finished top-level spans to a file in the spool
directory, and :meth:`Tracer.collect` merges those files into the parent
trace. Workers started by another method lose their spans.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path


class Tracer:
    def __init__(self, spool_dir: Path):
        self.spans: list[list] = []
        self.run = 0
        self._owner = os.getpid()
        self._pid = self._owner
        self._stack: list[int] = []
        self._spool_dir = Path(spool_dir)
        self._spool_dir.mkdir(parents=True, exist_ok=True)
        self._installed: list[tuple] = []

    def enter(self, name: str) -> list:
        if os.getpid() != self._pid:  # first span in a forked worker
            self._pid = os.getpid()
            self.spans, self._stack = [], []
        span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None,
                self.run, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def exit(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()
        if not self._stack and self._pid != self._owner:
            self._spool()

    def wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.enter(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(span)
            if counts is not None:
                span[5] = counts(args, kwargs, result)
            return result

        return traced

    def install(self, modules: dict, traced: dict) -> None:
        """Wrap each ``(module, function)`` of ``traced`` wherever it is bound.

        ``modules`` maps short names to the scorelink modules to patch.
        """
        for (module_name, function), (name, counts) in traced.items():
            original = getattr(modules[module_name], function)
            wrapper = self.wrap(original, name, counts)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _spool(self) -> None:
        path = self._spool_dir / f"{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as f:
            f.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def collect(self, host: str) -> None:
        """Merge spooled worker spans; their roots become children of the
        latest span named ``host`` of the same run."""
        hosts = {s[4]: i for i, s in enumerate(self.spans) if s[0] == host}
        for path in sorted(self._spool_dir.glob("*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                batch = json.loads(line)
                offset = len(self.spans)
                for span in batch:
                    if span[3] is None:
                        span[3] = hosts[span[4]]
                    else:
                        span[3] += offset
                    self.spans.append(span)
            path.unlink()

    def pass_spans(self, run: int) -> list[list]:
        """The spans of one pass, re-indexed so parents point into the list."""
        keep = [i for i, s in enumerate(self.spans) if s[4] == run]
        index = {old: new for new, old in enumerate(keep)}
        return [[*self.spans[i][:3], index.get(self.spans[i][3]), *self.spans[i][4:]]
                for i in keep]
