"""In-memory span tracer for loopwalk's layer entry points.

A traced call records one span: its name, wall start and end
(``time.perf_counter``), the CPU time of the calling thread spent inside
it (``time.thread_time``), the span that was open on the same thread when
it started, and that thread.  Spans stay in memory until the benchmark
writes them out.

``from x import y`` copies a binding into the importing module, so a name
is wrapped in every loaded ``loopwalk`` module that holds the original
function object, not only where it is defined.  A target whose defining
module no longer has the name is reported in ``absent`` and not wrapped.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Target:
    """One entry point to wrap.

    ``detail`` takes (args, kwargs, result) and returns a small value kept
    with the span, such as the power passed to ``compose``; it runs after
    the span has ended.
    """

    layer: str
    module: str
    attr: str
    detail: Callable[[tuple, dict, Any], Any] | None = None

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    cpu: float
    parent: int | None
    thread: int
    detail: Any = None

    def to_json(self) -> dict:
        detail = self.detail if isinstance(self.detail, (int, float, str, type(None))) else None
        return {
            "id": self.id,
            "name": self.name,
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "cpu": self.cpu,
            "parent": self.parent,
            "thread": self.thread,
            "detail": detail,
        }


def _arg(args: tuple, kwargs: dict, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


# The layer entry points a sweep passes through, named by module.
TARGETS = (
    Target("spectra", "loopwalk.spectra", "eigensystem_for",
           detail=lambda a, k, r: _arg(a, k, 0, "cfg")),
    Target("propagate", "loopwalk.propagate", "compose",
           detail=lambda a, k, r: abs(int(_arg(a, k, 1, "n")))),
    Target("propagate", "loopwalk.propagate", "transfer_matrix"),
    Target("correlations", "loopwalk.correlations", "device_correlation"),
    Target("fock_oracle", "loopwalk.fock_oracle", "delayed_run"),
    Target("fock_oracle", "loopwalk.fock_oracle", "lift_to_two_photon",
           detail=lambda a, k, r: int(r.shape[0])),
    Target("cli", "loopwalk.cli", "_write_json", detail=lambda a, k, r: str(_arg(a, k, 0, "path"))),
    Target("cli", "loopwalk.cli", "_write_csv", detail=lambda a, k, r: str(_arg(a, k, 0, "path"))),
    Target("cli", "loopwalk.cli", "_write_pgm", detail=lambda a, k, r: str(_arg(a, k, 0, "path"))),
)


class Tracer:
    """Wraps ``targets`` while installed; thread-safe span recording."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.absent: list[str] = []
        self.detail_errors: dict[str, int] = {}
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- wiring --

    def install(self):
        """Wrap every present target in every loopwalk module bound to it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        self.absent = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "loopwalk" or n.startswith("loopwalk."))]
        for target in self.targets:
            home = sys.modules.get(target.module)
            original = getattr(home, target.attr, None) if home is not None else None
            if not callable(original):
                self.absent.append(target.name)
                continue
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def bindings(self) -> list[str]:
        """``module.attr`` of every binding currently wrapped."""
        return [f"{m.__name__}.{a}" for m, a, _ in self._patched]

    # -- recording --

    def _wrap(self, target: Target, fn):
        name, layer, detail = target.name, target.layer, target.detail
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            cpu0 = time.thread_time()
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu0
                stack.pop()
                info = None
                if detail is not None:
                    try:
                        info = detail(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                        with tracer._lock:
                            tracer.detail_errors[name] = tracer.detail_errors.get(name, 0) + 1
                span = Span(span_id, name, layer, start, end, cpu, parent,
                            threading.get_ident(), info)
                with tracer._lock:
                    tracer._spans.append(span)

        return traced

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a new list."""
        with self._lock:
            spans, self._spans = self._spans, []
        return sorted(spans, key=lambda s: s.start)
