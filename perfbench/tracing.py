"""Span tracing of the protocol layers, installed from outside ``src/``.

:class:`SpanTracer` wraps each layer's public entry points (class
methods and module functions) so every call records one span: the
entry point it entered (its *site*), start, end and the span that was
open when it started (its parent).  It also wraps every callback handed
to ``Simulator.schedule*`` in a span named after the module of the
callback's owner, so a layer's private timer ticks are charged to that
layer rather than to the event kernel.  Spans live in flat in-memory
arrays while the simulation runs; when it ends they are reduced and
written out.

A span's *self time* is its duration minus the durations of its direct
children; the per-name sum of self times, plus the time covered by no
span at all (``unattributed``), adds up to the traced wall time.

Nothing here changes what the program computes: wrappers call the
original function with the original arguments, and a wrapped callback
is scheduled at the same time, priority and sequence number as the
bare one would have been.  The patches last for the rest of the
process, which ``instance.py`` runs for one instance only.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Callable, Iterable, Optional

import numpy as np

#: Span names, one per measured layer; each becomes a ``<name>.self_s``
#: metric (``core.cache`` is split into its store and lookup paths, the
#: ``shard`` layer is measured at its exchange functions).
SPAN_NAMES = (
    "simcore",
    "netsim.link",
    "common.ranges",
    "core.cache.store",
    "core.cache.lookup",
    "core.congestion",
    "core.midnode",
    "core.consumer",
    "core.producer",
    "core.paced",
    "tcp",
    "workload",
    "shard.exchange",
    "unattributed",
)

#: Scheduled callbacks are named by the module their code lives in
#: (longest matching prefix wins); modules listed nowhere are charged
#: to ``unattributed``.
MODULE_SPANS = (
    ("repro.simcore", "simcore"),
    ("repro.netsim.link", "netsim.link"),
    ("repro.common.ranges", "common.ranges"),
    ("repro.core.congestion", "core.congestion"),
    ("repro.core.midnode", "core.midnode"),
    ("repro.core.multicast", "core.midnode"),
    ("repro.core.consumer", "core.consumer"),
    ("repro.core.producer", "core.producer"),
    ("repro.core.paced", "core.paced"),
    ("repro.tcp", "tcp"),
    ("repro.workload", "workload"),
    ("repro.shard.exchange", "shard.exchange"),
)

#: ``(module, class, methods, span)``.  ``"*"`` means every public
#: method and property the class itself defines.
CLASS_ENTRY_POINTS = (
    ("repro.simcore.simulator", "Simulator", ("run", "step"), "simcore"),
    ("repro.simcore.event", "Event", ("cancel",), "simcore"),
    ("repro.netsim.link", "Link", ("send", "flush"), "netsim.link"),
    ("repro.common.ranges", "RangeSet", "*", "common.ranges"),
    ("repro.common.ranges", "RangeSet", ("__len__", "__bool__"),
     "common.ranges"),
    ("repro.core.cache", "BlockCache", ("store",), "core.cache.store"),
    ("repro.workload.budget", "PooledBlockCache", ("store",),
     "core.cache.store"),
    ("repro.core.cache", "BlockCache", ("lookup",), "core.cache.lookup"),
    ("repro.core.congestion", "TokenBucket", "*", "core.congestion"),
    ("repro.core.congestion", "HopRateController", ("on_data",),
     "core.congestion"),
    ("repro.core.midnode", "Midnode", "*", "core.midnode"),
    ("repro.core.consumer", "Consumer", ("on_receive", "start"),
     "core.consumer"),
    ("repro.core.producer", "Producer", "*", "core.producer"),
    ("repro.core.paced", "PacedSender", "*", "core.paced"),
    ("repro.tcp.connection", "TcpSender", ("on_receive", "start", "stop"),
     "tcp"),
    ("repro.tcp.connection", "TcpReceiver", ("on_receive",), "tcp"),
    ("repro.workload.pool", "FlowPool", "*", "workload"),
    # The pool's delivery/completion callbacks are the entry points it
    # hands to every Consumer it spawns.
    ("repro.workload.pool", "FlowPool", ("_deliver_cb", "_complete_cb"),
     "workload"),
    ("repro.workload.budget", "SharedCachePool", "*", "workload"),
)

#: ``(module, function, span)``: module-level entry points.  The patch
#: reaches every ``repro`` module that imported the function by name.
FUNCTION_ENTRY_POINTS = (
    ("repro.shard.exchange", "apportion", "shard.exchange"),
    ("repro.shard.exchange", "compute_exchange", "shard.exchange"),
    ("repro.shard.exchange", "initial_allocations", "shard.exchange"),
    ("repro.shard.exchange", "ledger_row", "shard.exchange"),
)

#: Classes whose instances are kept for reading their public counters
#: after the run (many are short-lived, e.g. one Consumer per flow).
REGISTERED_CLASSES = (
    ("repro.simcore.simulator", "Simulator"),
    ("repro.netsim.link", "Link"),
    ("repro.core.cache", "BlockCache"),
    ("repro.core.midnode", "Midnode"),
    ("repro.core.consumer", "Consumer"),
    ("repro.tcp.connection", "TcpSender"),
)

#: Timer-like classes whose scheduled method only relays to a callback
#: given at construction; the span is named after that callback.
_RELAY_CLASSES = ("Timer", "PeriodicProcess", "TimelineProcess")

_SCHEDULERS = ("schedule", "schedule_at", "schedule_call")

_clock = time.perf_counter


def patch_member(cls: type, name: str, make: Callable) -> Callable[[], None]:
    """Replace ``cls.name`` with ``make(original)``; return the undo.

    The one way the benchmark reaches into the program: every wrapper,
    timer and instance capture goes through it.
    """
    original = cls.__dict__[name]
    setattr(cls, name, make(original))
    return lambda: setattr(cls, name, original)


def on_init(cls: type, hook: Callable) -> Callable[[], None]:
    """Call ``hook(obj)`` after every ``cls`` instance's ``__init__``;
    return the undo."""

    def make(init):
        def init_then_hook(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            hook(obj)

        return functools.update_wrapper(init_then_hook, init)

    return patch_member(cls, "__init__", make)


def span_for_module(module: Optional[str]) -> str:
    """The span name charged for code living in ``module``."""
    best, best_len = "unattributed", -1
    for prefix, name in MODULE_SPANS:
        if module is not None and (
            module == prefix or module.startswith(prefix + ".")
        ) and len(prefix) > best_len:
            best, best_len = name, len(prefix)
    return best


def self_times(
    names: Iterable[int],
    starts: Iterable[float],
    ends: Iterable[float],
    parents: Iterable[int],
    n_names: int,
) -> np.ndarray:
    """Per-name total self time of a set of spans.

    ``names[i]`` indexes the name of span ``i``; ``parents[i]`` is the
    index of the span that was open when span ``i`` started, or ``-1``.
    A span's self time is its duration minus its direct children's
    durations.
    """
    names_a = np.asarray(names, dtype=np.int64)
    starts_a = np.asarray(starts, dtype=float)
    ends_a = np.asarray(ends, dtype=float)
    parents_a = np.asarray(parents, dtype=np.int64)
    dur = ends_a - starts_a
    has_parent = parents_a >= 0
    covered = np.bincount(
        parents_a[has_parent], weights=dur[has_parent],
        minlength=names_a.size,
    )
    own = dur - covered[: names_a.size]
    return np.bincount(names_a, weights=own, minlength=n_names)


class SpanTracer:
    """Records spans at layer entry points; see the module docstring."""

    def __init__(self) -> None:
        self.sites: list[tuple[str, str]] = []  # (entry point, span name)
        self.names = array("i")   # site index per span
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack = [-1]
        self._site_ids: dict[tuple[str, str], int] = {}
        self._callback_sites: dict[object, int] = {}
        self.instances: dict[str, list] = {}
        self.wire_new = 0
        self.wire_reused = 0

    # -- recording --------------------------------------------------------

    def site(self, entry: str, span: str) -> int:
        if span not in SPAN_NAMES:
            raise ValueError(f"unknown span name {span!r}")
        key = (entry, span)
        sid = self._site_ids.get(key)
        if sid is None:
            sid = self._site_ids[key] = len(self.sites)
            self.sites.append(key)
        return sid

    def wrap(self, fn: Callable, sid: int, meta: bool = True) -> Callable:
        """``fn`` with every call recorded as one span of site ``sid``.

        ``meta`` copies ``fn``'s name, module and docstring onto the
        wrapper; scheduled callbacks skip it, being wrapped once per event.
        """
        names_append = self.names.append
        parents_append = self.parents.append
        starts_append = self.starts.append
        ends = self.ends
        ends_append = ends.append
        stack = self._stack
        push, pop = stack.append, stack.pop

        def traced(*args, **kwargs):
            i = len(ends)
            names_append(sid)
            parents_append(stack[-1])
            ends_append(0.0)
            push(i)
            starts_append(_clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = _clock()
                pop()

        return functools.update_wrapper(traced, fn) if meta else traced

    def callback_site(self, cb: Callable) -> int:
        """Site of a scheduled callback, named after its owner's module."""
        owner = getattr(cb, "__self__", None)
        func = getattr(cb, "__func__", None)
        if owner is not None and type(owner).__name__ in _RELAY_CLASSES:
            inner = getattr(owner, "_callback", None)
            if inner is not None:
                return self.callback_site(inner)
        if isinstance(cb, functools.partial):
            return self.callback_site(cb.func)
        key = func if func is not None else cb
        sid = self._callback_sites.get(key)
        if sid is None:
            module = getattr(key, "__module__", None)
            qualname = getattr(key, "__qualname__", type(key).__name__)
            sid = self.site(f"callback:{qualname}", span_for_module(module))
            self._callback_sites[key] = sid
        return sid

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point; call before any simulation is built."""
        for module, cls_name, methods, span in CLASS_ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            if methods == "*":
                methods = _public_members(cls)
            for name in methods:
                self._wrap_member(cls, name, span)
        for module, fn_name, span in FUNCTION_ENTRY_POINTS:
            fn = getattr(importlib.import_module(module), fn_name)
            wrapped = self.wrap(fn, self.site(f"{module}.{fn_name}", span))
            for mod_name, mod in list(sys.modules.items()):
                if (
                    mod_name.startswith("repro")
                    and mod is not None
                    and mod.__dict__.get(fn_name) is fn
                ):
                    setattr(mod, fn_name, wrapped)
        self._install_schedulers()
        self._install_registry()
        self._install_wire_counters()

    def _wrap_member(self, cls: type, name: str, span: str) -> None:
        sid = self.site(f"{cls.__name__}.{name}", span)

        def make(member):
            if isinstance(member, property):
                return property(
                    self.wrap(member.fget, sid), member.fset, member.fdel,
                    member.__doc__,
                )
            return self.wrap(member, sid)

        patch_member(cls, name, make)

    def _install_schedulers(self) -> None:
        from repro.simcore.simulator import Simulator

        callback_site = self.callback_site
        wrap = self.wrap
        for name in _SCHEDULERS:

            def make(original, name=name):
                def scheduler(sim, when, callback, *args, **kwargs):
                    return original(
                        sim, when,
                        wrap(callback, callback_site(callback), meta=False),
                        *args, **kwargs,
                    )

                functools.update_wrapper(scheduler, original)
                return wrap(
                    scheduler, self.site(f"Simulator.{name}", "simcore")
                )

            patch_member(Simulator, name, make)

    def _install_registry(self) -> None:
        for module, cls_name in REGISTERED_CLASSES:
            cls = getattr(importlib.import_module(module), cls_name)
            on_init(cls, self.instances.setdefault(cls_name, []).append)

    def _install_wire_counters(self) -> None:
        """Count LEOTP packet constructions and freelist reuse.

        A recycled packet comes back with its slots already written; a
        fresh allocation has them unset.
        """
        from repro.core.wire import DataPacket, Interest

        tracer = self

        def make(original):
            def new(cls_, *args, **kwargs):
                obj = original(cls_, *args, **kwargs)
                if hasattr(obj, "flow_id"):
                    tracer.wire_reused += 1
                else:
                    tracer.wire_new += 1
                return obj

            return staticmethod(new)

        for cls in (Interest, DataPacket):
            patch_member(cls, "__new__", make)

    # -- reduction -----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.ends)

    def self_time_by_span(self) -> dict[str, float]:
        """Total self time per span name (every name present)."""
        per_site = self_times(
            self.names, self.starts, self.ends, self.parents, len(self.sites)
        )
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for (_, span), value in zip(self.sites, per_site):
            totals[span] += float(value)
        return totals

    def calls(self, entry: Optional[str] = None,
              span: Optional[str] = None) -> int:
        """Spans recorded at entry point ``entry`` and/or with name ``span``."""
        counts = np.bincount(
            np.asarray(self.names, dtype=np.int64), minlength=len(self.sites)
        )
        return sum(
            int(counts[sid]) for sid, (e, s) in enumerate(self.sites)
            if entry in (None, e) and span in (None, s)
        )

    def write(self, path: str) -> None:
        """Write every span (site, start, end, parent) to an ``.npz``."""
        np.savez(
            path,
            site=np.frombuffer(self.names, dtype=np.intc),
            start=np.frombuffer(self.starts, dtype=float),
            end=np.frombuffer(self.ends, dtype=float),
            parent=np.frombuffer(self.parents, dtype=np.intc),
            site_entry=np.asarray([e for e, _ in self.sites]),
            site_span=np.asarray([s for _, s in self.sites]),
        )


def _public_members(cls: type) -> list[str]:
    """Public methods and properties defined on ``cls`` itself."""
    out = []
    for name, member in cls.__dict__.items():
        if name.startswith("_"):
            continue
        if isinstance(member, property) or callable(member) and not (
            isinstance(member, (staticmethod, classmethod, type))
        ):
            out.append(name)
    return out
