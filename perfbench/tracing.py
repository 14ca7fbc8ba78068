"""Layer spans for the traced run, installed from the benchmark's own code.

:func:`installed` wraps the public entry points of each layer at class (or
module) level before a ``Cluster`` is built, and puts every original back
when the block exits.  A span opens when a call enters a layer from another
layer; a call that stays inside the layer it came from passes straight
through, so a layer's self time is the time its spans cover minus the time
of the spans they caused, and each count is a count of calls *into* the
layer.  Callbacks the layers register (engine events, network handlers,
router channels, transport receivers, broadcast deliveries) are wrapped too
and attributed to the layer of the object that owns them.

Spans are aggregated in memory -- self time per layer and, per entry
point, the number of spans each calling layer opened -- and written out
once, by the caller, when the run ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

import repro.broadcast.message as message_mod
import repro.broadcast.total as total_mod
import repro.core.cluster as cluster_mod
import repro.net.network as network_mod
import repro.net.router as router_mod
import repro.net.transport as transport_mod
from repro.broadcast.causal import CausalBroadcast
from repro.broadcast.membership import MembershipService
from repro.broadcast.reliable import ReliableBroadcast
from repro.broadcast.total import TotalOrderBroadcast
from repro.core.cluster import Cluster
from repro.core.replica import Replica
from repro.db.locks import LockManager
from repro.db.serialization import HistoryRecorder
from repro.db.storage import VersionedStore
from repro.db.wal import WriteAheadLog
from repro.net.network import Network
from repro.net.router import ChannelRouter
from repro.net.transport import ReliableTransport
from repro.sim.engine import EventHandle, SimulationEngine

#: Module -> layer.  Modules not listed fall back by package prefix.
MODULE_LAYERS = {
    "repro.sim.engine": "sim",
    "repro.net.network": "net.network",
    "repro.net.router": "net.router",
    "repro.net.transport": "net.transport",
    "repro.net.sizes": "net.sizes",
    "repro.broadcast.reliable": "broadcast.reliable",
    "repro.broadcast.causal": "broadcast.causal",
    "repro.broadcast.total": "broadcast.total",
    "repro.broadcast.failure_detector": "broadcast.fd",
    "repro.broadcast.membership": "broadcast.fd",
    "repro.core.cluster": "core.cluster",
    "repro.core.recovery": "core.recovery",
}
PREFIX_LAYERS = (
    ("repro.sim.", "sim"),
    ("repro.net.", "net.network"),
    ("repro.broadcast.", "broadcast.reliable"),
    ("repro.core.", "core.protocol"),
    ("repro.db.", "db"),
)
#: Code outside the package: the benchmark's own client loop.
CLIENT = "client"
#: Every layer the traced run reports self time for.
LAYERS = (
    "sim",
    "net.network",
    "net.sizes",
    "net.router",
    "net.transport",
    "broadcast.reliable",
    "broadcast.causal",
    "broadcast.total",
    "broadcast.fd",
    "core.protocol",
    "core.cluster",
    "core.recovery",
    "db",
    "db.check",
    CLIENT,
)


def layer_of_module(module: str) -> str:
    layer = MODULE_LAYERS.get(module)
    if layer is not None:
        return layer
    for prefix, fallback in PREFIX_LAYERS:
        if module.startswith(prefix):
            return fallback
    return CLIENT


def owner_layer(fn: Callable[..., Any]) -> str:
    """Layer of the object a callback is bound to (or of its module)."""
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        return layer_of_module(type(owner).__module__)
    return layer_of_module(getattr(fn, "__module__", "") or "")


class Tracer:
    """In-memory span aggregates for one traced run."""

    def __init__(self) -> None:
        #: Open spans, innermost last: [layer, start, time in child spans].
        self.stack: list[list[Any]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        #: entry point -> {layer of the span that made the call: calls}.
        self.callers: dict[str, dict[str, int]] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self._callback_spanners: dict[tuple[Any, str], Callable] = {}

    def spanner(self, layer: str, entry: str, count: str = "") -> Callable:
        """``span(fn, bypass=None)``: ``fn`` with a span of ``layer``
        around every call entering it from another layer, bumping the
        counter ``count`` (if named) per span.  A call from inside
        ``layer`` runs ``bypass`` (default ``fn``) bare."""
        stack = self.stack
        self_s = self.self_s
        callers = self.callers.setdefault(entry, defaultdict(int))
        counts = self.counts
        clock = time.perf_counter

        def span(fn: Callable[..., Any], bypass: Callable[..., Any] | None = None) -> Callable:
            inner = fn if bypass is None else bypass

            def spanned(*args: Any, **kwargs: Any) -> Any:
                # The clock starts first so the span's own bookkeeping is
                # charged to its layer rather than to the caller's.
                start = clock()
                if stack:
                    caller = stack[-1][0]
                    if caller == layer:
                        return inner(*args, **kwargs)
                    callers[caller] += 1
                else:
                    callers["-"] += 1
                if count:
                    counts[count] += 1
                frame = [layer, start, 0.0]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
                    elapsed = clock() - start
                    self_s[layer] += elapsed - frame[2]
                    if stack:
                        stack[-1][2] += elapsed

            return spanned

        return span

    def wrap(self, layer: str, entry: str, fn: Callable[..., Any], count: str = "") -> Callable:
        return self.spanner(layer, entry, count)(fn)

    def wrap_callback(self, fn: Callable[..., Any], count: str = "") -> Callable:
        """``fn`` spanned in the layer of the object it is bound to."""
        owner = getattr(fn, "__self__", None)
        key = (type(owner) if owner is not None else getattr(fn, "__module__", ""), count)
        span = self._callback_spanners.get(key)
        if span is None:
            layer = owner_layer(fn)
            span = self._callback_spanners[key] = self.spanner(layer, f"{layer}<-callback", count)
        return span(fn)

    def summary(self) -> dict[str, Any]:
        return {
            "self_s": {layer: self.self_s.get(layer, 0.0) for layer in LAYERS},
            "callers": {
                entry: dict(sorted(by.items())) for entry, by in sorted(self.callers.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }


def _patches(tracer: Tracer) -> list[tuple[Any, str, Callable[[Callable], Callable]]]:
    """(owner, attribute, make_wrapper(original)) for every entry point."""
    wrap = tracer.wrap

    def method(layer: str, cls: type, name: str, count: str = ""):
        return (cls, name, lambda orig: wrap(layer, f"{cls.__name__}.{name}", orig, count))

    def callback_arg(
        layer: str, cls: type, name: str, index: int, count: str = "", callback_count: str = ""
    ):
        """Span the method and wrap its callback argument (``args[index]``)."""

        def make(orig: Callable) -> Callable:
            def registering(*args: Any, **kwargs: Any) -> Any:
                args = list(args)
                args[index] = tracer.wrap_callback(args[index], callback_count)
                return orig(*args, **kwargs)

            span = tracer.spanner(layer, f"{cls.__name__}.{name}", count)
            return span(registering, bypass=orig)

        return (cls, name, make)

    def scheduling(name: str, index: int):
        # Same-layer pass-through makes schedule -> schedule_at count once.
        return callback_arg("sim", SimulationEngine, name, index, "sim.scheduled")

    def counting(cls: type, name: str, count: str):
        def make(orig: Callable) -> Callable:
            counts = tracer.counts

            def counted(*args: Any, **kwargs: Any) -> Any:
                counts[count] += 1
                return orig(*args, **kwargs)

            return counted

        return (cls, name, make)

    patches = [
        scheduling("schedule", 2),
        scheduling("schedule_at", 2),
        scheduling("reschedule", 3),
        method("sim", SimulationEngine, "run"),
        counting(EventHandle, "cancel", "sim.cancelled"),
        method("net.network", Network, "send"),
        method("net.network", Network, "multicast"),
        callback_arg("net.network", Network, "attach", 2),
        method("net.router", ChannelRouter, "send"),
        method("net.router", ChannelRouter, "multicast"),
        callback_arg("net.router", ChannelRouter, "register", 2),
        method("net.transport", ReliableTransport, "send"),
        callback_arg("net.transport", ReliableTransport, "set_receiver", 1),
        method("core.cluster", Cluster, "run"),
        method("core.cluster", Cluster, "submit"),
        # The replicas' completion hook: the client retry loop.
        method("core.cluster", Cluster, "_on_complete"),
        callback_arg("core.cluster", Cluster, "add_spec_listener", 1),
        callback_arg(
            "broadcast.fd",
            MembershipService,
            "add_listener",
            1,
            callback_count="broadcast.view_changes",
        ),
        method("core.protocol", Replica, "submit", "core.attempts"),
        method("db", LockManager, "acquire", "db.lock_acquires"),
        method("db", LockManager, "acquire_group", "db.lock_acquires"),
        method("db", LockManager, "try_acquire", "db.lock_acquires"),
        method("db", VersionedStore, "install", "db.installs"),
        method("db.check", HistoryRecorder, "check"),
    ]
    for name in ("log_begin", "log_write", "log_commit", "log_abort"):
        patches.append(method("db", WriteAheadLog, name, "db.wal_records"))
    for layer, cls in (
        ("broadcast.reliable", ReliableBroadcast),
        ("broadcast.causal", CausalBroadcast),
        ("broadcast.total", TotalOrderBroadcast),
    ):
        patches.append(method(layer, cls, "broadcast", "broadcast.broadcasts"))
        patches.append(
            callback_arg(layer, cls, "set_deliver", 1, callback_count="broadcast.deliveries")
        )
    patches.append(
        method("broadcast.total", TotalOrderBroadcast, "broadcast_causal", "broadcast.broadcasts")
    )
    # The size model is a module function imported by name: wrap each
    # importer's binding (its own recursion inside repro.net.sizes stays
    # unwrapped).
    for module in (network_mod, router_mod, transport_mod, message_mod, total_mod):
        patches.append(
            (module, "estimate_size", lambda orig: wrap("net.sizes", "estimate_size", orig))
        )
    patches.append((network_mod, "wire_size", lambda orig: wrap("net.sizes", "wire_size", orig)))
    patches.append(
        (
            cluster_mod,
            "replicas_converged",
            lambda orig: wrap("db.check", "replicas_converged", orig),
        )
    )
    return patches


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Install every span wrapper; restore the originals on exit."""
    saved = []
    try:
        for owner, name, make in _patches(tracer):
            original = owner.__dict__[name]
            saved.append((owner, name, original))
            setattr(owner, name, make(original))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def originals() -> dict[tuple[Any, str], Any]:
    """The current binding of every patched attribute (for hygiene tests)."""
    return {(owner, name): owner.__dict__[name] for owner, name, _ in _patches(Tracer())}
