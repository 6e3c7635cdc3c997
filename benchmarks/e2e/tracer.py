"""Layer tracing from outside: wrappers on the public layer boundaries.

Nothing under ``src/`` is edited.  While a :class:`Tracer` is installed,
``Party.deliver``, timer callbacks handed to ``Simulator.schedule_timer``,
``Simulator.submit_message``/``step``/``run``, the outermost
``sim.messages.payload_bits`` call, ``SimulationMetrics.record_send`` and
``ProtocolInstance.__init__`` are wrapped.  A protocol layer is the source
module of the receiving (or timer-owning, or sending) ``ProtocolInstance``
class, e.g. ``ba.sba``; work a handler triggers in another instance through
an output callback stays with the handler's layer.

A span is (id, parent id, name, start, end).  Every instant of the traced
wall belongs to the innermost open span, so a layer's self time is its
spans' duration minus what their child spans cover; time under no span is
the harness itself and is what ``trace.coverage`` leaves out.  Self times
and counts are aggregated as spans close; the first ``KEEP_SPANS`` raw spans
are kept for the trace file.  Only the simulator runtime is traced: tcp
party processes and the asyncio backend are measured from outside.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.runtime.wire import decode_message, encode_message
from repro.sim import messages as messages_module
from repro.sim.messages import Message
from repro.sim.party import Party, ProtocolInstance
from repro.sim.simulator import SimulationMetrics, Simulator

KEEP_SPANS = 50_000
KEEP_MESSAGES = 20_000

STEP = "sim.simulator.step"
SUBMIT = "sim.simulator.submit"
RUN_LOOP = "sim.simulator.run_loop"
PAYLOAD_BITS = "sim.messages.payload_bits"
FABRIC = (STEP, SUBMIT, RUN_LOOP, PAYLOAD_BITS)
UNTRACED = "untraced"

#: The protocol layers with rows in BENCHMARK.json (source modules of the
#: ``ProtocolInstance`` classes the four workloads instantiate).
PROTOCOL_LAYERS = (
    "broadcast.acast", "broadcast.bc", "ba.sba", "ba.aba", "ba.bobw", "sharing.wps",
    "sharing.vss", "acs.acs", "triples.sharing", "triples.him", "triples.extraction",
    "triples.transform", "triples.reconstruction", "triples.preprocessing", "triples.beaver",
    "mpc.protocol",
)

#: Packages of ``src/repro`` that get a ``prof_share.<pkg>`` row; any other
#: repro module is ``other`` and everything outside repro is ``stdlib``
#: (builtins, heapq, numpy and the harness itself).
PROFILE_PACKAGES = ("sim", "runtime", "broadcast", "ba", "sharing", "acs", "triples", "mpc",
                    "service", "field", "codes", "graph", "circuits")


def layer_of(cls: type) -> str:
    return cls.__module__.removeprefix("repro.")


def _owning_instance(callback: Callable) -> Optional[ProtocolInstance]:
    """The ProtocolInstance a timer callback belongs to (bound or captured)."""
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, ProtocolInstance):
        return owner
    for cell in getattr(callback, "__closure__", None) or ():
        try:
            value = cell.cell_contents
        except ValueError:  # empty cell
            continue
        if isinstance(value, ProtocolInstance):
            return value
    return None


def _protocol_classes() -> List[type]:
    """Every imported ProtocolInstance subclass (the protocol layers' classes)."""
    found, queue = [], [ProtocolInstance]
    while queue:
        for cls in queue.pop().__subclasses__():
            if cls not in found:
                found.append(cls)
                queue.append(cls)
    return found


class Tracer:
    """Installs the wrappers, aggregates spans and counts, restores on exit."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.msgs_out: Dict[str, int] = defaultdict(int)
        self.bits_out: Dict[str, int] = defaultdict(int)
        self.instances: Dict[str, int] = defaultdict(int)
        self.spans: List[Tuple[int, int, str, float, float]] = []
        #: First KEEP_MESSAGES (sender, recipient, tag, payload, send time).
        self.messages: List[Tuple[int, int, str, Any, float]] = []
        self.wall_s = 0.0
        self._originals: List[Tuple[Any, str, Any]] = []
        self._close: Callable[[], None] = lambda: None

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._originals.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def __enter__(self) -> "Tracer":
        # The wrappers run a million times per evaluation, so the span
        # bookkeeping lives in closure variables, not attributes.
        clock = time.perf_counter
        self_s, calls, spans, captured = self.self_s, self.calls, self.spans, self.messages
        msgs_out, bits_out, instances = self.msgs_out, self.bits_out, self.instances
        layer_by_tag: Dict[str, str] = {}
        open_spans: List[Tuple[str, int, float]] = []  # (enclosing name, id, start)
        current = UNTRACED  # owns the time since ``last``
        sending_layer = UNTRACED
        next_id = 0
        entered = last = clock()

        def enter(name: str) -> None:
            nonlocal current, last, next_id
            now = clock()
            self_s[current] += now - last
            open_spans.append((current, next_id, now))
            next_id += 1
            current = name
            last = now

        def leave() -> None:
            nonlocal current, last
            now = clock()
            self_s[current] += now - last
            calls[current] += 1
            enclosing, span_id, start = open_spans.pop()
            if span_id < KEEP_SPANS:
                parent = open_spans[-1][1] if open_spans else -1
                spans.append((span_id, parent, current, start, now))
            current = enclosing
            last = now

        def close() -> None:
            now = clock()
            self_s[current] += now - last
            self.wall_s += now - entered

        self._close = close

        init = ProtocolInstance.__init__

        def traced_init(instance, party, tag, *args, **kwargs):
            layer = layer_of(type(instance))
            layer_by_tag[tag] = layer
            instances[layer] += 1
            init(instance, party, tag, *args, **kwargs)

        def traced_start(layer, start):
            def wrapper(instance, *args, **kwargs):
                enter(layer)
                try:
                    return start(instance, *args, **kwargs)
                finally:
                    leave()
            return wrapper

        deliver = Party.deliver

        def traced_deliver(party, sender, tag, payload):
            layer = layer_by_tag.get(tag)
            if layer is None:  # no party has built this endpoint yet: buffered
                return deliver(party, sender, tag, payload)
            enter(layer)
            try:
                return deliver(party, sender, tag, payload)
            finally:
                leave()

        schedule_timer = Simulator.schedule_timer

        def traced_schedule_timer(sim, time, callback, *args, **kwargs):
            instance = _owning_instance(callback)
            if instance is not None:
                layer, fire = layer_of(type(instance)), callback

                def callback():
                    enter(layer)
                    try:
                        fire()
                    finally:
                        leave()

            return schedule_timer(sim, time, callback, *args, **kwargs)

        submit = Simulator.submit_message

        def traced_submit(sim, sender, recipient, tag, payload):
            nonlocal sending_layer
            sending_layer = layer_by_tag.get(tag, UNTRACED)
            if len(captured) < KEEP_MESSAGES:
                captured.append((sender, recipient, tag, payload, sim.now))
            enter(SUBMIT)
            try:
                return submit(sim, sender, recipient, tag, payload)
            finally:
                leave()

        step = Simulator.step

        def traced_step(sim):
            enter(STEP)
            try:
                return step(sim)
            finally:
                leave()

        run = Simulator.run

        def traced_run(sim, *args, **kwargs):
            enter(RUN_LOOP)
            try:
                return run(sim, *args, **kwargs)
            finally:
                leave()

        record_send = SimulationMetrics.record_send

        def traced_record_send(metrics, message, sender_corrupt, *args, **kwargs):
            msgs_out[sending_layer] += 1
            if not sender_corrupt:
                bits_out[sending_layer] += message.bits
            return record_send(metrics, message, sender_corrupt, *args, **kwargs)

        # payload_bits recurses through its module global.  Message.__init__
        # gets the span wrapper; the recursion inside goes to an untraced
        # copy whose globals name itself, so only the outermost call is a span.
        original_bits = messages_module.payload_bits
        inner_bits = types.FunctionType(
            original_bits.__code__, dict(original_bits.__globals__), "payload_bits",
            original_bits.__defaults__, original_bits.__closure__,
        )
        inner_bits.__globals__["payload_bits"] = inner_bits

        def traced_payload_bits(payload):
            enter(PAYLOAD_BITS)
            try:
                return inner_bits(payload)
            finally:
                leave()

        self._patch(ProtocolInstance, "__init__", traced_init)
        for cls in _protocol_classes():
            if "start" in vars(cls):
                self._patch(cls, "start", traced_start(layer_of(cls), vars(cls)["start"]))
        self._patch(Party, "deliver", traced_deliver)
        self._patch(Simulator, "schedule_timer", traced_schedule_timer)
        self._patch(Simulator, "submit_message", traced_submit)
        self._patch(Simulator, "step", traced_step)
        self._patch(Simulator, "run", traced_run)
        self._patch(SimulationMetrics, "record_send", traced_record_send)
        self._patch(messages_module, "payload_bits", traced_payload_bits)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._close()
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    # -- reading the result ------------------------------------------------------
    def coverage(self) -> float:
        """Share of the traced wall that lies under some span."""
        if not self.wall_s:
            return 0.0
        return 1.0 - self.self_s[UNTRACED] / self.wall_s

    def metrics(self) -> Dict[str, float]:
        """The protocol-layer and fabric rows, by their BENCHMARK.json names."""
        rows: Dict[str, float] = {
            "sim.messages.payload_bits_s": self.self_s[PAYLOAD_BITS],
            "sim.messages.payload_bits_calls": self.calls[PAYLOAD_BITS],
            "sim.simulator.step_self_s": self.self_s[STEP],
            "sim.simulator.submit_self_s": self.self_s[SUBMIT],
            "sim.simulator.events": self.calls[STEP],
            "sim.simulator.run_loop_s": self.self_s[RUN_LOOP],
            "trace.coverage": self.coverage(),
        }
        for layer in PROTOCOL_LAYERS:
            rows[f"{layer}.self_s"] = self.self_s[layer]
            rows[f"{layer}.msgs_out"] = self.msgs_out[layer]
            rows[f"{layer}.bits_out"] = self.bits_out[layer]
            rows[f"{layer}.instances"] = self.instances[layer]
        return rows

    def unlisted_layers(self) -> List[str]:
        """Layers that did work but have no row (a new protocol module)."""
        seen = set(self.self_s) | set(self.msgs_out) | set(self.instances)
        return sorted(seen - set(PROTOCOL_LAYERS) - set(FABRIC) - {UNTRACED})

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                **extra,
                "traced_wall_s": self.wall_s,
                "self_s": dict(self.self_s),
                "span_counts": dict(self.calls),
                "msgs_out": dict(self.msgs_out),
                "bits_out": dict(self.bits_out),
                "instances": dict(self.instances),
                "span_fields": ["id", "parent", "name", "start", "end"],
                "spans_total": sum(self.calls.values()),
                "spans": self.spans,
            }, handle)
            handle.write("\n")


def profile_shares(call: Callable[[], Any]) -> Dict[str, float]:
    """Run ``call`` under cProfile; self-time share by package.

    Covers the leaf libraries (field, codes, graph) the span wrappers cannot
    see.  cProfile inflates pure-Python call-heavy code relative to native
    work, so these are shares for finding candidates, not timings.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        call()
    finally:
        profiler.disable()
    marker = os.sep + "repro" + os.sep
    totals: Dict[str, float] = defaultdict(float)
    for (filename, _line, _name), (_cc, _nc, self_time, _ct, _callers) in pstats.Stats(
            profiler).stats.items():
        package = "stdlib"
        if marker in filename:
            head = filename.rsplit(marker, 1)[1].split(os.sep, 1)[0]
            package = head if head in PROFILE_PACKAGES else "other"
        totals[package] += self_time
    total = sum(totals.values())
    return {f"prof_share.{package}": (totals[package] / total if total else 0.0)
            for package in PROFILE_PACKAGES + ("other", "stdlib")}


def wire_codec_costs(captured: List[Tuple[int, int, str, Any, float]]) -> Dict[str, float]:
    """Encode/decode cost of the captured messages with ``runtime.wire``.

    Raises if a message does not survive the round trip with equal routing,
    equal accounted ``bits`` and an identical re-encoding.
    """
    built = [Message(*fields) for fields in captured]
    start = time.perf_counter()
    encoded = [encode_message(message) for message in built]
    encode_s = time.perf_counter() - start
    start = time.perf_counter()
    decoded = [decode_message(blob) for blob in encoded]
    decode_s = time.perf_counter() - start
    for message, blob, back in zip(built, encoded, decoded):
        same = ((back.sender, back.recipient, back.tag, back.bits)
                == (message.sender, message.recipient, message.tag, message.bits))
        if not same or encode_message(back) != blob:
            raise RuntimeError(f"wire round trip changed {message!r} into {back!r}")
    count = len(built) or 1
    return {
        "runtime.wire.encode_us_per_msg": 1e6 * encode_s / count,
        "runtime.wire.decode_us_per_msg": 1e6 * decode_s / count,
        "runtime.wire.bytes_per_msg": sum(len(blob) for blob in encoded) / count,
    }
