"""TcpTransport: self-healing point-to-point channels over real TCP sockets.

The envelope is the unit of the wire
------------------------------------

A message leaves when it is sent, not when it is due: the backend's
scheduler hands over what its parties send at one nominal instant as one
*envelope* of ``(message, due)`` pairs, which its fault gate has already
run over (:mod:`repro.faults.plan`).  ``send`` frames it as **one data frame
per channel**::

    frame := length:u32  "D"  wire-seq:u64  count:u32  entry * count

(``entry`` is :mod:`~repro.runtime.wire`'s, ``due`` in its header.)  A
payload object that goes to several recipients in one envelope is encoded
once.  The receiver bounds ``count`` and every length by the bytes left
before it allocates, requires one ``(sender, recipient)`` channel per
envelope and that recipient to be the listener's party, dedupes and
acknowledges the frame as a whole, and hands each logical message to
``on_arrival(message, due)`` (the backend queues it at ``due``).  It decodes
through one :class:`~repro.runtime.wire.DecodeMemo` per ``open``: a residue
over any modulus but :attr:`TcpTransport.modulus` (the backend's field) is a
``WireDecodeError``, and each distinct bundle line is parsed once
(:attr:`TcpTransport.bundles_decoded` / :attr:`TcpTransport.bundle_memo_hits`).
Self-deliveries never touch a socket.  Wire seqs, ``ack_every`` and
``send_buffer_frames`` count *frames*; :attr:`TcpTransport.frames_sent` /
:attr:`TcpTransport.messages_framed` are the ledger.

One transport instance serves the *local* parties of its process:

* **Single process** (``AsyncioBackend(transport=TcpTransport())``): every
  party is local, each gets its own listener on an ephemeral localhost
  port, and every non-self message still crosses a real socket -- the
  wire-parity testing mode.
* **Multi process** (one OS process per party, spawned by
  :mod:`repro.runtime.launcher`): ``local_parties`` is a singleton, the
  ``roster`` maps every party id to its published ``(host, port)`` endpoint,
  and remote deliveries dial out with connect retries (peers come up in any
  order).

Self-healing channel layer
--------------------------

A dropped connection is no longer frame loss.  Every data frame carries a
per-channel wire sequence number and stays in a bounded send buffer until
the receiver acknowledges it (the writer sends from a cursor into that
buffer, so a wake costs the frames it writes, not the frames unacked); when
a connection breaks, the channel redials with exponential backoff plus
deterministic jitter and replays everything unacknowledged.  The receiver
deduplicates by sequence number, so replay is exactly-once end to end (a
*fault-injected* duplicate is two entries and still delivers twice, as the
fault contract requires).  The failure modes are typed (:mod:`repro.runtime.errors`):

* a frame that cannot be flushed within ``send_timeout`` raises
  :class:`SendTimeoutError` (the channel then tears down and retries);
* a replay buffer reaching ``send_buffer_frames`` raises
  :class:`SendBufferOverflowError` -- overflow would mean silent loss;
* a channel that exhausts ``max_reconnect_attempts`` surfaces
  :class:`ChannelBrokenError` (fatal via ``quiescent()`` in single-process
  mode; recorded in :attr:`broken_channels` and logged in multi-process
  mode, where a vanished peer may be a deliberate crash experiment and the
  supervisor owns the response).

``heartbeat_interval > 0`` additionally sends idle-channel heartbeats and
tracks per-peer last-heard times; :meth:`suspected` is the failure detector
a supervisor polls.

The transport keeps no fault state: crash-stop, drops, duplicates and
holds are the scheduler's gate, and WAN emulation is a fault plan's
``LinkLatency`` rules, which the scheduler adds to an entry's ``due`` at
dispatch, so nothing here sleeps on a frame.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import logging
import os
import socket
import struct
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.runtime.errors import (
    ChannelBrokenError,
    SendBufferOverflowError,
    SendTimeoutError,
    TransportError,
    WireDecodeError,
)
from repro.runtime.wire import (
    DecodeMemo,
    decode_envelope,
    encode_entry,
    encode_envelope,
    frame,
    read_frame,
)

_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")
#: Channel frame kinds: data (seq-numbered envelope), heartbeat, ack, and the
#: per-connection incarnation preamble (see ``TcpTransport.incarnation``).
_KIND_DATA, _KIND_HEARTBEAT, _KIND_ACK, _KIND_INCARNATION = b"D", b"H", b"A", b"I"

#: Distinguishes transport instances within one process; combined with the
#: OS pid it yields an incarnation id unique across process restarts.
_incarnation_counter = itertools.count(1)

_log = logging.getLogger("repro.runtime.tcp")


class _ChannelState:
    """Sender-side state of one self-healing outbound channel."""

    __slots__ = (
        "pending", "next_wseq", "acked", "event", "attempts",
        "ever_connected", "connected",
    )

    def __init__(self):
        #: wire-seq -> ready-to-write frame bytes, insertion == seq order.
        self.pending: "OrderedDict[int, bytes]" = OrderedDict()
        self.next_wseq = 1  # 0 means "nothing acked yet" in ack frames
        self.acked = 0
        self.event = asyncio.Event()
        self.attempts = 0  # consecutive failed dials since last success
        self.ever_connected = False
        self.connected = False


class TcpTransport:
    """Real-socket transport; see the module docstring for the two modes."""

    def __init__(
        self,
        roster: Optional[Dict[int, Tuple[str, int]]] = None,
        local_parties: Optional[Sequence[int]] = None,
        host: str = "127.0.0.1",
        connect_timeout: float = 15.0,
        heartbeat_interval: float = 0.0,
        heartbeat_timeout: Optional[float] = None,
        send_timeout: Optional[float] = None,
        send_buffer_frames: int = 8192,
        max_reconnect_attempts: int = 10,
        reconnect_base: float = 0.05,
        reconnect_cap: float = 1.0,
        reconnect_seed: int = 0,
        ack_every: int = 16,
    ):
        self.roster: Dict[int, Tuple[str, int]] = dict(roster or {})
        self.local_parties = set(local_parties) if local_parties is not None else None
        #: ``on_arrival(message, due)`` takes what comes off the wire (the
        #: backend's scheduler); set before the first frame arrives.
        self.on_arrival: Optional[Callable[[object, float], None]] = None
        #: The session field's modulus (the backend's, set with
        #: ``on_arrival``): a residue off the wire over any other is a
        #: ``WireDecodeError``.  None takes any.
        self.modulus: Optional[int] = None
        self.host = host
        self.connect_timeout = connect_timeout
        #: Idle seconds between heartbeats per channel (0 disables them).
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = (
            heartbeat_timeout
            if heartbeat_timeout is not None
            else (3.0 * heartbeat_interval if heartbeat_interval else None)
        )
        #: Per-frame drain timeout (None = wait forever, TCP's own timeouts).
        self.send_timeout = send_timeout
        #: Replay-buffer bound and ack cadence, both in *frames*; a frame is
        #: one channel's share of what one nominal instant sent.
        self.send_buffer_frames = send_buffer_frames
        self.max_reconnect_attempts = max_reconnect_attempts
        self.reconnect_base = reconnect_base
        self.reconnect_cap = reconnect_cap
        self.reconnect_seed = reconnect_seed
        self.ack_every = max(1, ack_every)
        #: Identifies this *instance* of the sender across process restarts.
        #: A supervisor-restarted party numbers its wire seqs from 1 again;
        #: without the incarnation preamble the receiver's dedupe high-water
        #: from the dead incarnation would silently swallow every frame the
        #: reborn process sends (and its stale re-acks would make the new
        #: sender prune frames it never delivered).
        self.incarnation = (
            ((os.getpid() & 0xFFFFFFFF) << 24)
            | (next(_incarnation_counter) & 0xFFFFFF)
        )

        self._servers: Dict[int, asyncio.base_events.Server] = {}
        self._channel_states: Dict[Tuple[int, int], _ChannelState] = {}
        self._writer_tasks: Dict[Tuple[int, int], asyncio.Task] = {}
        #: highest accepted wire seq per (sender, local recipient) channel.
        self._recv_wseq: Dict[Tuple[int, int], int] = {}
        #: sender incarnation the high-water mark belongs to, per channel.
        self._recv_incarnation: Dict[Tuple[int, int], int] = {}
        #: loop.time() of the last frame heard per (peer, local) channel.
        self._last_heard: Dict[Tuple[int, int], float] = {}
        #: channels that exhausted their reconnect budget (multi-process).
        self.broken_channels: Dict[Tuple[int, int], TransportError] = {}
        #: total reconnect dials that followed a successful connection (the
        #: self-healing activity counter benchmarks and tests read).
        self.reconnects = 0
        #: Data frames given a wire seq, and the logical messages in them
        #: (replays of a frame are not counted again).
        self.frames_sent = 0
        self.messages_framed = 0
        #: What the receive path decodes through, one per ``open``: the
        #: session modulus and the bundle memo (:mod:`repro.runtime.wire`).
        self._memo = DecodeMemo()
        #: local party -> bound socket handed over by :meth:`adopt_listener`.
        self._listeners: Dict[int, socket.socket] = {}
        self._local: Set[int] = set()
        self._has_remote = False
        self._inflight = 0
        self._closed = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._error: Optional[BaseException] = None

    # -- lifecycle ----------------------------------------------------------
    async def open(self, party_ids: Sequence[int]) -> None:
        self._loop = asyncio.get_running_loop()
        self._closed = False
        self._local = set(self.local_parties if self.local_parties is not None
                          else party_ids)
        all_ids = set(party_ids) | set(self.roster) | self._local
        self._has_remote = bool(all_ids - self._local)
        if self._has_remote:
            missing = [pid for pid in all_ids if pid not in self.roster]
            if missing:
                raise ValueError(f"roster missing endpoints for parties {missing}")
        self._channel_states = {}
        self._recv_wseq = {}
        self._recv_incarnation = {}
        self._last_heard = {}
        self.broken_channels = {}
        self.reconnects = 0
        self.frames_sent = 0
        self.messages_framed = 0
        self._memo = DecodeMemo(self.modulus)
        self._inflight = 0
        for pid in sorted(self._local):
            listener = self._listeners.pop(pid, None)
            if listener is not None:
                where: Dict[str, Any] = {"sock": listener}
            else:
                host, port = self.roster.get(pid, (self.host, 0))
                where = {"host": host, "port": port}
            server = await asyncio.start_server(self._make_handler(pid), **where)
            if pid not in self.roster:
                self.roster[pid] = server.sockets[0].getsockname()[:2]
            self._servers[pid] = server

    @property
    def bundles_decoded(self) -> int:
        """Bundle values read off the wire since ``open``."""
        return self._memo.decoded

    @property
    def bundle_memo_hits(self) -> int:
        """Of :attr:`bundles_decoded`, those the memo served unparsed."""
        return self._memo.hits

    def adopt_listener(self, party_id: int, listener: socket.socket) -> None:
        """Serve ``party_id`` on an already-bound socket (before ``open``).

        A launcher that picked the port keeps it bound and hands the socket
        down, so nothing else can be given the port between the roster
        being published and this process listening on it.  Without one,
        ``open`` binds the party's roster address itself.
        """
        self._listeners[party_id] = listener

    def quiescent(self) -> bool:
        """Whether nothing more can come in: no frame this process sent to
        its own parties is unread, and no peer process could still send."""
        if self._error is not None:
            raise self._error
        # With remote peers this process cannot observe global in-flight
        # traffic; the launcher's stop barrier governs exit instead.
        return not self._has_remote and self._inflight == 0

    def in_flight(self) -> int:
        """Messages on their way to this process's own parties (counted only
        when every party is local)."""
        if self._error is not None:
            raise self._error
        # Counted only when every party is local (see _stage).
        return self._inflight

    def prime_channel(self, sender: int, recipient: int) -> None:
        """Start the outbound channel's writer without queueing a data frame.

        Channels normally dial lazily on the first frame; the
        supervisor's eval-ready barrier primes them instead, so the dial
        (and any crash-restart backoff still in flight) is spent *before*
        a round-sensitive protocol starts pushing frames into a channel
        that is mid-heal.
        """
        if self._closed or recipient in self._local:
            return
        key = (sender, recipient)
        if key not in self._channel_states:
            state = self._channel_states[key] = _ChannelState()
            self._writer_tasks[key] = self._loop.create_task(
                self._channel_writer(key, state)
            )

    def channels_connected(self, sender: int, recipients: Sequence[int]) -> bool:
        """True iff the outbound channel to every remote recipient is live."""
        for recipient in recipients:
            if recipient in self._local:
                continue
            state = self._channel_states.get((sender, recipient))
            if state is None or not state.connected:
                return False
        return True

    def close(self) -> None:
        self._closed = True
        for task in self._writer_tasks.values():
            task.cancel()
        for server in self._servers.values():
            server.close()
        self._servers = {}
        self._writer_tasks = {}
        self._channel_states = {}

    # -- failure detection ---------------------------------------------------
    def suspected(self, timeout: Optional[float] = None) -> Set[int]:
        """Peers not heard from within ``timeout`` (heartbeat detector).

        Only peers heard from at least once are judged (a peer that never
        connected is the dial path's business), and only when heartbeats
        are enabled or an explicit timeout is given.
        """
        timeout = timeout if timeout is not None else self.heartbeat_timeout
        if timeout is None or self._loop is None:
            return set()
        now = self._loop.time()
        return {
            peer
            for (peer, _local), heard in self._last_heard.items()
            if peer not in self._local and now - heard > timeout
        }

    # -- receive path -------------------------------------------------------
    def _make_handler(self, pid: int):
        async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
            try:
                while True:
                    body = await read_frame(reader)
                    if self._closed:
                        break
                    kind = body[:1]
                    if kind == _KIND_INCARNATION:
                        peer = _U32.unpack_from(body, 1)[0]
                        incarnation = _U64.unpack_from(body, 5)[0]
                        channel = (peer, pid)
                        if self._recv_incarnation.get(channel) != incarnation:
                            # A *different process* now owns the sender side
                            # of this channel (supervisor crash-restart); it
                            # numbers wire seqs from 1 again, so the dead
                            # incarnation's dedupe high-water must go.
                            self._recv_incarnation[channel] = incarnation
                            self._recv_wseq[channel] = 0
                        continue
                    if kind == _KIND_HEARTBEAT:
                        peer = _U32.unpack_from(body, 1)[0]
                        self._last_heard[(peer, pid)] = self._loop.time()
                        # Ack back the channel high-water mark so idle
                        # senders prune their replay buffers.
                        acked = self._recv_wseq.get((peer, pid), 0)
                        writer.write(frame(_KIND_ACK + _U64.pack(acked)))
                        continue
                    if kind != _KIND_DATA:
                        continue  # unknown kind: ignore (forward compat)
                    if len(body) < 9:
                        raise WireDecodeError("data frame shorter than its wire seq")
                    wseq = _U64.unpack_from(body, 1)[0]
                    messages = decode_envelope(body, 9, self._memo)
                    # One channel per envelope (decode_envelope's check), so
                    # the first entry speaks for every entry's routing.
                    sender = messages[0].sender
                    if messages[0].recipient != pid:
                        raise WireDecodeError(
                            f"misrouted frame: {sender}->"
                            f"{messages[0].recipient} arrived at P{pid}'s listener"
                        )
                    channel = (sender, pid)
                    self._last_heard[channel] = self._loop.time()
                    if wseq <= self._recv_wseq.get(channel, 0):
                        # Replayed frame whose original landed: the whole
                        # envelope is dropped, exactly-once (fault-injected
                        # duplicates are two entries and still deliver
                        # twice).  Re-ack the high-water mark so the
                        # replaying sender prunes.
                        writer.write(frame(
                            _KIND_ACK + _U64.pack(self._recv_wseq[channel])
                        ))
                        continue
                    self._recv_wseq[channel] = wseq
                    if not self._has_remote:
                        self._inflight -= len(messages)
                    if wseq % self.ack_every == 0:
                        writer.write(frame(_KIND_ACK + _U64.pack(wseq)))
                    # One arrival per logical message, at the due instant the
                    # entry carries: nothing above the transport sees envelopes.
                    for message in messages:
                        self.on_arrival(message, message.send_time)
            except (asyncio.IncompleteReadError, ConnectionError):
                pass  # peer closed (reconnect or teardown) -- drain ends
            except asyncio.CancelledError:
                pass  # loop teardown cancels in-flight reads
            except Exception as exc:  # noqa: BLE001 - surface via quiescent()
                self._error = exc
            finally:
                writer.close()

        return handle

    # -- send path ----------------------------------------------------------
    def send(self, envelope: Sequence[Tuple[object, float]]) -> None:
        """Put ``(message, due)`` pairs on the wire now: each encoded into its
        channel's group in order, then one frame per channel."""
        if self._closed:
            return
        staged: Dict[Tuple[int, int], List[bytes]] = {}
        #: id(payload) -> encoding, for this call only: a fan-out's shared
        #: payload is encoded once, and nothing outlives the flush to be
        #: served stale after the object is mutated.
        memo: Dict[int, bytes] = {}
        for message, due in envelope:
            self._stage(message, due, staged, memo)
        for key, entries in staged.items():
            self._commit_frame(key, entries)

    def _stage(self, message, due: float, staged, memo) -> None:
        """Encode one transmission into its channel's group."""
        key = (message.sender, message.recipient)
        if not self._has_remote:
            self._inflight += 1
        entry = encode_entry(message, due, memo)
        group = staged.get(key)
        if group is None:
            staged[key] = [entry]
        else:
            group.append(entry)

    def _commit_frame(self, key: Tuple[int, int], entries: List[bytes]) -> None:
        """Sequence-number one envelope into the channel's replay buffer."""
        if self._closed:
            return
        state = self._channel_states.get(key)
        if state is None:
            state = self._channel_states[key] = _ChannelState()
            self._writer_tasks[key] = self._loop.create_task(
                self._channel_writer(key, state)
            )
        if (
            state.ever_connected
            and not state.connected
            and len(state.pending) >= self.send_buffer_frames
        ):
            # The bound polices accumulation across an *outage* -- exceeding
            # it there means the eventual reconnect-replay contract would
            # have to drop an unacknowledged frame, so fail loudly instead.
            # A live connection's unacked backlog is just socket/receiver
            # lag (unbounded before the self-healing layer existed, still
            # unbounded), and pre-first-connect accumulation is launch skew
            # on few-core hosts where process spawns serialize.
            error = SendBufferOverflowError(key[0], key[1], self.send_buffer_frames)
            if self._error is None:
                self._error = error
            raise error
        wseq = state.next_wseq
        state.next_wseq += 1
        state.pending[wseq] = frame(
            _KIND_DATA + _U64.pack(wseq) + encode_envelope(entries)
        )
        self.frames_sent += 1
        self.messages_framed += len(entries)
        state.event.set()

    # -- the self-healing channel writer ------------------------------------
    def _backoff_delay(self, key: Tuple[int, int], attempt: int) -> float:
        """Exponential backoff with deterministic (seeded-hash) jitter."""
        base = min(self.reconnect_cap, self.reconnect_base * (2 ** (attempt - 1)))
        digest = hashlib.sha256(
            f"rc:{self.reconnect_seed}:{key[0]}:{key[1]}:{attempt}".encode()
        ).digest()
        jitter = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return base * (1.0 + 0.5 * jitter)

    async def _drain(self, key: Tuple[int, int], writer: asyncio.StreamWriter) -> None:
        if self.send_timeout is None:
            await writer.drain()
            return
        try:
            await asyncio.wait_for(writer.drain(), self.send_timeout)
        except asyncio.TimeoutError:
            raise SendTimeoutError(key[0], key[1], self.send_timeout) from None

    async def _ack_pump(
        self,
        key: Tuple[int, int],
        reader: asyncio.StreamReader,
        state: _ChannelState,
    ) -> None:
        """Prune the replay buffer as the peer acknowledges frames."""
        try:
            while True:
                body = await read_frame(reader)
                if body[:1] != _KIND_ACK:
                    continue
                acked = _U64.unpack_from(body, 1)[0]
                if acked > state.acked:
                    state.acked = acked
                    while state.pending and next(iter(state.pending)) <= acked:
                        state.pending.popitem(last=False)
                state.attempts = 0  # the peer is alive and making progress
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            pass

    def _channel_broken(
        self, key: Tuple[int, int], state: _ChannelState, cause: BaseException
    ) -> None:
        sender, recipient = key
        if isinstance(cause, TransportError):
            error: TransportError = cause
        else:
            error = ChannelBrokenError(sender, recipient, state.attempts, cause)
        self.broken_channels[key] = error
        if self._has_remote:
            # The peer's process went away for good (crash experiments, or a
            # peer that exited after the stop barrier).  The supervisor owns
            # the response; unacknowledged frames to it are lost exactly
            # like packets to a dead host.
            _log.warning("%s", error)
        elif self._error is None:
            self._error = error

    async def _channel_writer(self, key: Tuple[int, int], state: _ChannelState) -> None:
        """One outbound channel: dial, replay unacked frames, pump, heal."""
        sender, recipient = key
        first_deadline = self._loop.time() + self.connect_timeout
        connected_before = False
        writer: Optional[asyncio.StreamWriter] = None
        ack_task: Optional[asyncio.Task] = None
        try:
            while not self._closed:
                host, port = self.roster[recipient]
                try:
                    reader, writer = await asyncio.open_connection(host, port)
                except OSError as exc:
                    if self._closed:
                        return
                    if not connected_before:
                        # Startup: peers come up in any order; retry fast
                        # within the connect budget.
                        if self._loop.time() > first_deadline:
                            self._channel_broken(key, state, exc)
                            return
                        await asyncio.sleep(0.02)
                        continue
                    state.attempts += 1
                    if state.attempts > self.max_reconnect_attempts:
                        self._channel_broken(key, state, exc)
                        return
                    await asyncio.sleep(self._backoff_delay(key, state.attempts))
                    continue
                if connected_before:
                    self.reconnects += 1
                connected_before = True
                state.ever_connected = True
                state.connected = True
                state.attempts = 0
                ack_task = self._loop.create_task(
                    self._ack_pump(key, reader, state)
                )
                try:
                    # Preamble: announce which incarnation of the sender is
                    # on the wire, so a receiver that outlived our previous
                    # process resets its dedupe state (same-incarnation
                    # reconnects keep it, which is what makes replay
                    # exactly-once).
                    writer.write(frame(
                        _KIND_INCARNATION + _U32.pack(sender)
                        + _U64.pack(self.incarnation)
                    ))
                    # Replay everything unacknowledged, then pump new frames.
                    # The buffer holds the contiguous seqs [first unacked,
                    # next_wseq), so the writer indexes from its cursor and
                    # a wake costs what it writes, not what is unacked.
                    cursor = next(iter(state.pending), state.next_wseq)
                    while True:
                        wrote = cursor < state.next_wseq
                        while cursor < state.next_wseq:
                            if writer.transport.is_closing():
                                # The peer dropped us mid-replay; stop
                                # queueing into a dead socket (asyncio
                                # warns per write) and redial.
                                raise ConnectionResetError(
                                    "peer closed during replay"
                                )
                            writer.write(state.pending[cursor])
                            cursor += 1
                        if wrote:
                            await self._drain(key, writer)
                        state.event.clear()
                        if cursor < state.next_wseq:
                            continue  # a frame raced the clear
                        if self.heartbeat_interval > 0:
                            try:
                                await asyncio.wait_for(
                                    state.event.wait(), self.heartbeat_interval
                                )
                            except asyncio.TimeoutError:
                                writer.write(frame(
                                    _KIND_HEARTBEAT + _U32.pack(sender)
                                ))
                                await self._drain(key, writer)
                        else:
                            await state.event.wait()
                except (ConnectionError, OSError, SendTimeoutError) as exc:
                    if self._closed:
                        return
                    state.attempts += 1
                    if state.attempts > self.max_reconnect_attempts:
                        self._channel_broken(key, state, exc)
                        return
                    await asyncio.sleep(self._backoff_delay(key, state.attempts))
                    continue  # redial and replay
                finally:
                    state.connected = False
                    if ack_task is not None:
                        ack_task.cancel()
                        ack_task = None
                    if writer is not None:
                        writer.close()
                        writer = None
        except asyncio.CancelledError:
            pass
        except Exception as exc:  # noqa: BLE001 - surface via quiescent()
            if self._has_remote:
                _log.warning("channel P%d->P%d failed: %r", sender, recipient, exc)
            elif self._error is None:
                self._error = exc
        finally:
            if ack_task is not None:
                ack_task.cancel()
            if writer is not None:
                writer.close()
