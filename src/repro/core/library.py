"""NewMadeleine: the communication library under study.

The structure follows the paper's Figure 1 exactly:

* the application submits messages to the **collect layer**
  (:class:`~repro.core.collect.CollectLayer`, per-peer lists);
* when a NIC is idle, the **optimization layer** (a
  :class:`~repro.core.strategies.Strategy`) assembles the best packet —
  aggregating, splitting, distributing over rails — and pushes it to
* the **transfer layer** (:class:`~repro.core.transfer.TransferLayer`,
  per-driver lists), drained into the NIC drivers.

Thread-safety is pluggable via :class:`~repro.core.locking.LockingPolicy`
(none / coarse / fine — §3.1-3.2), waiting via
:mod:`repro.core.waiting` (busy / passive / fixed-spin — §3.3), and the
submission path can be offloaded to other cores via
:mod:`repro.pioman.offload` (§4.2).

Lock discipline (one message, the common path):

* submission — ``send_section`` outer (coarse: the library lock), then
  ``collect_lock`` across deposit *and* the optimizer pass that reads the
  per-peer lists (fine: 1 cycle), then ``tx_lock`` across transfer-push and
  NIC drain (fine: 1 cycle);
* arrival — ``rx_lock`` across poll and matching (coarse: the library
  lock; fine: 1 cycle).

Hence coarse = 2 × 70 ns = 140 ns and fine = 3 × 70 + 20 ns = 230 ns per
message, the constants of Figure 3.

All public methods are generator functions: they run on whatever simulated
thread invokes them, so the same code executes in an application thread, a
PIOMan idle hook, or a tasklet — placement is the experiment.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import TYPE_CHECKING

from repro.core.collect import CollectLayer
from repro.core.costmodel import CostModel
from repro.core.locking import LockingPolicy, make_policy
from repro.core.matching import MatchingTable, UnexpectedRts
from repro.core.packets import Chunk, Packet, PacketKind, cts_packet
from repro.core.requests import ReqState, RecvRequest, SendRequest, tag_accepts
from repro.core.strategies import DefaultStrategy, Plan, Strategy
from repro.core.transfer import TransferLayer
from repro.sim.machine import Machine
from repro.sim.process import Acquire, Delay, Release, SimGen, TryAcquire, WhereAmI

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.drivers.base import Driver

_node_ids = itertools.count(0)


class NewMadeleine:
    """One node's communication library instance.

    Args:
        machine: the node this library runs on.
        drivers: local drivers (NIC ports) the library may use.
        policy: locking policy name (``"none"``/``"coarse"``/``"fine"``) or
            a :class:`LockingPolicy` instance.
        costs: library cost calibration.
        strategy: optimization-layer strategy (default:
            :class:`~repro.core.strategies.DefaultStrategy`).
        node_id: explicit node id (auto-assigned when omitted).
    """

    def __init__(
        self,
        machine: Machine,
        drivers: list["Driver"],
        *,
        policy: str | LockingPolicy = "fine",
        costs: CostModel | None = None,
        strategy: Strategy | None = None,
        node_id: int | None = None,
    ) -> None:
        if not drivers:
            raise ValueError("NewMadeleine needs at least one driver")
        self.machine = machine
        self.drivers = list(drivers)
        self.costs = costs or CostModel()
        if isinstance(policy, str):
            policy = make_policy(
                policy, self.costs.sim, fine_extra_ns=self.costs.fine_extra_ns
            )
        self.policy = policy
        self.strategy = strategy or DefaultStrategy()
        self.node_id = next(_node_ids) if node_id is None else node_id

        self.collect = CollectLayer()
        self.transfer = TransferLayer(self.drivers)
        self.matching = MatchingTable()

        #: peer node id -> rails (subset of self.drivers) reaching it
        self._peers: dict[int, list[Driver]] = {}
        #: in-flight sends by request id (needed to complete on post / CTS)
        self._send_reqs: dict[int, SendRequest] = {}
        #: CTS control messages owed to peers: (dst_node, send_req_id)
        self._pending_cts: deque[tuple[int, int]] = deque()
        #: rendezvous sends whose CTS arrived, awaiting data-packet assembly
        self._pending_rdv_data: deque[int] = deque()
        #: progression engine attached by repro.pioman (optional)
        self.pioman = None
        #: submission-offload mode attached by repro.pioman.offload
        #: (None = inline submission)
        self.submit_offload = None

        # statistics
        self.isend_count = 0
        self.irecv_count = 0
        self.packets_posted = {k: 0 for k in PacketKind}
        self.progress_passes = 0

        # reusable effect objects for the fixed-cost yields of the progress
        # and submission paths.  The scheduler only reads effects, and the
        # lock points are structurally fixed per policy, so one instance of
        # each serves every pass — this removes an allocation per yield from
        # the hottest generator loops.
        self._eff_doorbell = Delay(self.costs.doorbell_ns, "poll")
        self._eff_sched_scan = Delay(self.costs.sched_scan_ns, "poll")
        self._eff_match = Delay(self.costs.match_ns, "overhead")
        self._eff_complete = Delay(self.costs.complete_ns, "overhead")
        self._eff_optimizer = Delay(self.costs.optimizer_pass_ns, "overhead")
        self._eff_submit = Delay(
            self.costs.submit_ns + self.policy.per_message_extra_ns, "overhead"
        )
        self._eff_recv_post = Delay(self.costs.recv_post_ns, "overhead")
        self._acq_send = Acquire(self.policy.send_section())
        self._rel_send = Release(self.policy.send_section())
        self._acq_collect = Acquire(self.policy.collect_lock())
        self._rel_collect = Release(self.policy.collect_lock())
        #: per-driver (Acquire, Release) pairs for the rx/tx lock points
        self._rx_eff: dict[str, tuple[Acquire, Release]] = {}
        self._tx_eff: dict[str, tuple[Acquire, Release]] = {}
        #: per-driver answer of ``policy.poll_needs_lock`` (fixed per driver)
        self._poll_locked: dict[str, bool] = {}

    def _rx_lock_eff(self, driver: "Driver") -> tuple[Acquire, Release]:
        eff = self._rx_eff.get(driver.name)
        if eff is None:
            lock = self.policy.rx_lock(driver)
            eff = (Acquire(lock), Release(lock))
            self._rx_eff[driver.name] = eff
        return eff

    def _tx_lock_eff(self, driver: "Driver") -> tuple[Acquire, Release]:
        eff = self._tx_eff.get(driver.name)
        if eff is None:
            lock = self.policy.tx_lock(driver)
            eff = (Acquire(lock), Release(lock))
            self._tx_eff[driver.name] = eff
        return eff

    # ------------------------------------------------------------------ wiring

    def add_peer(self, node_id: int, rails: list["Driver"]) -> None:
        """Declare that ``rails`` reach the library of ``node_id``."""
        if node_id == self.node_id:
            raise ValueError("a node cannot peer with itself")
        if not rails:
            raise ValueError("need at least one rail to a peer")
        for rail in rails:
            if rail not in self.drivers:
                raise ValueError(f"driver {rail.name!r} does not belong to this library")
        self._peers[node_id] = list(rails)

    def add_rail(self, peer: int, driver: "Driver") -> None:
        """Attach an additional rail to an existing peer (e.g. a second,
        heterogeneous NIC added after construction)."""
        if peer not in self._peers:
            raise LookupError(f"unknown peer {peer}")
        if driver not in self.drivers:
            self.drivers.append(driver)
            self.transfer.add_driver(driver)
        self._peers[peer].append(driver)

    def rails(self, peer: int) -> list["Driver"]:
        try:
            return self._peers[peer]
        except KeyError:
            raise LookupError(f"unknown peer {peer} (known: {sorted(self._peers)})") from None

    @property
    def peers(self) -> list[int]:
        return sorted(self._peers)

    # ------------------------------------------------------------------ helpers

    def _is_eager(self, peer: int, size: int) -> bool:
        rail = self.rails(peer)[0]
        return size <= min(self.costs.rdv_threshold_bytes, rail.caps.eager_max_bytes)

    def has_work(self) -> bool:
        """Lock-free doorbell check: is there anything a progress pass would
        do right now?  (Real drivers read a completion counter without
        taking any lock.)"""
        for d in self.drivers:
            if d.rx_pending:
                return True
        return self._send_work_pending()

    def pending_incomplete(self) -> int:
        """Unfinished send requests the library still tracks."""
        return len(self._send_reqs)

    def has_pending_requests(self) -> bool:
        """Any request (send or posted/partial receive) still in flight?"""
        return bool(
            self._send_reqs
            or self.matching.posted_count
            or self.matching.in_progress_count
        )

    # ------------------------------------------------------------------ API

    def isend(self, peer: int, tag: int, size: int, *, payload=None) -> SimGen:
        """Non-blocking send (``nm_isend``): returns a
        :class:`SendRequest`.

        The message is deposited in the collect layer; with inline
        submission (the default) the same library entry runs the optimizer
        and transmits, which is the paper's coarse-grain accounting of one
        submission entry per message.

        ``payload`` optionally attaches an application object that the
        matching receive will surface (costs are driven by ``size`` only).
        """
        rails = self.rails(peer)
        req = SendRequest(
            self.machine, peer, tag, size, eager=self._is_eager(peer, size)
        )
        req.payload = payload
        self._send_reqs[req.req_id] = req
        self.isend_count += 1
        req.stamp("submitted")
        req.submit_core = yield WhereAmI()
        inline = self.submit_offload is None
        yield self._acq_send
        yield self._acq_collect
        yield self._eff_submit
        self.collect.submit(req)
        if inline and any(d.tx_idle for d in rails):
            yield self._eff_optimizer
            plan = self.strategy.assemble(self, peer, rails)
            if plan:
                # the transfer push nests inside the collect hold
                # (collect -> tx order everywhere): two concurrent flushers
                # must not invert the pop order on the wire
                yield from self._push_and_drain(plan)
        yield self._rel_collect
        yield self._rel_send
        if not inline:
            yield from self.submit_offload.after_submit(self, peer)
        return req

    def irecv(self, peer: int, tag: int, size: int, *, tag_bounds=None) -> SimGen:
        """Non-blocking receive (``nm_irecv``): returns a
        :class:`RecvRequest`.

        Posting is lock-free (MPSC posted-receive list).  Unexpected
        arrivals stashed earlier are claimed immediately; an unexpected
        rendezvous announcement queues its CTS for the next progress pass.
        ``tag_bounds`` confines a wildcard tag to a range (communicator
        context isolation).
        """
        self.rails(peer)
        req = RecvRequest(self.machine, peer, tag, size, tag_bounds=tag_bounds)
        req.stamp("posted")
        self.irecv_count += 1
        yield self._eff_recv_post
        claimed = self.matching.take_unexpected(req)
        if claimed is None:
            self.matching.post(req)
        else:
            yield from self._claim_unexpected(req, claimed)
        return req

    def progress(self, early_exit=None) -> SimGen:
        """One pass of the progression engine; returns True if it did work.

        Structure per pass: (1) lock-free doorbell read; (2) flush of fresh
        submissions; (3) arrival processing per driver, polls locked per
        the policy; (4) the scheduler scan and remaining send-side work.

        ``early_exit`` is the waiter's fast path: ``nm_wait`` re-checks its
        own request between the pass's sections and leaves the engine as
        soon as the request is visibly complete, instead of finishing the
        full scan first.
        """
        self.progress_passes += 1
        yield self._eff_doorbell
        did = False
        # fresh submissions first: an offloaded isend sits in the collect
        # layer, and flushing it before the (expensive) poll keeps the
        # idle-core submission path short (§4.2)
        if self.collect.has_pending and any(d.tx_idle for d in self.drivers):
            yield self._acq_send
            sent = yield from self._send_side_pass()
            yield self._rel_send
            did = did or sent
        for driver in self.drivers:
            # under coarse locking even an empty poll is a library entry
            # and takes the library lock — the serialisation of Fig. 5.
            # Finer policies probe thread-safe NICs lock-free; the pop and
            # the processing always share one rx-lock hold, so concurrent
            # pollers can never process arrivals out of order.
            locked_poll = self._poll_locked.get(driver.name)
            if locked_poll is None:
                locked_poll = self.policy.poll_needs_lock(driver)
                self._poll_locked[driver.name] = locked_poll
            probed = False
            if not locked_poll and not driver.rx_pending:
                pending = yield from driver.probe()  # lock-free fast path
                if not pending:
                    continue
                probed = True
            acq, rel = self._rx_lock_eff(driver)
            yield acq
            packet = yield from driver.poll(after_probe=probed)
            if packet is not None:
                yield from self._handle_packet(packet)
                did = True
            yield rel
            if did and early_exit is not None and early_exit():
                return True
        # the scheduler scan every entry performs (walking peer/driver
        # lists); reading the list heads is lock-free
        yield self._eff_sched_scan
        if self._send_work_pending():
            yield self._acq_send
            sent = yield from self._send_side_pass()
            yield self._rel_send
            did = did or sent
        return did

    def try_progress_inline(self) -> SimGen:
        """Interrupt-context progress pass (timer / context-switch hooks).

        Restricted to the inline effect vocabulary
        (:func:`repro.sim.process.run_inline`): locks are only *tried*, and
        the pass bails out on contention instead of spinning — a real
        scheduler cannot spin inside an interrupt.  Handles arrivals only
        (the latency-critical work); send-side flushing stays with the
        ordinary passes.

        Returns True if an arrival was processed.
        """
        did = False
        for driver in self.drivers:
            if not driver.rx_pending:
                continue
            lock = self.policy.rx_lock(driver)
            got = yield TryAcquire(lock)
            if not got:
                continue
            packet = yield from driver.poll()
            if packet is not None:
                yield from self._handle_packet(packet)
                did = True
            yield Release(lock)
        return did

    def flush(self) -> SimGen:
        """Run send-side work only (offloaded submission entry point)."""
        if not self._send_work_pending():
            return False
        yield self._acq_send
        did = yield from self._send_side_pass()
        yield self._rel_send
        return did

    def wait(self, req, strategy=None) -> SimGen:
        """Block until ``req`` completes (``nm_wait``).

        ``strategy`` is a :class:`repro.core.waiting.WaitStrategy`; the
        default busy-waits by driving :meth:`progress`.
        """
        if strategy is None:
            strategy = _DEFAULT_BUSY_WAIT
        yield from strategy.wait(self, req)
        return req

    def test(self, req) -> SimGen:
        """Non-blocking completion check (``nm_test``): one progress pass,
        then report whether the request is visibly complete."""
        core = yield WhereAmI()
        if req.completion.visible(core):
            return True
        yield from self.progress()
        return req.completion.visible(core)

    def cancel_recv(self, req: RecvRequest) -> SimGen:
        """Cancel a posted receive that has not started matching.

        Succeeds (returns True) only while the request still sits unmatched
        in the posted list; a receive whose data (or rendezvous handshake)
        already began cannot be cancelled — MPI_Cancel semantics.  A
        cancelled request completes immediately with ``cancelled=True``.
        """
        if not isinstance(req, RecvRequest):
            raise TypeError("cancel_recv takes a RecvRequest")
        core = yield WhereAmI()
        yield Delay(self.costs.match_ns, "overhead")
        if req.done or req.state is not ReqState.PENDING:
            return False
        removed = self.matching.remove_posted(req)
        if not removed:
            return False
        req.cancelled = True
        yield Delay(self.costs.complete_ns, "overhead")
        req.complete(core=core)
        return True

    def probe(self, peer: int, tag: int, *, tag_bounds=None) -> SimGen:
        """Non-blocking probe: has a matching message arrived that no
        posted receive claimed yet?  Returns ``(found, size, tag)``.

        Reports the stashed arrival (eager data or rendezvous announcement)
        that an ``irecv`` with the same arguments would claim; runs one
        progress pass first so freshly-delivered packets are visible
        (``MPI_Iprobe`` semantics).
        """
        self.rails(peer)
        yield from self.progress()
        yield Delay(self.costs.match_ns, "overhead")
        entry = self.matching.find_unexpected(
            peer, lambda t: tag_accepts(tag, tag_bounds, t)
        )
        if entry is None:
            return False, None, None
        return True, entry.msg_size, entry.tag

    # ------------------------------------------------------------ receive path

    def _claim_unexpected(
        self, req: RecvRequest, claimed: UnexpectedRts | list[Chunk]
    ) -> SimGen:
        """Serve a fresh receive from the stashed arrival it claimed: start
        the rendezvous, or deliver the stashed chunks."""
        if isinstance(claimed, UnexpectedRts):
            yield Delay(self.costs.match_ns, "overhead")
            if req.size < claimed.msg_size:
                raise RuntimeError(
                    f"receive buffer ({req.size} B) smaller than announced "
                    f"rendezvous ({claimed.msg_size} B)"
                )
            self.matching.register_in_progress(claimed.src_node, claimed.send_req_id, req)
            req.state = ReqState.IN_TRANSIT
            self._pending_cts.append((claimed.src_node, claimed.send_req_id))
            self._poke_progress()
            return
        core = yield WhereAmI()
        done = False
        for chunk in claimed:
            yield Delay(self.costs.match_ns, "overhead")
            if self.matching.finish_chunk(chunk, req):
                done = True
        if done:
            yield Delay(self.costs.complete_ns, "overhead")
            req.complete(core=core)
        else:
            req.state = ReqState.IN_TRANSIT
            first = claimed[0]
            self.matching.register_in_progress(first.src_node, first.send_req_id, req)

    def _handle_packet(self, packet: Packet) -> SimGen:
        """Process one arrived packet (caller holds the rx lock)."""
        core = yield WhereAmI()
        if packet.kind is PacketKind.DATA:
            for chunk in packet.chunks:
                yield self._eff_match
                req = self.matching.match_chunk(chunk)
                if req is None:
                    continue  # stashed as unexpected
                if packet.arrived_at is not None:
                    req.stamp("arrived", packet.arrived_at)
                req.stamp("matched")
                if req.state is ReqState.PENDING:
                    req.state = ReqState.IN_TRANSIT
                if self.matching.finish_chunk(chunk, req):
                    yield self._eff_complete
                    req.complete(core=core)
        elif packet.kind is PacketKind.RTS:
            yield self._eff_match
            req = self.matching.match_rts(
                packet.src_node, packet.rdv_req_id, packet.rdv_tag, packet.rdv_size
            )
            if req is not None:
                req.state = ReqState.IN_TRANSIT
                self._pending_cts.append((packet.src_node, packet.rdv_req_id))
        elif packet.kind is PacketKind.CTS:
            if packet.rdv_req_id not in self._send_reqs:
                raise RuntimeError(
                    f"CTS for unknown send request {packet.rdv_req_id}"
                )
            self._pending_rdv_data.append(packet.rdv_req_id)
        else:  # pragma: no cover - enum is exhaustive
            raise RuntimeError(f"unhandled packet kind {packet.kind}")

    # ------------------------------------------------------------ send path

    def _send_work_pending(self) -> bool:
        if self._pending_cts or self._pending_rdv_data:
            return True
        if self.collect.has_pending:
            for d in self.drivers:
                if d.tx_idle:
                    return True
        if self.transfer.has_pending:
            for d in self.drivers:
                if d.tx_idle and self.transfer.pending(d):
                    return True
        return False

    def _send_side_pass(self) -> SimGen:
        """Flush owed control packets, assemble data packets, drain the
        transfer queues (caller holds the policy's send section)."""
        plan: Plan = []
        # 1. owed CTS responses
        while self._pending_cts:
            dst, req_id = self._pending_cts.popleft()
            packet = cts_packet(
                self.node_id, dst, req_id, header_bytes=self.costs.header_bytes
            )
            plan.append((self.rails(dst)[0], packet))
        # 2. rendezvous data whose CTS arrived
        while self._pending_rdv_data:
            req_id = self._pending_rdv_data.popleft()
            req = self._send_reqs[req_id]
            yield self._eff_optimizer
            plan.extend(self.strategy.make_rdv_data(self, req, self.rails(req.peer)))
        did = bool(plan)
        if plan:
            yield from self._push_and_drain(plan)
            plan = []
        # 3. optimizer over peers with pending collect entries (the packet
        #    scheduler iterates the per-peer lists under the collect lock;
        #    the transfer push nests inside the hold so concurrent flushers
        #    cannot invert the wire order)
        if self.collect.has_pending:
            yield self._acq_collect
            for peer in self.collect.peers_with_pending():
                rails = self.rails(peer)
                if not any(d.tx_idle for d in rails):
                    continue
                yield self._eff_optimizer
                plan.extend(self.strategy.assemble(self, peer, rails))
            if plan:
                did = True
                yield from self._push_and_drain(plan)
            yield self._rel_collect
        # 4. leftover transfer-queue entries (queued while the NIC was busy)
        for driver in self.drivers:
            if self.transfer.pending(driver) and driver.tx_idle:
                acq, rel = self._tx_lock_eff(driver)
                yield acq
                while driver.tx_idle:
                    packet = self.transfer.pop(driver)
                    if packet is None:
                        break
                    yield from self._post_packet(driver, packet)
                    did = True
                yield rel
        return did

    def _push_and_drain(self, plan: Plan) -> SimGen:
        """Queue assembled packets and push them through to the NIC — one
        tx-lock cycle per driver touched.  Freshly-assembled packets are
        posted unconditionally (the submission entry transmits its own
        message, spinning for a NIC credit if needed); anything already
        queued behind them drains too."""
        by_driver: dict[str, tuple["Driver", list[Packet]]] = {}
        for driver, packet in plan:
            by_driver.setdefault(driver.name, (driver, []))[1].append(packet)
        for driver, packets in by_driver.values():
            acq, rel = self._tx_lock_eff(driver)
            yield acq
            for packet in packets:
                self.transfer.push(driver, packet)
            while True:
                packet = self.transfer.pop(driver)
                if packet is None:
                    break
                yield from self._post_packet(driver, packet)
            yield rel

    def _descriptor_transfer_ns(self, packet: Packet, core: int) -> int:
        """Cache-transfer price of posting a packet whose send was submitted
        on another core (paper §4.2: ~400 ns across an L2 boundary)."""
        req_id = None
        if packet.kind is PacketKind.DATA and packet.chunks:
            req_id = packet.chunks[0].send_req_id
        elif packet.kind is PacketKind.RTS:
            req_id = packet.rdv_req_id
        if req_id is None:
            return 0
        sreq = self._send_reqs.get(req_id)
        if sreq is None or sreq.submit_core is None:
            return 0
        return self.machine.transfer_ns(sreq.submit_core, core)

    def _post_packet(self, driver: "Driver", packet: Packet) -> SimGen:
        """Inject one packet and complete the sends it finishes (caller
        holds the tx lock)."""
        core = yield WhereAmI()
        transfer = self._descriptor_transfer_ns(packet, core)
        if transfer:
            self.machine.transfer_charged_ns += transfer
            yield Delay(transfer, "overhead")
        yield from driver.post_send(packet)
        self.packets_posted[packet.kind] += 1
        if packet.kind is not PacketKind.DATA:
            return
        for chunk in packet.chunks:
            sreq = self._send_reqs.get(chunk.send_req_id)
            if sreq is None:
                raise RuntimeError(f"posting chunk of unknown send {chunk.send_req_id}")
            sreq.stamp("injected")
            sreq.add_bytes(chunk.length)
            if sreq.state in (ReqState.PENDING, ReqState.RTS_SENT):
                sreq.state = ReqState.IN_TRANSIT
            if sreq.all_bytes_done:
                yield self._eff_complete
                sreq.complete(core=core)
                del self._send_reqs[sreq.req_id]

    # ------------------------------------------------------------ progression

    def _poke_progress(self) -> None:
        """Nudge whatever background progression exists (idle loops)."""
        self.machine.scheduler.poke_idle()

    def __repr__(self) -> str:
        return (
            f"<NewMadeleine node={self.node_id} policy={self.policy.name} "
            f"strategy={self.strategy.name} drivers={[d.name for d in self.drivers]}>"
        )


# imported at the bottom to dodge the module cycle; BusyWait is stateless,
# so every default nm_wait shares one instance
from repro.core.waiting import BusyWait as _BusyWait  # noqa: E402

_DEFAULT_BUSY_WAIT = _BusyWait()
