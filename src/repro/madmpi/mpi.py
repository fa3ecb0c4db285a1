"""Mad-MPI: the MPI interface of NewMadeleine.

"NEWMADELEINE implements both a specific API and a MPI interface called
Mad-MPI" (paper §2).  This module provides that interface over the
simulated library: communicators with ranks, blocking and non-blocking
point-to-point, object-mode convenience calls, request completion, and
MPI thread-support levels — the subject of §3 ("In MPI, this level is
known as MPI_THREAD_MULTIPLE").

Every operation is a simulated-thread generator, so hybrid applications
spawn several Marcel threads per rank and call the communicator from all
of them (legal under ``ThreadLevel.MULTIPLE``, detected and rejected
under the lower levels).
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Sequence, TYPE_CHECKING

from repro.core.library import NewMadeleine
from repro.core.requests import Request
from repro.core.waiting import BusyWait, WaitStrategy
from repro.madmpi.datatypes import BYTE, Datatype
from repro.madmpi.status import ANY_TAG, MPIError, Status, ThreadLevel
from repro.sim.process import SimGen, WhoAmI, YieldCore

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.session import TestBed

#: user tags live below this; collectives use the space above
MAX_USER_TAG = (1 << 16) - 1
_COLL_TAG_BASE = 1 << 20


class MPIRequest:
    """Handle returned by ``Isend``/``Irecv`` (wraps a core request)."""

    def __init__(
        self, core_req: Request, *, is_recv: bool, peer_rank: int, comm: "Communicator"
    ) -> None:
        self._core = core_req
        self.is_recv = is_recv
        #: the communicator-level rank of the peer (node ids stay internal)
        self.peer_rank = peer_rank
        self._comm = comm

    @property
    def done(self) -> bool:
        return self._core.done

    @property
    def payload(self) -> Any:
        return self._core.payload

    @property
    def cancelled(self) -> bool:
        return self._core.cancelled

    def status(self) -> Status:
        """Status of a completed receive."""
        if not self._core.done:
            raise MPIError("status of an incomplete request")
        # receives report what actually arrived (object-mode posts an
        # oversized buffer); sends report what was sent
        core = self._core
        count = core.bytes_done if self.is_recv else core.size
        wire_tag = core.matched_tag if self.is_recv else core.tag
        return Status(
            source=self.peer_rank,
            tag=self._comm._user_tag(wire_tag),
            count_bytes=count,
        )

    def __repr__(self) -> str:
        kind = "recv" if self.is_recv else "send"
        return f"<MPIRequest {kind} {self._core!r}>"


def _object_size(obj: Any) -> int:
    """Byte-size estimate for object-mode messages."""
    if obj is None:
        return 1
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    nbytes = getattr(obj, "nbytes", None)  # numpy arrays
    if isinstance(nbytes, int):
        return nbytes
    if isinstance(obj, (list, tuple)):
        return max(1, 8 * len(obj))
    return max(1, sys.getsizeof(obj) - sys.getsizeof(object()))


class Communicator:
    """One rank's view of a communicator.

    Create via :func:`create_world`; ``comm.rank``/``comm.size`` follow
    MPI conventions.  Point-to-point methods come in two flavours, like
    mpi4py: capitalised buffer-mode (explicit count × datatype) and
    lowercase object-mode (size estimated from the Python object).
    """

    def __init__(
        self,
        lib: NewMadeleine,
        rank: int,
        size: int,
        *,
        thread_level: ThreadLevel = ThreadLevel.MULTIPLE,
        wait_factory: Callable[[], WaitStrategy] = BusyWait,
        context: int = 0,
        rank_to_node: Sequence[int] | None = None,
    ) -> None:
        if not 0 <= rank < size:
            raise ValueError(f"rank {rank} outside communicator of size {size}")
        self.lib = lib
        self.rank = rank
        self.size = size
        self.thread_level = thread_level
        self.wait_factory = wait_factory
        self._context = context
        #: rank -> node id translation (identity in COMM_WORLD; arbitrary
        #: in communicators produced by Split)
        self._rank_to_node: list[int] = (
            list(range(size)) if rank_to_node is None else list(rank_to_node)
        )
        if len(self._rank_to_node) != size:
            raise ValueError("rank_to_node must have one entry per rank")
        self._coll_seq = 0
        self._inside: set[int] = set()  # thread ids currently in MPI calls
        self._main_thread_tid: int | None = None

    def _node_of(self, rank: int) -> int:
        return self._rank_to_node[rank]

    # ------------------------------------------------------------- internals

    def _check_rank(self, rank: int, what: str) -> None:
        if not 0 <= rank < self.size:
            raise MPIError(f"{what} rank {rank} outside 0..{self.size - 1}")
        if rank == self.rank:
            raise MPIError(f"self-{what} is not supported by Mad-MPI")

    # ------------------------------------------------------------- split

    def Split(self, color: int, key: int | None = None) -> SimGen:
        """MPI_Comm_split: partition the communicator by ``color``.

        Every rank calls Split; ranks sharing a color form a new
        communicator, ordered by ``(key, old rank)`` (``key`` defaults to
        the old rank).  The new communicator gets its own context, so its
        traffic can never match the parent's or a sibling's.
        ``color=None`` (MPI_UNDEFINED) returns None for that rank.
        """
        key = self.rank if key is None else key
        entries = yield from self.Allgather((color, key, self.rank))
        if color is None:
            return None
        group = sorted(
            (k, old_rank, c)
            for c, k, old_rank in entries
            if c == color
        )
        new_rank = next(
            i for i, (_, old_rank, _) in enumerate(group) if old_rank == self.rank
        )
        # deterministic context id shared by the group: derived from the
        # parent context, the color's position among colors, and a split
        # counter encoded in the collective sequence the Allgather consumed
        colors = sorted({c for c, _, _ in entries if c is not None})
        context = (
            self._context * 131 + colors.index(color) + self._coll_seq * 17 + 1
        )
        return Communicator(
            self.lib,
            new_rank,
            len(group),
            thread_level=self.thread_level,
            wait_factory=self.wait_factory,
            context=context,
            rank_to_node=[self._node_of(old_rank) for _, old_rank, _ in group],
        )

    def _check_tag(self, tag: int, *, recv: bool) -> None:
        if tag == ANY_TAG and recv:
            return
        if tag >= _COLL_TAG_BASE:  # internal collective tag space
            return
        if not 0 <= tag <= MAX_USER_TAG:
            raise MPIError(f"tag {tag} outside 0..{MAX_USER_TAG}")

    def _wire_tag(self, tag: int) -> int:
        if tag == ANY_TAG:
            return ANY_TAG
        return self._context * (_COLL_TAG_BASE << 4) + tag

    def _user_tag(self, wire_tag: int) -> int:
        """The tag the application used, from its wire tag (the inverse
        of :meth:`_wire_tag`)."""
        if wire_tag == ANY_TAG:
            return ANY_TAG
        return wire_tag - self._context * (_COLL_TAG_BASE << 4)

    def _tag_bounds(self, tag: int) -> tuple[int, int] | None:
        """Wire-tag range a wildcard receive or probe may match: this
        communicator's tag space only."""
        if tag != ANY_TAG:
            return None
        base = self._wire_tag(0)
        return (base, base + (_COLL_TAG_BASE << 4) - 1)

    def _enter(self) -> SimGen:
        """Thread-level bookkeeping around every MPI call."""
        thread = yield WhoAmI()
        tid = thread.tid
        if self._main_thread_tid is None:
            self._main_thread_tid = tid
        level = self.thread_level
        if level is ThreadLevel.SINGLE and tid != self._main_thread_tid:
            raise MPIError(
                "MPI_THREAD_SINGLE: only the initial thread may call MPI"
            )
        if level is ThreadLevel.FUNNELED and tid != self._main_thread_tid:
            raise MPIError(
                "MPI_THREAD_FUNNELED: only the main thread may call MPI"
            )
        if level is ThreadLevel.SERIALIZED and self._inside:
            raise MPIError(
                f"MPI_THREAD_SERIALIZED: thread {tid} entered MPI while "
                f"threads {sorted(self._inside)} were still inside — the "
                "application must serialize its MPI calls"
            )
        if level is not ThreadLevel.MULTIPLE and self._inside:
            raise MPIError(
                f"{level.name}: concurrent MPI calls detected "
                f"(threads {sorted(self._inside)} and {tid})"
            )
        self._inside.add(tid)
        return tid

    def _exit(self, tid: int) -> None:
        self._inside.discard(tid)

    # ------------------------------------------------------------- p2p (buffer)

    def Isend(
        self,
        dest: int,
        count: int,
        datatype: Datatype = BYTE,
        tag: int = 0,
        *,
        payload: Any = None,
    ) -> SimGen:
        """Non-blocking buffer-mode send; returns an :class:`MPIRequest`."""
        self._check_rank(dest, "send")
        self._check_tag(tag, recv=False)
        tid = yield from self._enter()
        try:
            req = yield from self.lib.isend(
                self._node_of(dest),
                self._wire_tag(tag),
                datatype.extent(count),
                payload=payload,
            )
        finally:
            self._exit(tid)
        return MPIRequest(req, is_recv=False, peer_rank=dest, comm=self)

    def Irecv(
        self, source: int, count: int, datatype: Datatype = BYTE, tag: int = 0
    ) -> SimGen:
        """Non-blocking buffer-mode receive; returns an :class:`MPIRequest`."""
        self._check_rank(source, "recv")
        self._check_tag(tag, recv=True)
        tid = yield from self._enter()
        try:
            req = yield from self.lib.irecv(
                self._node_of(source),
                self._wire_tag(tag),
                datatype.extent(count),
                tag_bounds=self._tag_bounds(tag),
            )
        finally:
            self._exit(tid)
        return MPIRequest(req, is_recv=True, peer_rank=source, comm=self)

    def Send(
        self,
        dest: int,
        count: int,
        datatype: Datatype = BYTE,
        tag: int = 0,
        *,
        payload: Any = None,
    ) -> SimGen:
        """Blocking send (complete when locally done, MPI semantics)."""
        req = yield from self.Isend(dest, count, datatype, tag, payload=payload)
        yield from self.Wait(req)

    def Recv(
        self, source: int, count: int, datatype: Datatype = BYTE, tag: int = 0
    ) -> SimGen:
        """Blocking receive; returns ``(payload, Status)``."""
        req = yield from self.Irecv(source, count, datatype, tag)
        yield from self.Wait(req)
        return req.payload, req.status()

    def Sendrecv(
        self,
        dest: int,
        send_count: int,
        source: int,
        recv_count: int,
        datatype: Datatype = BYTE,
        sendtag: int = 0,
        recvtag: int = 0,
        *,
        payload: Any = None,
    ) -> SimGen:
        """Combined send+receive (deadlock-free exchange)."""
        rreq = yield from self.Irecv(source, recv_count, datatype, recvtag)
        sreq = yield from self.Isend(dest, send_count, datatype, sendtag, payload=payload)
        yield from self.Waitall([sreq, rreq])
        return rreq.payload, rreq.status()

    # ------------------------------------------------------------- p2p (object)

    def send(self, obj: Any, dest: int, tag: int = 0) -> SimGen:
        """Object-mode blocking send (size estimated from ``obj``)."""
        yield from self.Send(dest, _object_size(obj), BYTE, tag, payload=obj)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> SimGen:
        """Object-mode non-blocking send."""
        req = yield from self.Isend(dest, _object_size(obj), BYTE, tag, payload=obj)
        return req

    def recv(self, source: int, tag: int = 0, max_bytes: int = 1 << 30) -> SimGen:
        """Object-mode blocking receive; returns the object."""
        payload, _status = yield from self.Recv(source, max_bytes, BYTE, tag)
        return payload

    def irecv(self, source: int, tag: int = 0, max_bytes: int = 1 << 30) -> SimGen:
        """Object-mode non-blocking receive."""
        req = yield from self.Irecv(source, max_bytes, BYTE, tag)
        return req

    # ------------------------------------------------------------- completion

    def Wait(self, request: MPIRequest) -> SimGen:
        """Block until ``request`` completes (strategy-configurable)."""
        tid = yield from self._enter()
        try:
            yield from self.lib.wait(request._core, self.wait_factory())
        finally:
            self._exit(tid)

    def Test(self, request: MPIRequest) -> SimGen:
        """Non-blocking completion check."""
        tid = yield from self._enter()
        try:
            done = yield from self.lib.test(request._core)
        finally:
            self._exit(tid)
        return done

    def Waitall(self, requests: Sequence[MPIRequest]) -> SimGen:
        for request in requests:
            yield from self.Wait(request)

    def Waitany(self, requests: Sequence[MPIRequest]) -> SimGen:
        """Wait for any request; returns its index."""
        if not requests:
            raise MPIError("Waitany on an empty request list")
        while True:
            for i, request in enumerate(requests):
                if request.done:
                    return i
                done = yield from self.Test(request)
                if done:
                    return i
            yield YieldCore()

    def Testall(self, requests: Sequence[MPIRequest]) -> SimGen:
        for request in requests:
            done = yield from self.Test(request)
            if not done:
                return False
        return True

    def Cancel(self, request: MPIRequest) -> SimGen:
        """Try to cancel a pending receive (MPI_Cancel semantics: only a
        receive that has not begun matching can be withdrawn).  Returns
        True on success; the request then completes as cancelled."""
        if not request.is_recv:
            raise MPIError("Mad-MPI only supports cancelling receives")
        tid = yield from self._enter()
        try:
            ok = yield from self.lib.cancel_recv(request._core)
        finally:
            self._exit(tid)
        return ok

    # ------------------------------------------------------------- probing

    def Iprobe(self, source: int, tag: int = ANY_TAG) -> SimGen:
        """Non-blocking probe: ``(found, Status | None)`` for a matching
        unclaimed arrival."""
        self._check_rank(source, "probe")
        self._check_tag(tag, recv=True)
        tid = yield from self._enter()
        try:
            found, size, wire_tag = yield from self.lib.probe(
                self._node_of(source),
                self._wire_tag(tag),
                tag_bounds=self._tag_bounds(tag),
            )
        finally:
            self._exit(tid)
        if not found:
            return False, None
        return True, Status(
            source=source, tag=self._user_tag(wire_tag), count_bytes=size
        )

    def Probe(self, source: int, tag: int = ANY_TAG) -> SimGen:
        """Blocking probe; returns the :class:`Status` of the pending
        message (which remains receivable)."""
        while True:
            found, status = yield from self.Iprobe(source, tag)
            if found:
                return status

    # ------------------------------------------------------------- persistent

    def Send_init(
        self,
        dest: int,
        count: int,
        datatype: Datatype = BYTE,
        tag: int = 0,
        *,
        payload: Any = None,
    ) -> "PersistentRequest":
        """Create an inactive persistent send (MPI_Send_init)."""
        self._check_rank(dest, "send")
        self._check_tag(tag, recv=False)
        return PersistentRequest(
            self, "send", dest, count, datatype, tag, payload=payload
        )

    def Recv_init(
        self, source: int, count: int, datatype: Datatype = BYTE, tag: int = 0
    ) -> "PersistentRequest":
        """Create an inactive persistent receive (MPI_Recv_init)."""
        self._check_rank(source, "recv")
        self._check_tag(tag, recv=True)
        return PersistentRequest(self, "recv", source, count, datatype, tag)

    def Start(self, persistent: "PersistentRequest") -> SimGen:
        """Activate a persistent request (MPI_Start)."""
        yield from persistent.start()

    def Startall(self, persistents: Sequence["PersistentRequest"]) -> SimGen:
        for persistent in persistents:
            yield from persistent.start()

    # ------------------------------------------------------------- collectives

    def _coll_tag(self) -> int:
        """Fresh tag for one collective round; every rank calls collectives
        in the same order (an MPI requirement), so counters agree."""
        tag = _COLL_TAG_BASE + (self._coll_seq % _COLL_TAG_BASE)
        self._coll_seq += 1
        return tag

    def Barrier(self) -> SimGen:
        from repro.madmpi.collectives import barrier

        yield from barrier(self)

    def Bcast(self, obj: Any, root: int = 0) -> SimGen:
        from repro.madmpi.collectives import bcast

        result = yield from bcast(self, obj, root)
        return result

    def Reduce(self, value: Any, op: Callable[[Any, Any], Any], root: int = 0) -> SimGen:
        from repro.madmpi.collectives import reduce as reduce_

        result = yield from reduce_(self, value, op, root)
        return result

    def Allreduce(self, value: Any, op: Callable[[Any, Any], Any]) -> SimGen:
        from repro.madmpi.collectives import allreduce

        result = yield from allreduce(self, value, op)
        return result

    def Gather(self, value: Any, root: int = 0) -> SimGen:
        from repro.madmpi.collectives import gather

        result = yield from gather(self, value, root)
        return result

    def Scatter(self, values: Sequence[Any] | None, root: int = 0) -> SimGen:
        from repro.madmpi.collectives import scatter

        result = yield from scatter(self, values, root)
        return result

    def Allgather(self, value: Any) -> SimGen:
        from repro.madmpi.collectives import allgather

        result = yield from allgather(self, value)
        return result

    def Alltoall(self, values: Sequence[Any]) -> SimGen:
        from repro.madmpi.collectives import alltoall

        result = yield from alltoall(self, values)
        return result

    def Scan(self, value: Any, op: Callable[[Any, Any], Any]) -> SimGen:
        from repro.madmpi.collectives import scan

        result = yield from scan(self, value, op)
        return result

    def Reduce_scatter(
        self, values: Sequence[Any], op: Callable[[Any, Any], Any]
    ) -> SimGen:
        from repro.madmpi.collectives import reduce_scatter

        result = yield from reduce_scatter(self, values, op)
        return result

    def __repr__(self) -> str:
        return (
            f"<Communicator rank={self.rank}/{self.size} "
            f"level={self.thread_level.name}>"
        )


class PersistentRequest:
    """A reusable communication pattern (MPI persistent requests).

    Created inactive by ``Send_init``/``Recv_init``; each ``Start``
    activates a fresh underlying transfer with the frozen parameters, and
    the usual ``Wait``/``Test`` operate on the handle between activations.
    """

    def __init__(
        self,
        comm: "Communicator",
        kind: str,
        peer: int,
        count: int,
        datatype: Datatype,
        tag: int,
        *,
        payload: Any = None,
    ) -> None:
        if kind not in ("send", "recv"):
            raise ValueError(f"kind must be send/recv, got {kind!r}")
        self.comm = comm
        self.kind = kind
        self.peer = peer
        self.count = count
        self.datatype = datatype
        self.tag = tag
        self.payload = payload
        self.active: MPIRequest | None = None
        self.starts = 0

    def start(self) -> SimGen:
        if self.active is not None and not self.active.done:
            raise MPIError("MPI_Start on a still-active persistent request")
        self.starts += 1
        if self.kind == "send":
            self.active = yield from self.comm.Isend(
                self.peer, self.count, self.datatype, self.tag, payload=self.payload
            )
        else:
            self.active = yield from self.comm.Irecv(
                self.peer, self.count, self.datatype, self.tag
            )

    @property
    def done(self) -> bool:
        return self.active is not None and self.active.done

    def wait(self) -> SimGen:
        if self.active is None:
            raise MPIError("wait on a never-started persistent request")
        yield from self.comm.Wait(self.active)

    def __repr__(self) -> str:
        state = "inactive" if self.active is None else (
            "done" if self.active.done else "active"
        )
        return f"<PersistentRequest {self.kind} peer={self.peer} {state}>"


def create_world(
    bed: "TestBed",
    *,
    thread_level: ThreadLevel = ThreadLevel.MULTIPLE,
    wait_factory: Callable[[], WaitStrategy] = BusyWait,
) -> list[Communicator]:
    """MPI_Init for a testbed: one communicator per node, ranks = node ids."""
    size = len(bed.libs)
    return [
        Communicator(
            bed.lib(rank),
            rank,
            size,
            thread_level=thread_level,
            wait_factory=wait_factory,
        )
        for rank in range(size)
    ]


def run_ranks(
    bed: "TestBed",
    comms: Sequence[Communicator],
    rank_fn: Callable[[Communicator], SimGen],
    *,
    core: int = 0,
    name: str = "rank",
    max_time: int | None = None,
) -> list[Any]:
    """mpiexec for the simulator: run ``rank_fn(comm)`` as one simulated
    thread per rank and return the per-rank results."""
    threads = [
        bed.machine(comm.rank).scheduler.spawn(
            rank_fn(comm), name=f"{name}{comm.rank}", core=core, bound=True
        )
        for comm in comms
    ]
    bed.run_until_done(*threads, max_time=max_time)
    return [t.result for t in threads]
