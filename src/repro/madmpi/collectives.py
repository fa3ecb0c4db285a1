"""Collective operations over Mad-MPI point-to-point.

Textbook algorithms on top of object-mode sends:

* **barrier** — dissemination: ⌈log₂ p⌉ rounds of pairwise exchange;
* **bcast / reduce** — binomial trees;
* **allreduce** — reduce to rank 0 + broadcast;
* **gather / scatter** — linear to/from the root;
* **allgather** — ring: p−1 steps, each rank forwards what it received;
* **alltoall** — pairwise exchange ordered by XOR-distance.

Each collective call uses a fresh internal tag (the communicator's
collective sequence counter), so back-to-back collectives never cross
matches.  Every rank must call collectives in the same order — the MPI
requirement these tags rely on.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, TYPE_CHECKING

from repro.madmpi.status import MPIError
from repro.sim.process import SimGen

if TYPE_CHECKING:  # pragma: no cover
    from repro.madmpi.mpi import Communicator

Op = Callable[[Any, Any], Any]


def _send(comm: "Communicator", obj: Any, dest: int, tag: int) -> SimGen:
    from repro.madmpi.mpi import _object_size
    from repro.madmpi.datatypes import BYTE

    yield from comm.Send(dest, _object_size(obj), BYTE, tag, payload=obj)


def _recv(comm: "Communicator", source: int, tag: int) -> SimGen:
    from repro.madmpi.datatypes import BYTE

    payload, _status = yield from comm.Recv(source, 1 << 30, BYTE, tag)
    return payload


def barrier(comm: "Communicator") -> SimGen:
    """Dissemination barrier: round k exchanges with rank ± 2^k."""
    tag = comm._coll_tag()
    p, me = comm.size, comm.rank
    if p == 1:
        return
    step = 1
    while step < p:
        dest = (me + step) % p
        source = (me - step) % p
        from repro.madmpi.datatypes import BYTE

        rreq = yield from comm.Irecv(source, 64, BYTE, tag)
        sreq = yield from comm.Isend(dest, 1, BYTE, tag, payload=None)
        yield from comm.Waitall([sreq, rreq])
        step <<= 1


def bcast(comm: "Communicator", obj: Any, root: int = 0) -> SimGen:
    """Binomial-tree broadcast; every rank returns the root's object."""
    p, tag = comm.size, comm._coll_tag()
    if not 0 <= root < p:
        raise MPIError(f"bcast root {root} outside communicator")
    if p == 1:
        return obj
    vrank = (comm.rank - root) % p  # root becomes virtual rank 0
    mask = 1
    value = obj if comm.rank == root else None
    # find the bit where this rank receives
    while mask < p:
        if vrank & mask:
            source = ((vrank - mask) % p + root) % p
            value = yield from _recv(comm, source, tag)
            break
        mask <<= 1
    # forward to ranks below that bit
    mask >>= 1
    while mask > 0:
        if vrank + mask < p:
            dest = ((vrank + mask) % p + root) % p
            yield from _send(comm, value, dest, tag)
        mask >>= 1
    return value


def reduce(comm: "Communicator", value: Any, op: Op, root: int = 0) -> SimGen:
    """Binomial-tree reduction; the root returns the combined value,
    other ranks return None."""
    p, tag = comm.size, comm._coll_tag()
    if not 0 <= root < p:
        raise MPIError(f"reduce root {root} outside communicator")
    if p == 1:
        return value
    vrank = (comm.rank - root) % p
    acc = value
    mask = 1
    while mask < p:
        if vrank & mask:
            dest = ((vrank - mask) % p + root) % p
            yield from _send(comm, acc, dest, tag)
            return None
        partner = vrank + mask
        if partner < p:
            source = ((partner) % p + root) % p
            other = yield from _recv(comm, source, tag)
            acc = op(acc, other)
        mask <<= 1
    return acc


def allreduce(comm: "Communicator", value: Any, op: Op) -> SimGen:
    """Reduce to rank 0, then broadcast the result."""
    reduced = yield from reduce(comm, value, op, root=0)
    result = yield from bcast(comm, reduced, root=0)
    return result


def gather(comm: "Communicator", value: Any, root: int = 0) -> SimGen:
    """Linear gather; the root returns the rank-ordered list."""
    p, tag = comm.size, comm._coll_tag()
    if not 0 <= root < p:
        raise MPIError(f"gather root {root} outside communicator")
    if comm.rank == root:
        out: list[Any] = [None] * p
        out[root] = value
        for source in range(p):
            if source != root:
                out[source] = yield from _recv(comm, source, tag)
        return out
    yield from _send(comm, value, root, tag)
    return None


def scatter(
    comm: "Communicator", values: Sequence[Any] | None, root: int = 0
) -> SimGen:
    """Linear scatter; each rank returns its slice of the root's list."""
    p, tag = comm.size, comm._coll_tag()
    if not 0 <= root < p:
        raise MPIError(f"scatter root {root} outside communicator")
    if comm.rank == root:
        if values is None or len(values) != p:
            raise MPIError(f"scatter root needs exactly {p} values")
        for dest in range(p):
            if dest != root:
                yield from _send(comm, values[dest], dest, tag)
        return values[root]
    value = yield from _recv(comm, root, tag)
    return value


def allgather(comm: "Communicator", value: Any) -> SimGen:
    """Ring allgather: p−1 steps; each rank sends its newest block right
    and receives the next block from the left."""
    from repro.madmpi.datatypes import BYTE
    from repro.madmpi.mpi import _object_size

    p, tag = comm.size, comm._coll_tag()
    out: list[Any] = [None] * p
    out[comm.rank] = value
    if p == 1:
        return out
    right = (comm.rank + 1) % p
    left = (comm.rank - 1) % p
    carry_index = comm.rank
    for _ in range(p - 1):
        block = (carry_index, out[carry_index])
        rreq = yield from comm.Irecv(left, 1 << 30, BYTE, tag)
        sreq = yield from comm.Isend(
            right, _object_size(block), BYTE, tag, payload=block
        )
        yield from comm.Waitall([sreq, rreq])
        carry_index, received = rreq.payload
        out[carry_index] = received
    return out


def scan(comm: "Communicator", value: Any, op: Op) -> SimGen:
    """Inclusive prefix reduction (MPI_Scan): rank r returns
    op(value_0, ..., value_r), linear chain."""
    p, tag = comm.size, comm._coll_tag()
    acc = value
    if comm.rank > 0:
        upstream = yield from _recv(comm, comm.rank - 1, tag)
        acc = op(upstream, value)
    if comm.rank < p - 1:
        yield from _send(comm, acc, comm.rank + 1, tag)
    return acc


def reduce_scatter(comm: "Communicator", values: Sequence[Any], op: Op) -> SimGen:
    """MPI_Reduce_scatter_block: element-wise reduce the per-rank lists,
    each rank keeping slot ``rank`` of the result.

    Implemented as reduce-to-root of the whole vector followed by a
    scatter — the simple algorithm real MPIs use for small payloads.
    """
    p = comm.size
    if len(values) != p:
        raise MPIError(f"reduce_scatter needs exactly {p} values, got {len(values)}")

    def merge(a: Sequence[Any], b: Sequence[Any]) -> list[Any]:
        return [op(x, y) for x, y in zip(a, b)]

    combined = yield from reduce(comm, list(values), merge, root=0)
    mine = yield from scatter(comm, combined, root=0)
    return mine


def alltoall(comm: "Communicator", values: Sequence[Any]) -> SimGen:
    """Shifted pairwise exchange: at step k, send to ``(rank+k) % p`` and
    receive from ``(rank−k) % p`` — uniform for any communicator size."""
    from repro.madmpi.datatypes import BYTE
    from repro.madmpi.mpi import _object_size

    p, tag = comm.size, comm._coll_tag()
    if len(values) != p:
        raise MPIError(f"alltoall needs exactly {p} values, got {len(values)}")
    out: list[Any] = [None] * p
    out[comm.rank] = values[comm.rank]
    for k in range(1, p):
        dest = (comm.rank + k) % p
        source = (comm.rank - k) % p
        rreq = yield from comm.Irecv(source, 1 << 30, BYTE, tag)
        sreq = yield from comm.Isend(
            dest, _object_size(values[dest]), BYTE, tag, payload=values[dest]
        )
        yield from comm.Waitall([sreq, rreq])
        out[source] = rreq.payload
    return out
