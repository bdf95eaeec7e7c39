"""Buffered sequential streams over virtual files.

These classes are where the data path (numpy record arrays) meets the time
path (device timelines + the engine clock):

* :class:`StreamReader` — iterate a file in buffer-sized views with a
  configurable prefetch depth.  With depth >= 2 the next buffer's read is in
  flight while the engine computes on the current one, which is exactly the
  edge-streaming pipeline X-Stream (and FastBFS) use to overlap I/O and
  compute.
* :class:`StreamWriter` — buffered appends whose flushes are queued on the
  device without blocking the engine; :meth:`StreamWriter.drain` is the
  barrier ("updates must be durable before the gather phase starts").
* :class:`AsyncStreamWriter` — the dedicated stay-list writer thread of
  FastBFS §III: a private pool of edge buffers, fire-and-forget flushes that
  only block when the pool is exhausted, a readiness query, and
  cancellation.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Deque, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import IOFaultError, StorageError
from repro.sim.clock import SimClock
from repro.sim.timeline import ScheduledRequest
from repro.storage.faults import RetryPolicy, submit_with_retry
from repro.storage.vfs import VirtualFile


class StreamReader:
    """Sequential buffered reader with prefetch.

    Iterating yields zero-copy views of at most ``records_per_buffer``
    records.  Each view's read request was charged to the file's device; the
    engine clock blocks (iowait) until that request completes.
    """

    def __init__(
        self,
        clock: SimClock,
        file: VirtualFile,
        buffer_bytes: int,
        prefetch: int = 2,
        group: str = "",
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if buffer_bytes <= 0:
            raise StorageError(f"buffer_bytes must be positive, got {buffer_bytes}")
        if prefetch < 1:
            raise StorageError(f"prefetch depth must be >= 1, got {prefetch}")
        self.clock = clock
        self.file = file
        self.group = group or f"read:{file.name}"
        self.retry = retry
        self.prefetch = prefetch
        record_size = file.record_size
        self.records_per_buffer = (
            max(1, buffer_bytes // record_size) if record_size else 0
        )
        self._total = file.num_records
        self._next_submit = 0  # next record index to request
        self._pending: Deque[tuple] = deque()  # (request, start_record, count)
        self.buffers_read = 0

    def _fill(self) -> None:
        while len(self._pending) < self.prefetch and self._next_submit < self._total:
            count = min(self.records_per_buffer, self._total - self._next_submit)
            offset = self._next_submit * self.file.record_size
            req = submit_with_retry(
                self.clock,
                self.file,
                kind="read",
                nbytes=count * self.file.record_size,
                offset=offset,
                group=self.group,
                retry=self.retry,
            )
            self._pending.append((req, self._next_submit, count))
            self._next_submit += count

    def _advance(self) -> Optional[Tuple[int, int]]:
        """Wait for the next buffer's read: its ``(start, count)``, or None."""
        self._fill()
        if not self._pending:
            return None
        req, start, count = self._pending.popleft()
        self.clock.wait_until(req.end)
        self._fill()  # keep the pipeline full while we go compute
        self.buffers_read += 1
        return start, count

    def host_chunks(
        self, min_records: int
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, Iterator[int]]]:
        """The whole stream as host-compute chunks of whole buffers.

        Yields ``(records, cuts, buffers)``: a zero-copy view of as few
        buffers as hold at least ``min_records`` records (the last chunk
        may hold fewer); the buffer boundaries inside it as record offsets,
        from 0 to ``len(records)``; and an iterator over the chunk's buffer
        indices.  Each step of ``buffers`` first issues and waits for that
        buffer's read, exactly as iterating the reader would, so charges
        made inside that loop keep the per-buffer timeline.  Every buffer
        of a chunk must be taken before the next chunk.
        """
        if self._next_submit or self._pending:
            raise StorageError(f"host_chunks needs a fresh reader on {self.file.name!r}")
        per_buffer = self.records_per_buffer
        if self._total == 0:
            return
        per_chunk = per_buffer * max(1, -(-min_records // per_buffer))
        data = self.file.records()
        for start in range(0, self._total, per_chunk):
            records = data[start : start + per_chunk]
            cuts = np.arange(0, len(records) + per_buffer, per_buffer)
            cuts[-1] = len(records)
            count = len(cuts) - 1
            taken = self.buffers_read + count
            yield records, cuts, self._take_buffers(count)
            if self.buffers_read != taken:
                raise StorageError(
                    f"host chunk of {self.file.name!r} left "
                    f"{taken - self.buffers_read} buffer(s) unread"
                )

    def _take_buffers(self, count: int) -> Iterator[int]:
        for b in range(count):
            self._advance()
            yield b

    def __iter__(self) -> Iterator[np.ndarray]:
        return self

    def __next__(self) -> np.ndarray:
        span = self._advance()
        if span is None:
            raise StopIteration
        return self.file.read_records(*span)


class StreamWriter:
    """Buffered appender; flushes are queued writes, ``drain()`` is a barrier."""

    def __init__(
        self,
        clock: SimClock,
        file: VirtualFile,
        buffer_bytes: int,
        group: str = "",
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if buffer_bytes <= 0:
            raise StorageError(f"buffer_bytes must be positive, got {buffer_bytes}")
        self.clock = clock
        self.file = file
        self.buffer_bytes = buffer_bytes
        self.group = group or f"write:{file.name}"
        self.retry = retry
        #: Simulated time the writer was opened (span anchoring only).
        self.opened_at = clock.now
        self._pending: List[np.ndarray] = []
        self._pending_bytes = 0
        self._requests: List[ScheduledRequest] = []
        self.records_written = 0
        self.flush_count = 0
        self.closed = False

    def append(self, arr: np.ndarray) -> None:
        if self.closed:
            raise StorageError(f"writer for {self.file.name!r} is closed")
        if len(arr) == 0:
            return
        self._pending.append(arr)
        self._pending_bytes += arr.nbytes
        self.records_written += len(arr)
        if self._pending_bytes >= self.buffer_bytes:
            self.flush()

    def flush(self) -> Optional[ScheduledRequest]:
        """Submit buffered records as one device write (non-blocking)."""
        if not self._pending:
            return None
        chunk = (
            self._pending[0]
            if len(self._pending) == 1
            else np.concatenate(self._pending)
        )
        offset = self.file.nbytes
        self._on_chunk(chunk, offset)
        self.file.append_records(chunk)
        req = self._submit(chunk.nbytes, offset)
        self._pending = []
        self._pending_bytes = 0
        self.flush_count += 1
        return req

    def _on_chunk(self, chunk: np.ndarray, offset: int) -> None:
        """Hook: called with each chunk about to be written (pre-submit).

        The stay writer overrides this to record per-chunk checksums of
        what was *sent*, so a torn write (which damages what *landed*) is
        detectable at swap-in.
        """

    def _submit(self, nbytes: int, offset: int) -> ScheduledRequest:
        req = submit_with_retry(
            self.clock,
            self.file,
            kind="write",
            nbytes=nbytes,
            offset=offset,
            group=self.group,
            retry=self.retry,
        )
        self._requests.append(req)
        if req.fault == "torn_write":
            # The device acknowledged the write but it did not land intact:
            # damage the stored copy so readers see what the medium holds.
            self.file.corrupt_at(offset)
        return req

    def drain(self) -> None:
        """Flush and block until every submitted write has completed."""
        self.flush()
        end = self.last_end
        if end is not None:
            self.clock.wait_until(end)

    @property
    def last_end(self) -> Optional[float]:
        """Completion time of the latest uncancelled write, if any."""
        ends = [r.end for r in self._requests if not r.cancelled]
        return max(ends) if ends else None

    def close(self, drain: bool = True) -> None:
        """Flush remaining records; optionally barrier; seal the file."""
        if self.closed:
            return
        if drain:
            self.drain()
        else:
            self.flush()
        self.closed = True
        self.file.seal()


class AsyncStreamWriter(StreamWriter):
    """Stay-list writer: private buffer pool, asynchronous flushes.

    The engine only blocks here when all ``num_buffers`` private buffers hold
    writes still in flight (paper §III condition 1).  Readiness of the whole
    file and cancellation of the not-yet-started tail are exposed for the
    cross-iteration swap logic (condition 2).

    Because a stay file is advisory (an optimization, never the only copy
    of the data), this writer is also where I/O faults degrade instead of
    propagate: a per-chunk CRC ledger detects torn writes at swap-in, and
    a write that keeps failing after retries flips :attr:`write_failed` —
    both degrade the swap to the previous edge file exactly like a
    cancellation.
    """

    def __init__(
        self,
        clock: SimClock,
        file: VirtualFile,
        buffer_bytes: int,
        num_buffers: int = 4,
        group: str = "",
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if num_buffers < 1:
            raise StorageError(f"num_buffers must be >= 1, got {num_buffers}")
        super().__init__(
            clock, file, buffer_bytes, group or f"stay:{file.name}", retry=retry
        )
        self.num_buffers = num_buffers
        self.pool_waits = 0  # times the engine stalled on buffer exhaustion
        self.cancelled = False
        #: Flipped when a flush keeps failing after retries; the manager
        #: treats a failed writer exactly like a cancellation candidate.
        self.write_failed = False
        self.write_failure: Optional[IOFaultError] = None
        # (offset, nbytes, crc32 of the bytes sent) per flushed chunk.
        self._chunk_sums: List[Tuple[int, int, int]] = []

    def _live_requests(self) -> List[ScheduledRequest]:
        now = self.clock.now
        return [r for r in self._requests if not r.cancelled and r.end > now]

    @property
    def buffers_in_flight(self) -> int:
        return len(self._live_requests())

    def append(self, arr: np.ndarray) -> None:
        if self.write_failed:
            # Degraded: the file will be discarded at swap time anyway, so
            # stop spending buffers and device bandwidth on it.
            return
        super().append(arr)

    def _on_chunk(self, chunk: np.ndarray, offset: int) -> None:
        self._chunk_sums.append(
            (offset, chunk.nbytes, zlib.crc32(chunk.view(np.uint8).tobytes()))
        )

    def _submit(self, nbytes: int, offset: int) -> ScheduledRequest:
        live = self._live_requests()
        if len(live) >= self.num_buffers:
            # All private buffers are tied to in-flight writes: wait for the
            # oldest to land (this is the only sync point in the fast path).
            self.pool_waits += 1
            self.clock.wait_until(min(r.end for r in live))
        try:
            return super()._submit(nbytes, offset)
        except IOFaultError as exc:
            # Stay data is never the only copy; a lost flush costs the
            # trimming opportunity, not correctness.  Record the failure
            # and hand back an already-dead pseudo-request so accounting
            # ignores it; the manager cancels the writer at swap time.
            self.write_failed = True
            self.write_failure = exc
            now = self.clock.now
            dead = ScheduledRequest(
                group=self.group, kind="write", nbytes=0,
                submit=now, service=0.0, start=now, end=now,
            )
            dead.cancelled = True
            return dead

    def verify_integrity(self) -> List[int]:
        """Re-checksum every flushed chunk; return offsets that mismatch.

        Compares the CRC of what each flush *sent* against the bytes the
        file holds now — a torn write shows up as exactly one damaged
        chunk.  An empty list means the file is intact.
        """
        bad: List[int] = []
        if not self._chunk_sums:
            return bad
        data = self.file.records().view(np.uint8)
        for offset, nbytes, crc in self._chunk_sums:
            stored = zlib.crc32(data[offset : offset + nbytes].tobytes())
            if stored != crc:
                bad.append(offset)
        return bad

    def ready_at(self) -> float:
        """Time at which every submitted write will have completed."""
        end = self.last_end
        return end if end is not None else self.clock.now

    def is_ready(self, grace: float = 0.0) -> bool:
        """Would the file be durable within ``grace`` seconds from now?"""
        return self.ready_at() <= self.clock.now + grace

    def cancel(self) -> int:
        """Abort the write-back: drop queued (unstarted) requests.

        In-flight requests finish (the head is already committed to them);
        their time and bytes stay charged — that is the cost the paper's
        cancellation mechanism accepts.  Returns the number of requests
        cancelled.  The caller is expected to discard the output file.
        """
        self._pending = []  # never-submitted records die with the file
        self._pending_bytes = 0
        now = self.clock.now
        mine = {id(r) for r in self._requests}
        dropped = self.file.device.timeline.cancel(
            now, lambda r: id(r) in mine and not r.cancelled
        )
        self.cancelled = True
        self.closed = True
        return len(dropped)
