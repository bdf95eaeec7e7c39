"""Tests for stream readers/writers, prefetch overlap, async stay writer."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.graph.types import EDGE_DTYPE, make_edges
from repro.sim.clock import SimClock
from repro.storage.device import Device, DeviceSpec
from repro.storage.streams import AsyncStreamWriter, StreamReader, StreamWriter
from repro.storage.vfs import VFS
from repro.utils.units import MB

RECORD = EDGE_DTYPE.itemsize  # 8 bytes


def edges(n, start=0):
    return make_edges(
        np.arange(start, start + n) % 2**32, np.arange(start, start + n) % 2**32
    )


@pytest.fixture
def setup():
    clock = SimClock()
    device = Device(
        DeviceSpec("d", seek_time=0.0, read_bandwidth=100 * MB, write_bandwidth=100 * MB)
    )
    vfs = VFS()
    return clock, device, vfs


class TestStreamReader:
    def test_yields_all_records_in_order(self, setup):
        clock, device, vfs = setup
        f = vfs.create("f", device)
        f.append_records(edges(1000))
        f.seal()
        reader = StreamReader(clock, f, buffer_bytes=64 * RECORD)
        out = np.concatenate(list(reader))
        assert np.array_equal(out, f.records())

    def test_buffer_granularity(self, setup):
        clock, device, vfs = setup
        f = vfs.create("f", device)
        f.append_records(edges(100))
        f.seal()
        reader = StreamReader(clock, f, buffer_bytes=32 * RECORD)
        sizes = [len(buf) for buf in reader]
        assert sizes == [32, 32, 32, 4]
        assert reader.buffers_read == 4

    def test_empty_file_yields_nothing(self, setup):
        clock, device, vfs = setup
        f = vfs.create("f", device)
        f.seal()
        assert list(StreamReader(clock, f, buffer_bytes=1024)) == []
        assert clock.now == 0.0  # no I/O charged

    def test_time_charged_as_iowait(self, setup):
        clock, device, vfs = setup
        f = vfs.create("f", device)
        f.append_records(edges(1000))
        f.seal()
        list(StreamReader(clock, f, buffer_bytes=100 * RECORD))
        expected = 1000 * RECORD / (100 * MB)
        assert clock.now == pytest.approx(expected)
        assert clock.iowait_time == pytest.approx(expected)

    def test_prefetch_overlaps_compute(self, setup):
        """With prefetch depth 2, compute hides the next buffer's read."""
        clock, device, vfs = setup
        f = vfs.create("f", device)
        f.append_records(edges(2000))
        f.seal()
        buffer_records = 1000
        io_per_buffer = buffer_records * RECORD / (100 * MB)
        reader = StreamReader(clock, f, buffer_bytes=buffer_records * RECORD, prefetch=2)
        for _ in reader:
            clock.charge_compute(io_per_buffer * 2)  # compute-bound
        # Perfect overlap: total = first read + 2 computes.
        assert clock.now == pytest.approx(io_per_buffer * (1 + 4))
        assert clock.iowait_time == pytest.approx(io_per_buffer)

    def test_no_prefetch_serializes(self, setup):
        clock, device, vfs = setup
        f = vfs.create("f", device)
        f.append_records(edges(2000))
        f.seal()
        buffer_records = 1000
        io_per_buffer = buffer_records * RECORD / (100 * MB)
        reader = StreamReader(clock, f, buffer_bytes=buffer_records * RECORD, prefetch=1)
        for _ in reader:
            clock.charge_compute(io_per_buffer)
        # prefetch=1 still submits the next read before compute (inside
        # __next__), so the second buffer's read overlaps the first compute.
        assert clock.iowait_time <= 2 * io_per_buffer

    def test_rejects_bad_params(self, setup):
        clock, device, vfs = setup
        f = vfs.create("f", device)
        with pytest.raises(StorageError):
            StreamReader(clock, f, buffer_bytes=0)
        with pytest.raises(StorageError):
            StreamReader(clock, f, buffer_bytes=100, prefetch=0)


class TestHostChunks:
    def reader(self, setup, n=100, buffer_records=8):
        clock, device, vfs = setup
        f = vfs.create("f", device)
        f.append_records(edges(n))
        f.seal()
        return clock, f, StreamReader(clock, f, buffer_bytes=buffer_records * RECORD)

    def test_chunks_hold_whole_buffers(self, setup):
        _, f, reader = self.reader(setup)
        chunks = []
        for records, cuts, buffers in reader.host_chunks(20):
            assert list(buffers) == list(range(len(cuts) - 1))
            chunks.append((len(records), cuts.tolist()))
        assert chunks == [(24, [0, 8, 16, 24])] * 4 + [(4, [0, 4])]
        assert reader.buffers_read == 13

    def test_buffer_steps_replay_the_per_buffer_timeline(self, setup):
        """A charge per buffer step lands on the clock exactly as a charge
        per iterated buffer does."""
        clock, f, reader = self.reader(setup, n=1000, buffer_records=64)
        for _, _, buffers in reader.host_chunks(300):
            for _ in buffers:
                clock.charge_compute(1e-6)
        chunked = (clock.now, clock.iowait_time)
        clock2 = SimClock()
        f2 = VFS().create("f", Device(DeviceSpec(
            "d", seek_time=0.0, read_bandwidth=100 * MB, write_bandwidth=100 * MB)))
        f2.append_records(edges(1000))
        f2.seal()
        for _ in StreamReader(clock2, f2, buffer_bytes=64 * RECORD):
            clock2.charge_compute(1e-6)
        assert chunked == (clock2.now, clock2.iowait_time)

    def test_unread_buffers_are_an_error(self, setup):
        _, _, reader = self.reader(setup)
        chunks = reader.host_chunks(20)
        _, _, buffers = next(chunks)
        next(buffers)
        with pytest.raises(StorageError, match="2 buffer"):
            next(chunks)

    def test_needs_a_fresh_reader(self, setup):
        _, _, reader = self.reader(setup)
        next(reader)
        with pytest.raises(StorageError, match="fresh reader"):
            next(reader.host_chunks(20))


class TestStreamWriter:
    def test_buffered_appends_flush_on_threshold(self, setup):
        clock, device, vfs = setup
        f = vfs.create("f", device)
        w = StreamWriter(clock, f, buffer_bytes=10 * RECORD)
        w.append(edges(4))
        assert w.flush_count == 0
        w.append(edges(7, start=4))  # 11 records >= threshold
        assert w.flush_count == 1
        assert f.num_records == 11

    def test_close_writes_remainder(self, setup):
        clock, device, vfs = setup
        f = vfs.create("f", device)
        w = StreamWriter(clock, f, buffer_bytes=1000 * RECORD)
        w.append(edges(5))
        w.close()
        assert f.num_records == 5
        assert w.closed
        data = f.records()
        assert data["src"][4] == 4

    def test_append_empty_noop(self, setup):
        clock, device, vfs = setup
        f = vfs.create("f", device)
        w = StreamWriter(clock, f, buffer_bytes=8)
        w.append(edges(0))
        assert w.flush_count == 0

    def test_append_after_close_rejected(self, setup):
        clock, device, vfs = setup
        w = StreamWriter(clock, vfs.create("f", device), buffer_bytes=8)
        w.close()
        with pytest.raises(StorageError):
            w.append(edges(1))

    def test_writes_do_not_block_engine(self, setup):
        clock, device, vfs = setup
        w = StreamWriter(clock, vfs.create("f", device), buffer_bytes=RECORD)
        w.append(edges(10**6))  # 8MB write queued
        assert clock.now == 0.0  # fire-and-forget

    def test_drain_is_barrier(self, setup):
        clock, device, vfs = setup
        w = StreamWriter(clock, vfs.create("f", device), buffer_bytes=RECORD)
        w.append(edges(10**6))
        w.drain()
        assert clock.now == pytest.approx(8 * 10**6 / (100 * MB))
        assert clock.iowait_time > 0

    def test_drain_empty_writer(self, setup):
        clock, device, vfs = setup
        w = StreamWriter(clock, vfs.create("f", device), buffer_bytes=8)
        w.drain()
        assert clock.now == 0.0

    def test_records_written_counter(self, setup):
        clock, device, vfs = setup
        w = StreamWriter(clock, vfs.create("f", device), buffer_bytes=8)
        w.append(edges(3))
        w.append(edges(2))
        assert w.records_written == 5


class TestAsyncStreamWriter:
    def _writer(self, setup, num_buffers=2, buffer_records=100):
        clock, device, vfs = setup
        f = vfs.create("stay", device)
        return clock, AsyncStreamWriter(
            clock, f, buffer_bytes=buffer_records * RECORD, num_buffers=num_buffers
        )

    def test_fire_and_forget_until_pool_exhausted(self, setup):
        clock, w = self._writer(setup, num_buffers=2, buffer_records=10**5)
        w.append(edges(10**5))  # flush 1 in flight
        w.append(edges(10**5))  # flush 2 in flight
        assert clock.now == 0.0
        assert w.buffers_in_flight == 2
        w.append(edges(10**5))  # pool exhausted -> must wait for oldest
        assert clock.now > 0.0
        assert w.pool_waits == 1

    def test_ready_at_tracks_last_write(self, setup):
        clock, w = self._writer(setup, buffer_records=10**5)
        assert w.is_ready()
        w.append(edges(10**5))
        assert not w.is_ready()
        assert w.is_ready(grace=1.0)  # write lands well within a second
        clock.wait_until(w.ready_at())
        assert w.is_ready()

    def test_cancel_drops_queued_requests(self, setup):
        clock, w = self._writer(setup, num_buffers=4, buffer_records=10**5)
        for i in range(3):
            w.append(edges(10**5))
        dev = w.file.device
        before = dev.bytes_written
        dropped = w.cancel()
        # First request is in service at t=0... start==0 means it started.
        assert dropped >= 2
        assert w.cancelled
        assert dev.bytes_written < before

    def test_cancel_discards_unflushed_records(self, setup):
        clock, w = self._writer(setup, buffer_records=1000)
        w.append(edges(5))  # below threshold, never submitted
        w.cancel()
        # Cancelling closed the writer without writing the tail.
        assert w.closed

    def test_num_buffers_validation(self, setup):
        clock, device, vfs = setup
        with pytest.raises(StorageError):
            AsyncStreamWriter(clock, vfs.create("f", device), 8, num_buffers=0)

    def test_more_buffers_fewer_waits(self, setup):
        clock1, device1, vfs1 = SimClock(), Device(DeviceSpec.hdd()), VFS()
        w_small = AsyncStreamWriter(
            clock1, vfs1.create("a", device1), 100 * RECORD, num_buffers=1
        )
        clock2, device2, vfs2 = SimClock(), Device(DeviceSpec.hdd()), VFS()
        w_big = AsyncStreamWriter(
            clock2, vfs2.create("b", device2), 100 * RECORD, num_buffers=16
        )
        for i in range(8):
            w_small.append(edges(100))
            w_big.append(edges(100))
        assert w_big.pool_waits < w_small.pool_waits
        assert clock2.now <= clock1.now
