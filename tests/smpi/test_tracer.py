"""Traffic accounting of CommTracer."""

import numpy as np

from repro.smpi import SUM, CommTracer, SelfCommunicator, run_spmd


def _traced(nprocs, job):
    return run_spmd(nprocs, job, trace=True)


class TestP2pAccounting:
    def test_send_recv_bytes(self):
        def job(comm):
            if comm.rank == 0:
                comm.send(np.zeros(10), dest=1)  # 80 bytes
            else:
                comm.recv(source=0)
            return None

        _, tracers = _traced(2, job)
        assert tracers[0].bytes_for("send") == 80
        assert tracers[1].bytes_for("recv") == 80

    def test_record_has_peer(self):
        def job(comm):
            if comm.rank == 0:
                comm.send(1, dest=1)
            else:
                comm.recv(source=0)
            return None

        _, tracers = _traced(2, job)
        assert tracers[0].records[0].peer == 1


class TestCollectiveAccounting:
    def test_gather_root_counts_received_only(self):
        def job(comm):
            comm.gather(np.zeros(4), root=0)  # 32 bytes per rank
            return None

        _, tracers = _traced(4, job)
        assert tracers[0].bytes_for("gather") == 3 * 32  # own copy excluded
        for t in tracers[1:]:
            assert t.bytes_for("gather") == 32

    def test_bcast_root_counts_fanout(self):
        def job(comm):
            comm.bcast(np.zeros(8) if comm.rank == 0 else None, root=0)
            return None

        _, tracers = _traced(3, job)
        assert tracers[0].bytes_for("bcast") == 2 * 64
        assert tracers[1].bytes_for("bcast") == 64

    def test_barrier_zero_bytes_one_event(self):
        def job(comm):
            comm.barrier()
            return None

        _, tracers = _traced(2, job)
        for t in tracers:
            assert t.bytes_for("barrier") == 0
            assert any(r.op == "barrier" for r in t.records)

    def test_allreduce_records(self):
        def job(comm):
            comm.allreduce(np.zeros(2), SUM)
            return None

        _, tracers = _traced(2, job)
        for t in tracers:
            assert t.bytes_for("allreduce") == 32  # 16 up + 16 down

class TestSummaryAndReset:
    def test_summary_aggregates(self):
        def job(comm):
            comm.bcast(0 if comm.rank == 0 else None, root=0)
            comm.barrier()
            return None

        _, tracers = _traced(2, job)
        summary = tracers[0].summary()
        assert summary.events == 2
        assert set(summary.by_op) == {"bcast", "barrier"}

    def test_reset_clears(self):
        comm = CommTracer(SelfCommunicator())
        comm.barrier()
        assert comm.summary().events == 1
        comm.reset()
        assert comm.summary().events == 0
        assert comm.records == []

    def test_proxy_exposes_rank_size(self):
        comm = CommTracer(SelfCommunicator())
        assert comm.rank == 0
        assert comm.size == 1
        assert comm.Get_rank() == 0
        assert comm.Get_size() == 1

    def test_split_returns_traced_subcomm(self):
        def job(comm):
            sub = comm.split(color=0)
            sub.barrier()
            comm.dup().bcast(np.zeros(4) if comm.rank == 0 else None, root=0)
            return type(sub).__name__, sub.schedule()

        results, tracers = _traced(2, job)
        assert [name for name, _ in results] == ["CommTracer", "CommTracer"]
        for (_, sub_schedule), tracer in zip(results, tracers):
            # A derived communicator records into this rank's tracer: its
            # ops count in summary() and bytes_for(), but schedule() keeps
            # to the communicator it was called on.
            assert tracer.summary().by_op.keys() == {"barrier", "bcast"}
            assert tracer.bytes_for("bcast") == 32
            assert tracer.schedule() == []
            assert [r.op for r in sub_schedule] == ["barrier"]


class TestTiming:
    def test_blocking_records_carry_timing(self):
        def job(comm):
            comm.bcast(np.zeros(8) if comm.rank == 0 else None, root=0)
            comm.allreduce(np.zeros(2), SUM)
            comm.barrier()
            return None

        _, tracers = _traced(2, job)
        for tracer in tracers:
            assert len(tracer.records) == 3
            for record in tracer.records:
                assert record.t_start is not None
                assert record.duration_s >= 0.0
            # Collectives synchronize: at least one record on each rank
            # blocked for a measurable interval.
            assert any(r.duration_s > 0.0 for r in tracer.records)

    def test_nonblocking_wait_time_lands_on_the_record(self):
        def job(comm):
            if comm.rank == 0:
                result = np.ones(4)
                comm.isend(result, dest=1).wait()
            else:
                result = comm.irecv(source=0).wait()
            return float(np.sum(result))

        results, tracers = _traced(2, job)
        assert results == [4.0, 4.0]
        # The receive record is written by the completing wait, carrying
        # that wait's window; the send records at post time.
        (record,) = [r for r in tracers[1].records if r.op == "recv"]
        assert record.t_start is not None
        assert record.duration_s >= 0.0

    def test_summary_rolls_up_seconds_per_op(self):
        def job(comm):
            comm.bcast(0 if comm.rank == 0 else None, root=0)
            comm.barrier()
            return None

        _, tracers = _traced(2, job)
        summary = tracers[1].summary()
        assert summary.total_seconds >= 0.0
        assert set(summary.seconds_by_op) == {"bcast", "barrier"}
        assert abs(
            sum(summary.seconds_by_op.values()) - summary.total_seconds
        ) < 1e-12

    def test_pre_timing_constructor_signatures_still_work(self):
        from repro.smpi.tracer import CommRecord, TrafficSummary

        record = CommRecord(op="bcast", nbytes=8)
        assert record.t_start is None
        assert record.duration_s == 0.0
        summary = TrafficSummary(events=1, total_bytes=8, by_op={"bcast": 8})
        assert summary.total_seconds == 0.0
        assert summary.seconds_by_op == {}
