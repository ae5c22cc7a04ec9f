"""``World.fail_rank`` racing blocked ``RecvRequest.wait`` calls:
blocked waiters wake promptly with ``FailedRankError`` (not after the
deadlock timeout), wakeups reach *every* blocked peer, and abandoned
requests leave nothing behind under the provenance tracker."""

import threading
import time

import numpy as np
import pytest

from repro.smpi import FailedRankError, create_communicator, provenance
from repro.smpi.exceptions import SmpiError

TIMEOUT = 30.0  # deliberately huge: fail_rank must win, not the timeout
TAG = 5


def cancel_quietly(request):
    try:
        request.cancel()
    except (SmpiError, AttributeError):
        pass  # already complete (or a send request, which has no cancel)


class TestFailRankRace:
    def test_blocked_collective_root_wakes_with_failed_rank_error(self):
        """The root of a gather waits on a contribution rank 3 never
        sends; fail_rank(3) mid-wait frees it in milliseconds."""
        comms = create_communicator("threads", 4, timeout=TIMEOUT)
        world = comms[0].world
        block = np.ones((2, 3))
        outcome = {}

        with provenance.track() as scope:
            requests = {}

            def root():
                start = time.monotonic()
                try:
                    for i in (1, 2):
                        comms[0].recv(source=i, tag=TAG)
                    req = comms[0].irecv(3, TAG)
                    requests[0] = req
                    req.wait(timeout=TIMEOUT)
                except FailedRankError as exc:
                    outcome["error"] = exc
                    outcome["elapsed"] = time.monotonic() - start

            def sender(i):
                req = comms[i].isend(block, dest=0, tag=TAG)
                requests[i] = req
                req.wait(timeout=TIMEOUT)  # send side: completes fine

            threads = [threading.Thread(target=root)]
            threads += [
                threading.Thread(target=sender, args=(i,)) for i in (1, 2)
            ]
            for t in threads:
                t.start()
            time.sleep(0.05)  # let the root block
            world.fail_rank(3, RuntimeError("injected death"))
            for t in threads:
                t.join(timeout=10.0)
            assert not any(t.is_alive() for t in threads)

            assert isinstance(outcome.get("error"), FailedRankError)
            assert 3 in outcome["error"].failed_ranks
            assert outcome["elapsed"] < 5.0
            # Rank 3 never posted its share: cancel the abandoned handle
            # (the recovery path's job) and nothing must leak.
            for req in requests.values():
                cancel_quietly(req)
            assert scope.pending_requests() == []

    def test_every_blocked_receiver_wakes_not_just_one(self):
        """Three ranks block on a receive from rank 3; the single
        fail_rank(3) must wake all of them — wakeup is a broadcast, not a
        handoff."""
        comms = create_communicator("threads", 4, timeout=TIMEOUT)
        world = comms[0].world
        errors = {}
        elapsed = {}

        with provenance.track() as scope:
            requests = {}

            def receiver(i):
                req = comms[i].irecv(3, 0)
                requests[i] = req
                start = time.monotonic()
                try:
                    req.wait(timeout=TIMEOUT)
                except FailedRankError as exc:
                    errors[i] = exc
                    elapsed[i] = time.monotonic() - start

            threads = [
                threading.Thread(target=receiver, args=(i,))
                for i in range(3)
            ]
            for t in threads:
                t.start()
            time.sleep(0.05)
            world.fail_rank(3, RuntimeError("injected death"))
            for t in threads:
                t.join(timeout=10.0)
            assert not any(t.is_alive() for t in threads)

            assert sorted(errors) == [0, 1, 2]
            for i in range(3):
                assert 3 in errors[i].failed_ranks
                assert elapsed[i] < 5.0, (i, elapsed[i])
            for req in requests.values():
                cancel_quietly(req)
            assert scope.pending_requests() == []

    def test_fail_rank_before_wait_raises_immediately(self):
        comms = create_communicator("threads", 2, timeout=TIMEOUT)
        world = comms[0].world
        with provenance.track() as scope:
            req = comms[0].irecv(1, 0)
            world.fail_rank(1, RuntimeError("gone before the wait"))
            start = time.monotonic()
            with pytest.raises(FailedRankError):
                req.wait(timeout=TIMEOUT)
            assert time.monotonic() - start < 5.0
            cancel_quietly(req)
            assert scope.pending_requests() == []

    def test_failure_cause_is_recorded_in_the_world(self):
        comms = create_communicator("threads", 2, timeout=TIMEOUT)
        world = comms[0].world
        cause = RuntimeError("the original crash")
        world.fail_rank(1, cause)
        assert world.failed_ranks()[1] is cause

    def test_wait_racing_concurrent_fail_rank_storm(self):
        """Many fail_rank calls from several threads racing one blocked
        wait: exactly one cause sticks, the waiter still wakes cleanly."""
        comms = create_communicator("threads", 2, timeout=TIMEOUT)
        world = comms[0].world
        with provenance.track() as scope:
            req = comms[0].irecv(1, 0)
            result = {}

            def waiter():
                try:
                    req.wait(timeout=TIMEOUT)
                except FailedRankError as exc:
                    result["error"] = exc

            t = threading.Thread(target=waiter)
            t.start()
            time.sleep(0.02)
            stormers = [
                threading.Thread(
                    target=world.fail_rank, args=(1, RuntimeError(f"s{i}"))
                )
                for i in range(8)
            ]
            for s in stormers:
                s.start()
            for s in stormers:
                s.join(timeout=5.0)
            t.join(timeout=10.0)
            assert not t.is_alive()
            assert isinstance(result.get("error"), FailedRankError)
            # First declaration wins and is stable.
            assert str(world.failed_ranks()[1]).startswith("s")
            cancel_quietly(req)
            assert scope.pending_requests() == []
