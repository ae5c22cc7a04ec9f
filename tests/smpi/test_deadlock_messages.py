"""DeadlockError diagnostics name what the *user* issued.

A timed-out blocking or nonblocking receive raises a message shaped for
debugging: the operation, the (source, tag) it was matching, the owning
rank and the timeout spent — never a bare "timed out".
"""

import numpy as np
import pytest

from repro.smpi import DeadlockError, create_communicator
from repro.smpi.mailbox import Mailbox


class TestMailboxGet:
    def test_names_rank_pattern_and_queue_depth(self):
        mailbox = Mailbox(owner=3, timeout=0.05)
        with pytest.raises(
            DeadlockError,
            match=r"rank 3: recv\(source=0, tag=5\) timed out after 0.05s "
            r"\(0 unmatched messages queued\)",
        ):
            mailbox.get(0, 5)

    def test_per_call_timeout_overrides_default(self):
        mailbox = Mailbox(owner=0, timeout=60.0)
        with pytest.raises(DeadlockError, match=r"after 0.01s"):
            mailbox.get(1, 2, timeout=0.01)


class TestRecvRequestWait:
    def test_names_source_tag_and_rank(self):
        comms = create_communicator("threads", 2)
        request = comms[1].irecv(0, 7)
        with pytest.raises(
            DeadlockError,
            match=r"RecvRequest\.wait\(source=0, tag=7\) timed out after "
            r"0.05s on rank 1: the matching send was never posted",
        ):
            request.wait(timeout=0.05)
        request.cancel()

    def test_chains_the_mailbox_error(self):
        comms = create_communicator("threads", 2)
        request = comms[1].irecv(0, 8)
        with pytest.raises(DeadlockError) as info:
            request.wait(timeout=0.05)
        assert isinstance(info.value.__cause__, DeadlockError)
        assert "rank 1" in str(info.value.__cause__)
        request.cancel()

    def test_timed_out_request_can_still_complete(self):
        comms = create_communicator("threads", 2)
        request = comms[1].irecv(0, 9)
        with pytest.raises(DeadlockError):
            request.wait(timeout=0.05)
        comms[0].send(np.arange(3.0), 1, 9)
        assert np.array_equal(request.wait(timeout=5.0), np.arange(3.0))
