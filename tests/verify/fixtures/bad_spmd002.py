"""Deliberately buggy: nonblocking requests that never complete."""


def fire_and_forget(comm, payload):
    comm.isend(payload, 1)
    return payload


def receive_and_drop(comm):
    request = comm.irecv(0)
    return None


def reply_dropped(comm, block):
    reply = comm.irecv(1, 5)
    return block
