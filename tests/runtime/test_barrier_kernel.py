"""The superstep barrier kernel (``runtime/barrier_kernel.c``) on its own.

Threads stand in for the process pool's children: ``ctypes`` releases
the GIL around ``barrier_wait``, so they really wait on each other in C
over one page, the way forked children do over the inherited one.
"""

import os
import threading

import numpy as np
import pytest

from repro.runtime import BackendError
from repro.runtime.process import _Barrier, _kernel


#: the pid the barrier expects as its caller's parent: here, the test
#: process's own parent, since threads stand in for children.
PARENT = os.getppid()


def _page(parties):
    """The abort word, then one arrival epoch per worker."""
    return np.zeros(parties + 1, dtype=np.uint64)


def _run(parties, body):
    """Run ``body(worker)`` on one thread per worker; re-raise the first error."""
    errors = []

    def guarded(w):
        try:
            body(w)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(w,)) for w in range(parties)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]


@pytest.mark.parametrize("parties", [1, 2, 3, 8])
def test_no_worker_passes_before_every_sibling_arrived(parties):
    """Each worker writes its round before the barrier and, after it,
    must read every sibling's write of the same round.  Eight parties on
    a small host wait mostly in the yield and sleep paths."""
    page, marks, rounds = _page(parties), np.zeros(parties, dtype=np.int64), 50

    def body(w):
        barrier = _Barrier(page, w, 30.0, PARENT)
        for r in range(1, rounds + 1):
            marks[w] = r
            barrier()
            assert (marks >= r).all(), (w, r, marks.tolist())
            barrier()  # nobody starts round r + 1 before all have checked

    _run(parties, body)
    assert page[1:].tolist() == [2 * rounds] * parties
    assert page[0] == 0


def test_the_abort_word_releases_a_waiting_worker():
    page = _page(2)
    outcome = []

    def waiting():
        try:
            _Barrier(page, 0, 30.0, PARENT)()
        except BackendError as exc:
            outcome.append(str(exc))

    thread = threading.Thread(target=waiting)
    thread.start()
    _kernel()[1](page.ctypes.data)
    thread.join(30)
    assert not thread.is_alive()
    assert outcome and "aborted" in outcome[0]
    assert page[0] == 1


def test_a_timeout_names_the_first_worker_missing():
    page = _page(3)
    page[1] = 1  # worker 0 stands at epoch 1; worker 1 never arrives
    with pytest.raises(BackendError, match="worker 1 did not reach the superstep barrier"):
        _Barrier(page, 2, 0.05, PARENT)()
    assert page[3] == 1  # the arrival was published before the wait


def test_an_epoch_already_passed_counts_as_arrived():
    """Epochs only grow: a worker one barrier ahead has arrived here too."""
    page = _page(2)
    page[2] = 5
    _Barrier(page, 0, 0.05, PARENT)()  # epoch 1 <= 5: passes at once
    assert page[1] == 1


def test_a_wait_ends_when_the_coordinator_is_gone():
    """A parent other than the expected one is a dead coordinator: a
    waiting child gives up after its spin phase instead of at its
    deadline."""
    page = _page(2)
    with pytest.raises(BackendError, match="the coordinator is gone"):
        _Barrier(page, 0, 30.0, PARENT + 1)()
