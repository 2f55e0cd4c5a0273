"""Lock-order witness tests: the instrumented lock must catch a
deliberately inverted acquisition pair and a lock-held-across-fsync, and
must stay quiet on well-ordered code (the clean-run guarantee the
concurrency and fault suites rely on via their autouse fixtures)."""

import os
import socket
import threading

import pytest

from repro.analysis.lockorder import (
    LockOrderFinding,
    LockOrderWitness,
    witness_locks,
)


@pytest.fixture()
def witness():
    return LockOrderWitness()


def test_inverted_pair_reports_cycle(witness):
    a = witness.wrap(threading.Lock(), "A")
    b = witness.wrap(threading.Lock(), "B")
    with a:
        with b:
            pass
    with b:
        with a:
            pass
    kinds = [f.kind for f in witness.findings]
    assert kinds == ["cycle"]
    (finding,) = witness.findings
    assert set(finding.chain) == {"A", "B"}


def test_inversion_across_threads_reports_cycle(witness):
    a = witness.wrap(threading.Lock(), "A")
    b = witness.wrap(threading.Lock(), "B")

    def forward():
        with a:
            with b:
                pass

    def backward():
        with b:
            with a:
                pass

    t = threading.Thread(target=forward)
    t.start()
    t.join()
    backward()
    assert [f.kind for f in witness.findings] == ["cycle"]


def test_consistent_order_is_clean(witness):
    a = witness.wrap(threading.Lock(), "A")
    b = witness.wrap(threading.Lock(), "B")
    for _ in range(3):
        with a:
            with b:
                pass
    witness.assert_clean()


def test_cycle_reported_once(witness):
    a = witness.wrap(threading.Lock(), "A")
    b = witness.wrap(threading.Lock(), "B")
    for _ in range(3):
        with a:
            with b:
                pass
        with b:
            with a:
                pass
    assert len(witness.findings) == 1


def test_reentrant_rlock_adds_no_edges(witness):
    lock = witness.wrap(threading.RLock(), "R")
    other = witness.wrap(threading.RLock(), "S")
    with lock:
        with other:
            with lock:  # re-entrant: must not create S -> R
                pass
    with other:
        pass
    witness.assert_clean()


def test_fsync_under_strict_lock_is_flagged(witness, tmp_path):
    witness.install()
    try:
        lock = witness.wrap(threading.Lock(), "strict")
        fd = os.open(tmp_path / "f", os.O_CREAT | os.O_WRONLY)
        try:
            with lock:
                os.fsync(fd)
        finally:
            os.close(fd)
    finally:
        witness.uninstall()
    (finding,) = witness.findings
    assert finding.kind == "blocking-under-lock"
    assert finding.chain == ("strict",)
    assert "os.fsync" in finding.detail


def test_fsync_under_allow_blocking_lock_is_clean(witness, tmp_path):
    witness.install()
    try:
        lock = witness.wrap(
            threading.RLock(), "wal_write_path", allow_blocking=True
        )
        fd = os.open(tmp_path / "f", os.O_CREAT | os.O_WRONLY)
        try:
            with lock:
                os.fsync(fd)
        finally:
            os.close(fd)
    finally:
        witness.uninstall()
    witness.assert_clean()


def test_socket_send_under_lock_is_flagged(witness):
    witness.install()
    try:
        lock = witness.wrap(threading.Lock(), "conn")
        left, right = socket.socketpair()
        try:
            with lock:
                left.sendall(b"ping")
            assert right.recv(4) == b"ping"  # outside any lock: clean
        finally:
            left.close()
            right.close()
    finally:
        witness.uninstall()
    kinds = [f.kind for f in witness.findings]
    assert kinds == ["blocking-under-lock"]
    assert "socket.sendall" in witness.findings[0].detail


def test_uninstall_restores_patches(witness):
    original_fsync = os.fsync
    original_sendall = socket.socket.sendall
    witness.install()
    witness.uninstall()
    assert os.fsync is original_fsync
    assert socket.socket.sendall is original_sendall


def test_condition_wait_notify_under_wrapped_lock(witness):
    lock = witness.wrap(threading.RLock(), "cond_lock")
    cond = threading.Condition(lock)
    ready = []

    def waiter():
        with cond:
            while not ready:
                cond.wait(timeout=5)

    t = threading.Thread(target=waiter)
    t.start()
    with cond:
        ready.append(True)
        cond.notify()
    t.join(timeout=5)
    assert not t.is_alive()
    witness.assert_clean()


def test_assert_clean_raises_with_rendered_findings(witness):
    a = witness.wrap(threading.Lock(), "A")
    b = witness.wrap(threading.Lock(), "B")
    with a:
        with b:
            pass
    with b:
        with a:
            pass
    with pytest.raises(AssertionError, match="cycle"):
        witness.assert_clean()


def test_report_structure(witness):
    a = witness.wrap(threading.Lock(), "A")
    b = witness.wrap(threading.Lock(), "B")
    with a:
        with b:
            pass
    report = witness.report()
    assert report["locks"] == ["A", "B"]
    assert report["edges"][0]["from"] == "A"
    assert report["edges"][0]["to"] == "B"
    assert report["findings"] == []


def test_finding_render():
    finding = LockOrderFinding(
        kind="cycle", detail="d", chain=("A", "B"), thread="T"
    )
    assert "A -> B" in finding.render()
    assert "cycle" in finding.render()


def test_witness_locks_wraps_repro_created_locks():
    """Factory patching must witness locks created by repro code (the
    service stack) and pass stdlib/test-created locks through raw."""
    from repro.core.smartstore import SmartStore, SmartStoreConfig
    from repro.service import QueryService
    from repro.workloads.types import PointQuery

    from helpers import make_files

    files = make_files(30, clusters=2)
    with witness_locks() as witness:
        local = threading.Lock()  # created from test code: stays raw
        assert type(local).__name__ != "OrderedLock"
        store = SmartStore.build(
            files, SmartStoreConfig(num_units=4, seed=3)
        )
        with QueryService(store) as service:
            result = service.execute(PointQuery(filename=files[0].filename))
            assert result.files
    report = witness.report()
    witness.assert_clean()
    # The service stack took nested locks at least once (state lock /
    # telemetry / cache interplay), so the graph is non-trivial.
    assert isinstance(report["edges"], list)
    assert threading.Lock is not None


def test_witness_locks_restores_factories():
    original_lock = threading.Lock
    original_rlock = threading.RLock
    with witness_locks():
        assert threading.Lock is not original_lock
    assert threading.Lock is original_lock
    assert threading.RLock is original_rlock
