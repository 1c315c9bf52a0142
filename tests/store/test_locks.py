"""The cross-process FileLock primitive (leases + fingerprint single-flight)."""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.errors import LeaseError, ServiceError
from repro.store import LOCK_FORMAT, FileLock, LocalResultStore


def _write_foreign_lock(path, *, host="some-other-host", pid=None, heartbeat=0):
    """A lock body as another (possibly remote) owner would leave it."""
    body = {
        "format": LOCK_FORMAT,
        "owner": f"{host}:pid-{pid or 12345}",
        "host": host,
        "heartbeat": heartbeat,
    }
    if pid is not None:
        body["pid"] = pid
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(body), encoding="utf-8")


def _dead_pid() -> int:
    """A pid that does not exist on this machine."""
    pid = 2 ** 22 + os.getpid() % 1000
    while True:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return pid
        except OSError:
            pass
        pid += 1


class TestAcquireRelease:
    def test_exclusive_between_instances(self, tmp_path):
        path = tmp_path / "x.lock"
        a, b = FileLock(path), FileLock(path)
        assert a.try_acquire()
        assert not b.try_acquire()
        a.release()
        assert b.try_acquire()
        b.release()

    def test_body_records_owner(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock", owner="me")
        assert lock.try_acquire()
        body = lock.read_owner()
        assert body["format"] == LOCK_FORMAT
        assert body["owner"] == "me"
        assert body["pid"] == os.getpid()
        assert body["heartbeat"] == 0
        lock.release()
        assert lock.read_owner() is None

    def test_double_acquire_is_a_protocol_error(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        assert lock.try_acquire()
        with pytest.raises(LeaseError, match="already held"):
            lock.try_acquire()
        lock.release()

    def test_release_idempotent(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        lock.try_acquire()
        lock.release()
        lock.release()  # no-op, no error
        assert not lock.held

    def test_acquire_blocks_until_released(self, tmp_path):
        path = tmp_path / "x.lock"
        holder = FileLock(path)
        assert holder.try_acquire()
        release_after = threading.Timer(0.15, holder.release)
        release_after.start()
        waiter = FileLock(path, poll_interval=0.01)
        waited = waiter.acquire(timeout=5.0)
        assert waiter.held
        assert waited >= 0.05
        waiter.release()
        release_after.join()

    def test_acquire_timeout_raises_with_owner(self, tmp_path):
        path = tmp_path / "x.lock"
        holder = FileLock(path, owner="the-holder")
        assert holder.try_acquire()
        waiter = FileLock(path, poll_interval=0.01)
        with pytest.raises(LeaseError, match="the-holder") as excinfo:
            waiter.acquire(timeout=0.05)
        assert excinfo.value.owner == "the-holder"
        assert isinstance(excinfo.value, ServiceError)  # taxonomy nesting
        holder.release()

    def test_hold_context_manager(self, tmp_path):
        path = tmp_path / "x.lock"
        lock = FileLock(path)
        with lock.hold(timeout=1.0):
            assert lock.held
            assert path.exists()
        assert not lock.held
        assert not path.exists()


class TestHeartbeat:
    def test_bump_increments_logical_clock(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        lock.try_acquire()
        assert lock.bump() == 1
        assert lock.bump() == 2
        assert lock.read_owner()["heartbeat"] == 2
        lock.release()

    def test_bump_without_hold_raises(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        with pytest.raises(LeaseError, match="not held"):
            lock.bump()


class TestStaleReclaim:
    def test_dead_onhost_owner_reclaimed_immediately(self, tmp_path):
        import socket

        path = tmp_path / "x.lock"
        _write_foreign_lock(path, host=socket.gethostname(), pid=_dead_pid())
        lock = FileLock(path)  # no stale_after needed: pid probe is enough
        assert lock.try_acquire()
        assert lock.reclaimed
        lock.release()

    def test_live_onhost_owner_never_reclaimed(self, tmp_path):
        path = tmp_path / "x.lock"
        holder = FileLock(path)
        assert holder.try_acquire()
        # Even a zero staleness bound must not break a live on-host owner.
        contender = FileLock(path, stale_after=0.0, poll_interval=0.01)
        assert not contender.try_acquire()
        time.sleep(0.05)
        assert not contender.try_acquire()
        holder.release()

    def test_remote_owner_reclaimed_after_observed_silence(self, tmp_path):
        path = tmp_path / "x.lock"
        _write_foreign_lock(path, host="some-other-host")
        lock = FileLock(path, stale_after=0.05)
        assert not lock.try_acquire()  # first sight starts the clock
        time.sleep(0.1)
        assert lock.try_acquire()
        assert lock.reclaimed
        lock.release()

    def test_remote_heartbeat_resets_observation(self, tmp_path):
        path = tmp_path / "x.lock"
        _write_foreign_lock(path, host="some-other-host", heartbeat=0)
        lock = FileLock(path, stale_after=0.15)
        assert not lock.try_acquire()
        time.sleep(0.08)
        _write_foreign_lock(path, host="some-other-host", heartbeat=1)
        assert not lock.try_acquire()  # heartbeat moved: clock restarts
        time.sleep(0.08)
        assert not lock.try_acquire()  # still within the new window
        time.sleep(0.12)
        assert lock.try_acquire()
        lock.release()

    def test_no_stale_after_never_reclaims_remote(self, tmp_path):
        path = tmp_path / "x.lock"
        _write_foreign_lock(path, host="some-other-host")
        lock = FileLock(path, stale_after=None)
        assert not lock.try_acquire()
        time.sleep(0.05)
        assert not lock.try_acquire()

    def test_break_race_has_exactly_one_winner(self, tmp_path):
        path = tmp_path / "x.lock"
        _write_foreign_lock(path, host="some-other-host")
        locks = [FileLock(path, stale_after=0.03) for _ in range(8)]
        for lock in locks:
            assert not lock.try_acquire()  # start every observation clock
        time.sleep(0.08)
        barrier = threading.Barrier(len(locks))
        winners = []

        def contend(lock):
            barrier.wait()
            if lock.try_acquire():
                winners.append(lock)

        threads = [threading.Thread(target=contend, args=(lk,)) for lk in locks]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(winners) == 1
        winners[0].release()

    @pytest.mark.parametrize("owner", ["dead-onhost", "silent-remote"])
    def test_break_never_takes_a_lock_created_after_judging(self, tmp_path, owner):
        """Deterministic form of the break race: A breaks the stale lock and
        acquires while B sits between judging it stale and breaking it.
        B must not break A's fresh lock."""
        import socket

        path = tmp_path / "x.lock"
        if owner == "dead-onhost":
            _write_foreign_lock(path, host=socket.gethostname(), pid=_dead_pid())
            a, b = FileLock(path), FileLock(path)
        else:
            _write_foreign_lock(path, host="some-other-host")
            a, b = FileLock(path, stale_after=0.02), FileLock(path, stale_after=0.02)
            assert not a.try_acquire() and not b.try_acquire()  # start the clocks
            time.sleep(0.05)
        steal = b._steal

        def steal_after_a_wins(*args):
            assert a.try_acquire()
            return steal(*args)

        b._steal = steal_after_a_wins
        assert not b.try_acquire()
        assert a.held and not b.held
        assert a.read_owner()["pid"] == os.getpid()
        assert not (tmp_path / "x.lock.break").exists()
        a.release()
        assert b.try_acquire()  # the lock is free again: B just takes it
        b.release()

    def test_break_race_stress_dead_owner(self, tmp_path):
        """More contenders than cores and a tiny switch interval, over many
        rounds: every break of a dead owner's lock has exactly one winner."""
        import socket
        import sys

        path = tmp_path / "x.lock"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                _write_foreign_lock(path, host=socket.gethostname(), pid=_dead_pid())
                locks = [FileLock(path) for _ in range(16)]
                barrier = threading.Barrier(len(locks))
                winners = []

                def contend(lock):
                    barrier.wait()
                    if lock.try_acquire():
                        winners.append(lock)

                threads = [threading.Thread(target=contend, args=(lk,)) for lk in locks]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert len(winners) == 1
                winners[0].release()
        finally:
            sys.setswitchinterval(interval)

    def test_leftover_break_name_ages_out(self, tmp_path):
        """A contender that died mid-break leaves ``<name>.break`` behind;
        it is observed like a lock body and cleared after stale_after."""
        path = tmp_path / "x.lock"
        _write_foreign_lock(path, host="some-other-host")
        os.link(path, tmp_path / "x.lock.break")
        lock = FileLock(path, stale_after=0.03)
        assert not lock.try_acquire()  # watching the break name
        time.sleep(0.06)
        assert not lock.try_acquire()  # break name cleared
        assert not (tmp_path / "x.lock.break").exists()
        assert not lock.try_acquire()  # now watching the stale lock
        time.sleep(0.06)
        assert lock.try_acquire()
        assert lock.reclaimed
        lock.release()

    def test_torn_lock_body_ages_out_by_mtime(self, tmp_path):
        path = tmp_path / "x.lock"
        path.write_text("{not json", encoding="utf-8")
        lock = FileLock(path, stale_after=0.05)
        assert not lock.try_acquire()
        time.sleep(0.1)
        assert lock.try_acquire()
        lock.release()


class TestStoreFingerprintLock:
    def test_lock_lives_under_store_locks_dir(self, tmp_path):
        store = LocalResultStore(tmp_path)
        lock = store.fingerprint_lock("ab12cd")
        assert lock.path == tmp_path / "locks" / "ab12cd.lock"
        assert lock.try_acquire()
        assert (tmp_path / "locks" / "ab12cd.lock").exists()
        lock.release()

    def test_two_store_instances_exclude_each_other(self, tmp_path):
        a = LocalResultStore(tmp_path).fingerprint_lock("ff00")
        b = LocalResultStore(tmp_path).fingerprint_lock("ff00")
        assert a.try_acquire()
        assert not b.try_acquire()
        a.release()
        assert b.try_acquire()
        b.release()
