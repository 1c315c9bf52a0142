"""JobQueue polls at O(pending): the terminal memo, id allocation between
alternating submitters, running-job reclaim and the bounded lease-lock
cache."""

from __future__ import annotations

import json
import os
import socket
from collections import Counter

from repro.service import JobQueue
from repro.store import LOCK_FORMAT


def _request(seed: int = 0) -> dict:
    return {
        "algorithm": "snake_1",
        "side": 6,
        "trials": 40,
        "kind": "sort_steps",
        "seed": seed,
        "shard_size": 8,
    }


def _dead_pid() -> int:
    pid = 2 ** 22 + os.getpid() % 1000
    while True:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return pid
        except OSError:
            pass
        pid += 1


def _spy_loads(queue: JobQueue) -> Counter:
    """Count ``queue.load`` calls per job id."""
    calls: Counter = Counter()
    original = queue.load

    def load(job_id):
        calls[job_id] += 1
        return original(job_id)

    queue.load = load  # type: ignore[method-assign]
    return calls


def _write_dead_lease(queue: JobQueue, job_id: str) -> None:
    queue.leases_dir.mkdir(parents=True, exist_ok=True)
    queue.lease_path(job_id).write_text(
        json.dumps({
            "format": LOCK_FORMAT,
            "owner": "crashed-serve",
            "host": socket.gethostname(),
            "pid": _dead_pid(),
            "heartbeat": 1,
        }),
        encoding="utf-8",
    )


class TestTerminalMemo:
    def test_finished_documents_are_parsed_at_most_once(self, tmp_path):
        writer = JobQueue(tmp_path)
        ids = [writer.submit(_request(seed))["id"] for seed in range(5)]
        writer.update(ids[0], state="done")
        writer.update(ids[1], state="failed", error="boom")
        queue = JobQueue(tmp_path)
        calls = _spy_loads(queue)
        for _ in range(4):
            for _doc, lease in queue.claim_pending():
                lease.release()
        assert calls[ids[0]] == 1 and calls[ids[1]] == 1
        # Live documents are re-read every poll (listing + re-read under
        # the lease), so their state changes are never missed.
        assert calls[ids[2]] == 8
        # A job finished elsewhere is read once more, then never again.
        writer.update(ids[2], state="done")
        for _ in range(3):
            for _doc, lease in queue.claim_pending():
                lease.release()
        assert calls[ids[2]] == 9
        assert [d["id"] for d in queue.pending()] == ids[3:]

    def test_list_jobs_stays_a_full_read(self, tmp_path):
        queue = JobQueue(tmp_path)
        ids = [queue.submit(_request(seed))["id"] for seed in range(3)]
        queue.update(ids[0], state="done")
        queue.pending()
        calls = _spy_loads(queue)
        assert [d["state"] for d in queue.list_jobs()] == ["done", "pending", "pending"]
        assert calls[ids[0]] == 1

    def test_corrupt_document_still_quarantined_by_pending(self, tmp_path):
        queue = JobQueue(tmp_path)
        ids = [queue.submit(_request(seed))["id"] for seed in range(3)]
        queue.update(ids[0], state="done")
        assert [d["id"] for d in queue.pending()] == ids[1:]
        (queue.jobs_dir / "j000040.json").write_text("{torn", encoding="utf-8")
        assert [d["id"] for d in queue.pending()] == ids[1:]
        assert not (queue.jobs_dir / "j000040.json").exists()
        assert (queue.quarantine_dir / "j000040-1.json").exists()


class TestIdAllocation:
    def test_alternating_submitters_get_distinct_increasing_ids(self, tmp_path):
        a, b = JobQueue(tmp_path), JobQueue(tmp_path)
        # b's first listing misses a's latest submit, as when the two race:
        # its candidate collides, and it rescans and takes the next id.
        stale = [True]
        original = b._job_ids

        def job_ids():
            ids = original()
            if stale[0] and ids:
                stale[0] = False
                return ids[:-1]
            return ids

        b._job_ids = job_ids  # type: ignore[method-assign]
        ids = [(a if seed % 2 == 0 else b).submit(_request(seed))["id"]
               for seed in range(6)]
        assert not stale[0]
        assert ids == [f"j{n:06d}" for n in range(1, 7)]
        assert [d["id"] for d in a.list_jobs()] == ids


class TestRunningReclaim:
    def test_running_job_of_dead_owner_is_claimed_as_reclaimed(self, tmp_path):
        queue = JobQueue(tmp_path)
        job_id = queue.submit(_request())["id"]
        queue.update(job_id, state="running", owner="crashed-serve")
        _write_dead_lease(queue, job_id)
        [(doc, lease)] = JobQueue(tmp_path).claim_pending()
        assert doc["id"] == job_id and doc["state"] == "running"
        assert lease.reclaimed
        lease.release()

    def test_running_job_of_live_owner_is_left_alone(self, tmp_path):
        owner = JobQueue(tmp_path)
        job_id = owner.submit(_request())["id"]
        [(_doc, lease)] = owner.claim_pending()
        owner.update(job_id, state="running")
        peer = JobQueue(tmp_path)
        assert peer.claim_pending() == []
        # The owner's own polls skip the job it is serving.
        assert owner.claim_pending() == []
        assert owner.lease_path(job_id).exists()
        lease.release()

    def test_running_is_not_terminal(self, tmp_path):
        queue = JobQueue(tmp_path)
        job_id = queue.submit(_request())["id"]
        queue.update(job_id, state="running")
        assert queue.pending() == []
        queue.update(job_id, state="pending")
        assert [d["id"] for d in queue.pending()] == [job_id]


class TestLeaseLockCache:
    def test_finished_jobs_leave_no_lease_lock_behind(self, tmp_path):
        queue = JobQueue(tmp_path)
        for seed in range(4):
            queue.submit(_request(seed))
        for doc, lease in queue.claim_pending():
            queue.update(doc["id"], state="running", owner=lease.owner)
            queue.update(doc["id"], state="done")
            lease.release()
        assert queue._lease_locks == {}

    def test_jobs_finished_by_a_peer_are_forgotten_on_the_next_poll(self, tmp_path):
        owner, peer = JobQueue(tmp_path), JobQueue(tmp_path)
        job_id = owner.submit(_request())["id"]
        [(_doc, lease)] = owner.claim_pending()
        owner.update(job_id, state="running")
        assert peer.claim_pending() == []  # lease attempt cached a lock
        assert job_id in peer._lease_locks
        owner.update(job_id, state="done")
        lease.release()
        assert peer.claim_pending() == []
        assert peer._lease_locks == {}
