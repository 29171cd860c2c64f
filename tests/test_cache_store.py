"""Tests for the cross-process shared evaluation cache stores.

``CacheStoreContract`` is the shared behavioral suite: any object with
the ``get``/``put``/``__len__`` store interface and its bulk form
``get_many``/``put_many`` must pass it. It runs against both shipped
implementations — the file-backed :class:`SharedCacheStore` and the
service-backed :class:`ServerCacheStore` — so a future store variant
inherits the battery by subclassing and providing a ``make_store``
fixture that returns fresh *handles onto one shared backing*, plus an
``io_calls`` fixture counting the file accesses or requests a handle
has made.
"""

import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.cache_store import ServerCacheStore, SharedCacheStore, encode_key
from repro.core.env import canonical_action_key
from repro.core.errors import (
    ArchGymError,
    CacheStoreError,
    ServiceError,
    ServiceTransportError,
)
from repro.service import EvaluationService
from repro.sweeps import HostPool


def _key(i):
    return canonical_action_key({"x": i, "m": "a"})


def _put_from_subprocess(directory):
    """Module-level so it pickles into a worker process."""
    store = SharedCacheStore(directory)
    store.put(_key(99), {"cost": 3.25})
    return True


def _dead_urls(n):
    """``n`` URLs nothing listens on (bind, read the port back, close)."""
    import socket

    urls = []
    for _ in range(n):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            urls.append(f"http://127.0.0.1:{s.getsockname()[1]}")
    return urls


class _CountingSharedStore(SharedCacheStore):
    """A file store that counts its shard reads and appends."""

    io_calls = 0

    def _append(self, shard, lines):
        self.io_calls += 1
        super()._append(shard, lines)

    def _refresh(self, shard):
        self.io_calls += 1
        super()._refresh(shard)


# -- the shared store contract --------------------------------------------------


class CacheStoreContract:
    """Behavioral contract every ``get/put/__len__`` store must honor.

    Subclasses provide a ``make_store`` fixture: a zero-argument
    callable returning a *new handle* onto one backing shared by all
    handles the test creates — a fresh directory for the file store,
    a fresh server for the service store.
    """

    def test_empty_store_len_zero(self, make_store):
        assert len(make_store()) == 0

    def test_put_get_roundtrip(self, make_store):
        store = make_store()
        store.put(_key(1), {"cost": 2.5, "power": 0.125})
        assert store.get(_key(1)) == {"cost": 2.5, "power": 0.125}

    def test_miss_returns_none(self, make_store):
        assert make_store().get(_key(7)) is None

    def test_floats_roundtrip_exactly_across_handles(self, make_store):
        value = 0.1 + 0.2  # not representable exactly; must survive transport
        make_store().put(_key(2), {"cost": value})
        assert make_store().get(_key(2))["cost"] == value

    def test_get_returns_a_copy(self, make_store):
        store = make_store()
        store.put(_key(3), {"cost": 1.0})
        store.get(_key(3))["cost"] = 999.0
        assert store.get(_key(3))["cost"] == 1.0

    def test_len_counts_distinct_keys(self, make_store):
        store = make_store()
        for i in range(10):
            store.put(_key(i), {"cost": float(i)})
        store.put(_key(0), {"cost": 0.0})  # idempotent re-put
        assert len(store) == 10

    def test_writes_visible_across_handles(self, make_store):
        reader = make_store()
        assert reader.get(_key(6)) is None  # prime any local view
        make_store().put(_key(6), {"cost": 6.0})
        assert reader.get(_key(6)) == {"cost": 6.0}

    def test_encode_key_near_collisions_stay_distinct(self, make_store):
        """Keys that stringify similarly (int vs str values, nesting vs
        flat, swapped name/value pairing) must be distinct entries."""
        store = make_store()
        lookalikes = [
            canonical_action_key({"x": 1}),
            canonical_action_key({"x": "1"}),
            canonical_action_key({"x": (1,)}),
            canonical_action_key({"x": 1, "y": 2}),
            canonical_action_key({"y": 1, "x": 2}),
            canonical_action_key({"x, y": 1}),
        ]
        assert len({encode_key(k) for k in lookalikes}) == len(lookalikes)
        for i, key in enumerate(lookalikes):
            store.put(key, {"cost": float(i)})
        for i, key in enumerate(lookalikes):
            assert store.get(key) == {"cost": float(i)}
        assert len(store) == len(lookalikes)

    def test_concurrent_writers(self, make_store):
        """8 threads, each with its own handle, write disjoint keys;
        every entry must land and count exactly once."""
        per_thread, n_threads = 8, 8
        errors = []

        def write(thread_idx):
            try:
                store = make_store()
                for j in range(per_thread):
                    i = thread_idx * per_thread + j
                    store.put(_key(i), {"cost": float(i)})
            except Exception as exc:  # surfaced after the join
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(t,)) for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        store = make_store()
        assert len(store) == per_thread * n_threads
        for i in range(per_thread * n_threads):
            assert store.get(_key(i)) == {"cost": float(i)}

    def test_duplicate_key_last_writer_wins(self, make_store):
        """Two handles write different values under one key: a fresh
        handle must see the later write (and the key count once)."""
        make_store().put(_key(42), {"cost": 1.0})
        make_store().put(_key(42), {"cost": 2.0})
        fresh = make_store()
        assert fresh.get(_key(42)) == {"cost": 2.0}
        assert len(fresh) == 1

    def test_same_value_re_put_is_idempotent(self, make_store):
        """Re-putting an identical value through the *same* handle (the
        memoization pattern: every copy of a deterministic cost model's
        answer agrees) must not duplicate the entry."""
        store = make_store()
        store.put(_key(7), {"cost": 7.0})
        store.put(_key(7), {"cost": 7.0})
        assert len(make_store()) == 1
        assert make_store().get(_key(7)) == {"cost": 7.0}

    def test_concurrent_same_key_writers_never_tear(self, make_store):
        """8 threads race different multi-field values onto ONE key; a
        fresh handle must read exactly one writer's value intact —
        last-writer-wins may pick any of them, but never a mixture."""
        n_threads = 8
        candidates = [
            {"cost": float(t), "power": float(t) * 0.5, "tag": float(t) + 100.0}
            for t in range(n_threads)
        ]
        errors = []

        def write(t):
            try:
                make_store().put(_key(0), candidates[t])
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(t,)) for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        fresh = make_store()
        assert fresh.get(_key(0)) in candidates
        assert len(fresh) == 1

    # -- the bulk form ------------------------------------------------------------

    def test_bulk_roundtrip(self, make_store):
        entries = [(_key(i), {"cost": i / 3, "power": 0.1 * i}) for i in range(6)]
        make_store().put_many(entries)
        assert make_store().get_many([k for k, _ in entries]) == dict(entries)
        assert len(make_store()) == 6

    def test_bulk_misses_are_absent(self, make_store):
        store = make_store()
        store.put(_key(1), {"cost": 1.0})
        assert store.get_many([_key(1), _key(2)]) == {_key(1): {"cost": 1.0}}
        assert make_store().get_many([_key(3), _key(4)]) == {}

    def test_bulk_matches_per_point_calls(self, make_store):
        make_store().put_many([(_key(1), {"cost": 1.0})])
        make_store().put(_key(2), {"cost": 2.0})
        fresh = make_store()
        assert fresh.get_many([_key(1), _key(2)]) == {
            _key(1): fresh.get(_key(1)), _key(2): fresh.get(_key(2)),
        }

    def test_bulk_duplicate_keys_in_one_call(self, make_store):
        """Repeats in one call behave like repeated single calls: an
        equal value is stored once, a different one wins as the later
        write, and a repeated lookup key is answered once."""
        store = make_store()
        store.put_many([
            (_key(1), {"cost": 1.0}), (_key(2), {"cost": 2.0}),
            (_key(1), {"cost": 1.0}),
            (_key(3), {"cost": 0.0}), (_key(3), {"cost": 3.0}),
        ])
        assert store.get_many([_key(3)]) == {_key(3): {"cost": 3.0}}
        fresh = make_store()
        assert fresh.get_many([_key(1), _key(3), _key(1)]) == {
            _key(1): {"cost": 1.0}, _key(3): {"cost": 3.0},
        }
        assert len(fresh) == 3

    def test_bulk_empty_input_is_a_no_op(self, make_store, io_calls):
        store = make_store()
        before = io_calls(store)
        assert store.get_many([]) == {}
        store.put_many([])
        assert io_calls(store) == before
        assert len(make_store()) == 0

    def test_bulk_same_value_re_put_is_idempotent(self, make_store, io_calls):
        store = make_store()
        entries = [(_key(i), {"cost": float(i)}) for i in range(3)]
        store.put_many(entries)
        before = io_calls(store)
        store.put_many(entries)
        store.put_many([(_key(0), {"cost": 0}), (_key(1), {"cost": 1.0})])
        # every key is held by this handle: answered without any I/O
        assert store.get_many([k for k, _ in entries]) == dict(entries)
        assert io_calls(store) == before
        assert len(make_store()) == 3

    def test_bulk_non_finite_metric_rejected_before_any_write(
        self, make_store, io_calls
    ):
        store = make_store()
        before = io_calls(store)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(CacheStoreError, match="non-finite"):
                store.put_many([
                    (_key(1), {"cost": 1.0}), (_key(2), {"cost": bad}),
                ])
        assert io_calls(store) == before
        assert len(make_store()) == 0


class TestSharedCacheStoreContract(CacheStoreContract):
    @pytest.fixture()
    def make_store(self, tmp_path):
        return lambda: _CountingSharedStore(tmp_path / "cache")

    @pytest.fixture()
    def io_calls(self):
        return lambda store: store.io_calls


def _pool(closing, *urls, **policy):
    """A closed-at-teardown pool over ``urls`` (fast failure policy by
    default) — what a trial's backend hands its server cache tier."""
    policy = {"timeout_s": 1.0, "retries": 0, "backoff_s": 0.01, **policy}
    return closing(HostPool(list(urls), **policy))


def _requests(pool):
    """Round trips the pool's hosts have been sent, host by host."""
    return [h.client.requests_sent for h in pool._hosts]


class TestServerCacheStoreContract(CacheStoreContract):
    @pytest.fixture()
    def cache_dir(self):
        """The service's ``--cache-dir``; ``None`` keeps its map in memory."""
        return None

    @pytest.fixture()
    def make_store(self, closing, cache_dir):
        with EvaluationService(cache_dir=cache_dir) as svc:
            yield lambda: ServerCacheStore(
                _pool(closing, svc.url, timeout_s=10.0, retries=1)
            )

    @pytest.fixture()
    def io_calls(self):
        return lambda store: sum(_requests(store.pool))


class TestServerCacheStoreContractOnDisk(TestServerCacheStoreContract):
    """The same battery against a service whose map has a directory."""

    @pytest.fixture()
    def cache_dir(self, tmp_path):
        return tmp_path / "srv-cache"


# -- SharedCacheStore specifics --------------------------------------------------


class TestSharedStoreBasics:
    def test_bad_n_shards_rejected(self, tmp_path):
        with pytest.raises(ArchGymError):
            SharedCacheStore(tmp_path / "cache", n_shards=0)

    def test_get_on_deleted_directory_returns_none(self, tmp_path):
        """Regression: a shard directory removed out from under the
        store (cleanup racing a long-lived process) is an empty cache,
        not a crash."""
        import shutil

        store = SharedCacheStore(tmp_path / "cache")
        store.put(_key(1), {"cost": 1.0})
        fresh = SharedCacheStore(tmp_path / "cache")  # nothing read yet
        shutil.rmtree(tmp_path / "cache")
        assert fresh.get(_key(1)) is None
        assert fresh.get(_key(2)) is None
        assert len(fresh) == 0

    def test_put_recreates_deleted_directory(self, tmp_path):
        import shutil

        store = SharedCacheStore(tmp_path / "cache")
        shutil.rmtree(tmp_path / "cache")
        store.put(_key(5), {"cost": 5.0})
        assert SharedCacheStore(tmp_path / "cache").get(_key(5)) == {"cost": 5.0}

    def test_directoryless_store_makes_no_file(self, tmp_path, monkeypatch):
        """``SharedCacheStore(None)`` holds its entries in the object: no
        directory, meta file or shard file, not even a relative one."""
        def no_open(*args, **kwargs):
            raise AssertionError("a directory-less store opened a file")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("repro.core.cache_store.os.open", no_open)
        store = SharedCacheStore(None, durable=True)
        store.put_many([(_key(i), {"cost": float(i)}) for i in range(40)])
        store.put(_key(3), {"cost": -3.0})
        assert store.get(_key(3)) == {"cost": -3.0}
        assert store.get(_key(99)) is None
        assert len(store) == 40
        assert store.list_encoded(0, 5)[1] == 40
        assert list(tmp_path.iterdir()) == []
        assert repr(store) == "SharedCacheStore(directory=None, n_shards=1)"

    def test_durable_put_fsyncs(self, tmp_path, monkeypatch):
        """Regression for the documented O_APPEND durability contract:
        ``durable=True`` must fsync each append, the default must not
        (it trades an entry-on-crash for write latency, never
        correctness)."""
        import os as os_module

        synced = []
        real_fsync = os_module.fsync
        monkeypatch.setattr(
            "repro.core.cache_store.os.fsync",
            lambda fd: (synced.append(fd), real_fsync(fd)),
        )
        fast = SharedCacheStore(tmp_path / "fast")
        fast.put(_key(1), {"cost": 1.0})
        assert synced == []
        durable = SharedCacheStore(tmp_path / "durable", durable=True)
        durable.put(_key(1), {"cost": 1.0})
        assert len(synced) == 1


class TestSharedStoreBulk:
    """The file tier's bulk form touches each shard once per call and
    writes the same bytes as one ``put`` per entry."""

    def _shard_bytes(self, directory):
        return {
            p.name: p.read_bytes()
            for p in sorted(directory.glob("shard-*.jsonl"))
        }

    def test_put_many_writes_the_bytes_of_per_point_puts(self, tmp_path):
        entries = [(_key(i), {"cost": float(i), "power": i / 7}) for i in range(40)]
        entries.append((_key(3), {"cost": -3.0}))  # a later, different value
        serial = SharedCacheStore(tmp_path / "serial", n_shards=4)
        for key, metrics in entries:
            serial.put(key, metrics)
        bulk = SharedCacheStore(tmp_path / "bulk", n_shards=4)
        bulk.put_many(entries)
        assert self._shard_bytes(tmp_path / "bulk") == self._shard_bytes(
            tmp_path / "serial"
        )

    def test_one_write_and_one_fsync_per_shard(self, tmp_path, monkeypatch):
        import os as os_module

        writes, synced = [], []
        real_write, real_fsync = os_module.write, os_module.fsync
        monkeypatch.setattr(
            "repro.core.cache_store.os.write",
            lambda fd, data: (writes.append(fd), real_write(fd, data))[1],
        )
        monkeypatch.setattr(
            "repro.core.cache_store.os.fsync",
            lambda fd: (synced.append(fd), real_fsync(fd)),
        )
        store = SharedCacheStore(tmp_path / "cache", n_shards=4, durable=True)
        store.put_many([(_key(i), {"cost": float(i)}) for i in range(64)])
        shards = len(list((tmp_path / "cache").glob("shard-*.jsonl")))
        assert len(writes) == len(synced) == shards == 4

    def test_get_many_refreshes_each_shard_at_most_once(self, tmp_path):
        SharedCacheStore(tmp_path / "cache", n_shards=4).put_many(
            [(_key(i), {"cost": float(i)}) for i in range(32)]
        )
        reader = _CountingSharedStore(tmp_path / "cache", n_shards=4)
        found = reader.get_many([_key(i) for i in range(64)])
        assert found == {_key(i): {"cost": float(i)} for i in range(32)}
        assert reader.io_calls == 4
        reader.get_many([_key(i) for i in range(32)])  # all held: no reads
        assert reader.io_calls == 4


class TestSharding:
    def test_entries_spread_over_shard_files(self, tmp_path):
        store = SharedCacheStore(tmp_path / "cache", n_shards=8)
        for i in range(64):
            store.put(_key(i), {"cost": float(i)})
        shard_files = list((tmp_path / "cache").glob("shard-*.jsonl"))
        assert len(shard_files) > 1

    def test_mismatched_n_shards_rejected(self, tmp_path):
        SharedCacheStore(tmp_path / "cache", n_shards=4)
        with pytest.raises(CacheStoreError, match="n_shards"):
            SharedCacheStore(tmp_path / "cache", n_shards=8)

    def test_foreign_meta_rejected(self, tmp_path):
        d = tmp_path / "cache"
        d.mkdir()
        (d / "cache-meta.json").write_text('{"format": "other"}')
        with pytest.raises(CacheStoreError, match="not an ArchGym"):
            SharedCacheStore(d)


class TestCrossProcessVisibility:
    def test_write_from_real_subprocess(self, tmp_path):
        directory = str(tmp_path / "cache")
        reader = SharedCacheStore(directory)
        with ProcessPoolExecutor(max_workers=1) as pool:
            assert pool.submit(_put_from_subprocess, directory).result()
        assert reader.get(_key(99)) == {"cost": 3.25}


class TestCorruptionTolerance:
    def test_torn_trailing_line_is_ignored(self, tmp_path):
        store = SharedCacheStore(tmp_path / "cache", n_shards=1)
        store.put(_key(1), {"cost": 1.0})
        shard = tmp_path / "cache" / "shard-000.jsonl"
        with shard.open("ab") as f:
            f.write(b'{"k": "torn')  # a writer died mid-append
        fresh = SharedCacheStore(tmp_path / "cache", n_shards=1)
        assert fresh.get(_key(1)) == {"cost": 1.0}
        assert fresh.get(_key(2)) is None

    def test_corrupt_complete_line_loses_only_that_entry(self, tmp_path):
        store = SharedCacheStore(tmp_path / "cache", n_shards=1)
        store.put(_key(1), {"cost": 1.0})
        shard = tmp_path / "cache" / "shard-000.jsonl"
        with shard.open("ab") as f:
            f.write(b"not json at all\n")
        store.put(_key(2), {"cost": 2.0})
        fresh = SharedCacheStore(tmp_path / "cache", n_shards=1)
        assert fresh.get(_key(1)) == {"cost": 1.0}
        assert fresh.get(_key(2)) == {"cost": 2.0}


class TestServerStoreSpecifics:
    def test_unreachable_server_fails_loudly(self, closing):
        (dead,) = _dead_urls(1)
        store = ServerCacheStore(_pool(closing, dead))
        with pytest.raises(ServiceError):
            store.get(_key(1))
        with pytest.raises(ServiceError):
            store.put(_key(1), {"cost": 1.0})


class TestServerStoreReplication:
    """Write-through fan-out and read fail-over across the pool."""

    def test_default_replication_factor_is_min_two(self, closing):
        solo = ServerCacheStore(_pool(closing, "http://127.0.0.1:1"))
        assert solo.replicas == 1
        trio = ServerCacheStore(_pool(
            closing, "http://127.0.0.1:1", "http://127.0.0.1:2",
            "http://127.0.0.1:3",
        ))
        assert trio.replicas == 2

    def test_put_fans_out_to_replicas(self, closing):
        with EvaluationService() as a, EvaluationService() as b:
            store = ServerCacheStore(
                _pool(closing, a.url, b.url, timeout_s=10.0)
            )
            for i in range(3):
                store.put(_key(i), {"cost": float(i)})
            assert a.cache_size() == 3
            assert b.cache_size() == 3

    def test_read_fails_over_to_replica_after_primary_death(self, closing):
        """The entries of a dead cache host are *not* lost: a reader
        that never saw them finds every replicated entry on the next
        living host."""
        a = EvaluationService()
        a.start()
        try:
            with EvaluationService() as b:
                writer = ServerCacheStore(
                    _pool(closing, a.url, b.url, timeout_s=2.0)
                )
                writer.put(_key(1), {"cost": 1.0})
                writer.put(_key(2), {"cost": 2.0})
                reader = ServerCacheStore(
                    _pool(closing, a.url, b.url, timeout_s=2.0)
                )
                a.stop()
                assert reader.get(_key(1)) == {"cost": 1.0}
                assert reader.get(_key(2)) == {"cost": 2.0}
                assert len(reader) == 2
        finally:
            a.stop()

    def test_exhausted_chain_raises_transport_error(self, closing):
        store = ServerCacheStore(_pool(closing, *_dead_urls(2)))
        with pytest.raises(ServiceError):
            store.get(_key(1))
        with pytest.raises(ServiceError):
            store.put(_key(1), {"cost": 1.0})

    def test_put_many_fans_out_to_replicas(self, closing):
        """One bulk write per replica, to the first two hosts of the
        pool; the host past them gets nothing."""
        with EvaluationService() as a, EvaluationService() as b, \
                EvaluationService() as c:
            pool = _pool(closing, a.url, b.url, c.url, timeout_s=10.0)
            store = ServerCacheStore(pool)
            store.put_many([(_key(i), {"cost": float(i)}) for i in range(5)])
            assert [a.cache_size(), b.cache_size(), c.cache_size()] == [5, 5, 0]
            assert _requests(pool) == [1, 1, 0]

    def test_put_many_skips_a_dead_replica(self, closing):
        """The write rule: the first two *living* hosts in URL order. A
        dead middle host is quarantined and the copy it would have held
        goes to the next living host."""
        with EvaluationService() as a, EvaluationService() as c:
            (dead_b,) = _dead_urls(1)
            pool = _pool(closing, a.url, dead_b, c.url)
            store = ServerCacheStore(pool)
            store.put_many([(_key(i), {"cost": float(i)}) for i in range(3)])
            assert [a.cache_size(), c.cache_size()] == [3, 3]
            assert pool.quarantined_urls == [dead_b]

    def test_get_many_fails_over_after_primary_death(self, closing):
        a = EvaluationService()
        a.start()
        try:
            with EvaluationService() as b:
                writer = ServerCacheStore(
                    _pool(closing, a.url, b.url, timeout_s=2.0)
                )
                entries = [(_key(i), {"cost": float(i)}) for i in range(4)]
                writer.put_many(entries)
                url_a = a.url
                pool = _pool(closing, url_a, b.url, timeout_s=2.0)
                reader = ServerCacheStore(pool)
                a.stop()
                keys = [k for k, _ in entries] + [_key(9)]
                assert reader.get_many(keys) == dict(entries)
                assert pool.quarantined_urls == [url_a]
        finally:
            a.stop()

    def test_put_many_without_a_landed_copy_raises(self, closing):
        store = ServerCacheStore(_pool(closing, *_dead_urls(2)))
        with pytest.raises(ServiceTransportError, match="every replica"):
            store.put_many([(_key(1), {"cost": 1.0})])
        # nothing landed, so nothing is memoized: the retry is re-sent
        assert store._local == {}

    def test_get_and_put_memoize_through_one_cleaner(self, closing):
        """Regression: ``get`` used to cache the server's dict
        un-normalized while ``put`` memoized a cleaned copy, so a
        later put of an equal-but-int-valued dict re-sent the entry.
        Both paths now share one ``{k: float(v)}`` cleaner and the
        re-put short-circuits."""
        with EvaluationService() as svc:
            ServerCacheStore(_pool(closing, svc.url, timeout_s=10.0)).put(
                _key(5), {"cost": 2.0}
            )
            pool = _pool(closing, svc.url, timeout_s=10.0)
            reader = ServerCacheStore(pool)
            assert reader.get(_key(5)) == {"cost": 2.0}
            sent_before = _requests(pool)
            reader.put(_key(5), {"cost": 2})  # int-valued, equal cleaned
            assert _requests(pool) == sent_before


class TestKeyEncoding:
    def test_encode_key_is_stable(self):
        assert encode_key(_key(1)) == encode_key(
            canonical_action_key({"m": "a", "x": 1})
        )

    def test_distinct_keys_distinct_encodings(self):
        assert encode_key(_key(1)) != encode_key(_key(2))

