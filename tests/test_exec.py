"""Tests for repro.exec: parallel sweep execution and the result cache.

The load-bearing guarantees:

- ``--jobs N`` is **bit-identical** to the serial path — aggregates,
  experiment data, fault-point record digests, and obs manifest
  digests all match exactly.
- The content-addressed cache returns exactly what was stored, misses
  on a changed code digest, and never changes a result digest (a warm
  run has the same digest as a cold one).
- ``--jobs`` validation is shared and strict.
"""

import json
import os
import warnings

import pytest

from repro.barrier.metrics import BarrierAggregate
from repro.barrier.simulator import simulate_barrier
from repro.barrier.sweep import sweep
from repro.core.backoff import (
    ExponentialFlagBackoff,
    NoBackoff,
    RandomizedExponentialBackoff,
)
from repro.exec.cache import (
    ResultCache,
    cache_key,
    canonical_params,
    code_digest,
    payload_digest,
)
from repro.exec.context import (
    ExecConfig,
    execution,
    get_stats,
    jobs_arg,
    reset_stats,
    validate_jobs,
)
from repro.exec.shards import shard_bounds

# Tiny sweep shapes: the guarantees under test are exact equalities,
# so two points at a handful of repetitions prove as much as the full
# paper grid.
N_VALUES = (2, 4)
REPS = 6


def _aggregate_state(aggregate: BarrierAggregate) -> dict:
    """Every float and counter inside an aggregate, for exact equality."""
    state = {
        "num_processors": aggregate.num_processors,
        "interval_a": aggregate.interval_a,
        "policy_name": aggregate.policy_name,
        "degraded_runs": aggregate.degraded_runs,
        "timed_out_processes": aggregate.timed_out_processes,
    }
    for name in ("accesses", "waiting", "waiting_p95", "queued"):
        state[name] = dict(vars(getattr(aggregate, name)))
    return state


class TestShardBounds:
    def test_partitions_cover_range_without_overlap(self):
        for reps in (1, 5, 8, 100):
            for shards in (1, 2, 3, 7):
                bounds = shard_bounds(reps, shards)
                flattened = [
                    rep for start, stop in bounds for rep in range(start, stop)
                ]
                assert flattened == list(range(reps))

    def test_fewer_reps_than_shards(self):
        bounds = shard_bounds(2, 4)
        assert all(start < stop for start, stop in bounds)
        assert sum(stop - start for start, stop in bounds) == 2


class TestJobsValidation:
    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_rejects_below_one(self, bad):
        with pytest.raises(ValueError):
            validate_jobs(bad)

    def test_warns_past_cpu_count(self):
        cpus = os.cpu_count() or 1
        with pytest.warns(RuntimeWarning):
            assert validate_jobs(cpus + 1) == cpus + 1

    def test_accepts_one_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate_jobs(1) == 1

    def test_jobs_arg_rejects_non_integer(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            jobs_arg("many")
        with pytest.raises(argparse.ArgumentTypeError):
            jobs_arg("0")

    def test_exec_config_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            ExecConfig(jobs=0)

    def test_active_flags(self):
        assert not ExecConfig().active
        assert ExecConfig(jobs=2).active
        assert ExecConfig(cache=True).active
        assert ExecConfig(force_engine=True).active


class TestSerialParallelEquivalence:
    """--jobs N must be bit-identical to the serial path."""

    def test_single_point_matches_serial(self):
        serial = simulate_barrier(
            4, 100, ExponentialFlagBackoff(base=2), repetitions=REPS, seed=3
        )
        with execution(ExecConfig(jobs=4, force_engine=True)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                parallel = simulate_barrier(
                    4, 100, ExponentialFlagBackoff(base=2),
                    repetitions=REPS, seed=3,
                )
        assert _aggregate_state(serial) == _aggregate_state(parallel)

    def test_barrier_sweep_matches_serial(self):
        serial = sweep(N_VALUES, 100, repetitions=REPS, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            parallel = sweep(N_VALUES, 100, repetitions=REPS, seed=1, jobs=4)
        assert serial.keys() == parallel.keys()
        for label in serial:
            for point_s, point_p in zip(serial[label], parallel[label]):
                assert _aggregate_state(point_s) == _aggregate_state(point_p)

    def test_stateful_policy_stays_inline_and_matches(self):
        # RandomizedExponentialBackoff carries RNG state across
        # episodes, so the engine must keep it out of the pool (and the
        # cache) while still producing the serial result.
        serial = simulate_barrier(
            4, 100, RandomizedExponentialBackoff(seed=5),
            repetitions=REPS, seed=2,
        )
        reset_stats()
        with execution(ExecConfig(jobs=3, force_engine=True)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                parallel = simulate_barrier(
                    4, 100, RandomizedExponentialBackoff(seed=5),
                    repetitions=REPS, seed=2,
                )
        assert _aggregate_state(serial) == _aggregate_state(parallel)
        assert get_stats().shards == 0  # never left the parent process

    def test_manifest_digest_identical_across_jobs(self, tmp_path):
        from repro.obs.profile import profile_experiment

        digests = {}
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            with execution(ExecConfig(jobs=jobs, force_engine=True)):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    profiled = profile_experiment(
                        "figure5", output_dir=str(out), repetitions=1
                    )
            digests[jobs] = profiled.manifest.deterministic_digest()
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["execution"]["jobs"] == jobs
        assert digests[1] == digests[2]

    def test_faults_sweep_matches_serial(self, tmp_path):
        from tests.test_faults import run_faults

        summaries = {}
        for jobs in (1, 4):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                summaries[jobs] = run_faults(
                    "figure5",
                    plan_spec="stragglers",
                    seed=7,
                    params={"repetitions": 1},
                    jobs=jobs,
                    checkpoint_dir=str(tmp_path / f"jobs{jobs}"),
                )
        serial, parallel = summaries[1], summaries[4]
        assert serial.failed == 0 and parallel.failed == 0
        assert serial.records.keys() == parallel.records.keys()
        for key in serial.records:
            assert (
                serial.records[key].to_dict()["digest"]
                == parallel.records[key].to_dict()["digest"]
            )


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cache_key("barrier", {"n": 4, "a": 100}, 0)
        assert cache.get(key) is None
        cache.put(key, {"value": [1.5, 2.5]})
        assert cache.get(key) == {"value": [1.5, 2.5]}

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cache_key("barrier", {"n": 4}, 0)
        cache.put(key, {"value": 1})
        (entry,) = [
            os.path.join(root, name)
            for root, _, names in os.walk(tmp_path)
            for name in names
        ]
        with open(entry, "w", encoding="utf-8") as handle:
            handle.write('{"torn":')
        assert cache.get(key) is None

    def test_key_depends_on_params_seed_and_code(self, monkeypatch):
        base = cache_key("barrier", {"n": 4}, 0)
        assert cache_key("barrier", {"n": 8}, 0) != base
        assert cache_key("barrier", {"n": 4}, 1) != base
        assert cache_key("other", {"n": 4}, 0) != base
        monkeypatch.setenv("REPRO_EXEC_CODE_DIGEST", "deadbeef")
        assert cache_key("barrier", {"n": 4}, 0) != base

    def test_canonical_params_order_independent(self):
        assert canonical_params({"b": 2, "a": (1, 2)}) == canonical_params(
            {"a": [1, 2], "b": 2}
        )

    def test_code_digest_env_override(self, monkeypatch):
        computed = code_digest()
        monkeypatch.setenv("REPRO_EXEC_CODE_DIGEST", "deadbeef")
        assert code_digest() == "deadbeef"
        monkeypatch.delenv("REPRO_EXEC_CODE_DIGEST")
        assert code_digest() == computed


class TestCachedExecution:
    def _run(self, cache_dir):
        return simulate_barrier(
            4, 100, NoBackoff(), repetitions=REPS, seed=9
        )

    def test_hit_miss_and_invalidation(self, tmp_path, monkeypatch):
        config = ExecConfig(cache=True, cache_dir=str(tmp_path))
        serial = self._run(None)

        reset_stats()
        with execution(config):
            cold = self._run(tmp_path)
        assert get_stats().cache_misses == 1
        assert get_stats().cache_stores == 1
        assert _aggregate_state(cold) == _aggregate_state(serial)

        reset_stats()
        with execution(config):
            warm = self._run(tmp_path)
        assert get_stats().cache_hits == 1
        assert get_stats().cache_misses == 0
        assert _aggregate_state(warm) == _aggregate_state(serial)

        # A changed code digest invalidates every prior entry.
        monkeypatch.setenv("REPRO_EXEC_CODE_DIGEST", "new-code-revision")
        reset_stats()
        with execution(config):
            invalidated = self._run(tmp_path)
        assert get_stats().cache_hits == 0
        assert get_stats().cache_misses == 1
        assert _aggregate_state(invalidated) == _aggregate_state(serial)

    def test_stateful_policy_never_cached(self, tmp_path):
        config = ExecConfig(cache=True, cache_dir=str(tmp_path))
        reset_stats()
        with execution(config):
            simulate_barrier(
                4, 100, RandomizedExponentialBackoff(seed=5),
                repetitions=REPS, seed=2,
            )
        stats = get_stats()
        assert stats.cache_misses == 0 and stats.cache_stores == 0

    def test_faults_cache_warm_run(self, tmp_path):
        from tests.test_faults import run_faults

        def run_once(tag):
            return run_faults(
                "figure5",
                plan_spec="stragglers",
                seed=7,
                params={"repetitions": 1},
                cache_dir=str(tmp_path / "cache"),
                checkpoint_dir=str(tmp_path / tag),
            )

        cold = run_once("cold")
        assert cold.cache_hits == 0
        assert cold.cache_stores == cold.total_points
        warm = run_once("warm")
        assert warm.cache_hits == warm.total_points
        assert warm.cache_stores == 0
        for key in cold.records:
            assert (
                cold.records[key].to_dict()["digest"]
                == warm.records[key].to_dict()["digest"]
            )


class TestPayloadDigest:
    def test_stable_across_key_order(self):
        assert payload_digest({"a": 1, "b": 2}) == payload_digest(
            {"b": 2, "a": 1}
        )
        assert payload_digest({"a": 1}) != payload_digest({"a": 2})


def _entry_paths(cache_dir):
    """Every entry file under a cache directory, sorted."""
    return sorted(
        os.path.join(root, name)
        for root, _, names in os.walk(cache_dir)
        for name in names
        if name.endswith(".json")
    )


class TestCacheRobustness:
    """A damaged cache is a slow cache, never a wrong or crashing one.

    Whatever happens to the files on disk — truncation mid-write,
    hand-editing, version skew, emptiness, binary garbage — the warm
    run must treat the entry as a miss, recompute, re-store, and
    produce an aggregate identical to a clean run.
    """

    def _cold_run(self, cache_dir):
        config = ExecConfig(cache=True, cache_dir=str(cache_dir))
        reset_stats()
        with execution(config):
            aggregate = simulate_barrier(
                4, 100, NoBackoff(), repetitions=REPS, seed=9
            )
        assert get_stats().cache_stores >= 1
        return aggregate

    def _warm_run(self, cache_dir):
        config = ExecConfig(cache=True, cache_dir=str(cache_dir))
        reset_stats()
        with execution(config):
            return simulate_barrier(
                4, 100, NoBackoff(), repetitions=REPS, seed=9
            )

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda path: open(path, "w").write('{"torn":'),
                     id="truncated-json"),
        pytest.param(lambda path: open(path, "w").write(""),
                     id="empty-file"),
        pytest.param(lambda path: open(path, "wb").write(b"\x00\xff\x00"),
                     id="binary-garbage"),
    ])
    def test_damaged_entry_recomputed_and_restored(
        self, tmp_path, damage
    ):
        clean = self._cold_run(tmp_path)
        entries = _entry_paths(tmp_path)
        for path in entries:
            damage(path)

        recovered = self._warm_run(tmp_path)
        stats = get_stats()
        assert stats.cache_hits == 0
        assert stats.cache_misses >= 1
        assert stats.cache_stores == stats.cache_misses  # re-stored
        assert _aggregate_state(recovered) == _aggregate_state(clean)

        # The re-store healed the cache: the next run hits.
        healed = self._warm_run(tmp_path)
        assert get_stats().cache_hits >= 1
        assert get_stats().cache_misses == 0
        assert _aggregate_state(healed) == _aggregate_state(clean)

    def test_hand_edited_payload_fails_integrity_and_recomputes(
        self, tmp_path
    ):
        # Valid JSON with a tampered payload: the integrity digest no
        # longer matches, so the entry must read as a miss — never as
        # wrong data folded into an aggregate.
        clean = self._cold_run(tmp_path)
        for path in _entry_paths(tmp_path):
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            entry["payload"] = {"forged": 12345}
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(entry, handle)

        recovered = self._warm_run(tmp_path)
        assert get_stats().cache_hits == 0
        assert _aggregate_state(recovered) == _aggregate_state(clean)

    def test_version_skew_reads_as_miss(self, tmp_path):
        clean = self._cold_run(tmp_path)
        for path in _entry_paths(tmp_path):
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            entry["version"] = 999  # a future layout
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(entry, handle)

        recovered = self._warm_run(tmp_path)
        assert get_stats().cache_hits == 0
        assert _aggregate_state(recovered) == _aggregate_state(clean)

    def test_unreadable_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cache_key("barrier", {"n": 4}, 0)
        path = cache.put(key, {"value": 1})
        os.chmod(path, 0o000)
        try:
            if os.access(path, os.R_OK):  # running as root: no EACCES
                pytest.skip("permissions are not enforced for this user")
            assert cache.get(key) is None
        finally:
            os.chmod(path, 0o644)


class TestPoolShutdown:
    """The pool leak fix: pools always release, even on ^C."""

    def test_shutdown_clears_the_registry(self):
        from repro.exec import engine

        engine._get_pool(2)
        assert engine._POOLS
        engine.shutdown_pools()
        assert engine._POOLS == {}

    def test_shutdown_is_idempotent(self):
        from repro.exec import engine

        engine.shutdown_pools()
        engine.shutdown_pools()
        assert engine._POOLS == {}

    def test_discard_drops_only_that_size(self):
        from repro.exec import engine

        engine._get_pool(2)
        survivor = engine._get_pool(3)
        engine._discard_pool(2)
        assert 2 not in engine._POOLS
        assert engine._POOLS[3] is survivor
        engine.shutdown_pools(wait=False)

    def test_signal_safe_shutdown_does_not_block_on_live_work(self):
        import time as _time

        from repro.exec import engine

        pool = engine._get_pool(2)
        pool.submit(_time.sleep, 30)
        started = _time.monotonic()
        engine.shutdown_pools(wait=False)  # the ^C path
        assert _time.monotonic() - started < 5.0
        assert engine._POOLS == {}

    def test_fresh_pool_after_shutdown(self):
        from repro.exec import engine

        first = engine._get_pool(2)
        engine.shutdown_pools(wait=False)
        second = engine._get_pool(2)
        assert second is not first
        assert list(second.map(abs, [-1])) == [1]
        engine.shutdown_pools(wait=False)
