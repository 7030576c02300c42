"""Unit tests for consistent-hash sharding of ontology classes."""

import pytest

from repro.discovery import build_service_ontology
from repro.discovery.shard import ShardMap, stable_hash


class TestStableHash:
    def test_deterministic_and_64_bit(self):
        assert stable_hash("PrinterService") == stable_hash("PrinterService")
        assert 0 <= stable_hash("x") < 2 ** 64

    def test_spreads_keys(self):
        hashes = {stable_hash(f"key-{i}") for i in range(100)}
        assert len(hashes) == 100


class TestShardMap:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShardMap(0)
        with pytest.raises(ValueError):
            ShardMap(2, replication=3)
        with pytest.raises(ValueError):
            ShardMap(2, replication=0)

    def test_owners_are_distinct_and_replicated(self):
        smap = ShardMap(8, replication=3)
        for category in build_service_ontology().classes():
            owners = smap.owners_of(category)
            assert len(owners) == 3
            assert len(set(owners)) == 3
            assert all(0 <= s < 8 for s in owners)

    def test_assignment_is_stable_across_instances(self):
        a, b = ShardMap(4, replication=2), ShardMap(4, replication=2)
        for category in build_service_ontology().classes():
            assert a.owners_of(category) == b.owners_of(category)

    def test_owner_walks_are_memoized_per_category(self):
        smap = ShardMap(8, replication=3)
        classes = build_service_ontology().classes()
        first = [smap.owners_of(c) for c in classes]
        again = [smap.owners_of(c) for c in reversed(classes)][::-1]
        assert all(a is b for a, b in zip(first, again))
        assert len(smap._owners) == len(classes)

    def test_primary_and_owns_agree(self):
        smap = ShardMap(4, replication=2)
        owners = smap.owners_of("PrinterService")
        assert smap.primary_of("PrinterService") == owners[0]
        for shard in range(4):
            assert smap.owns(shard, "PrinterService") == (shard in owners)

    def test_full_replication_covers_every_shard(self):
        smap = ShardMap(3, replication=3)
        assert sorted(smap.owners_of("anything")) == [0, 1, 2]

    def test_assignment_table_lists_empty_shards(self):
        smap = ShardMap(16, replication=1)
        table = smap.assignment(["PrinterService"])
        assert set(table) == set(range(16))
        assert sum(len(cats) for cats in table.values()) == 1

    def test_growing_the_ring_moves_few_classes(self):
        # consistent hashing: adding shards must not reshuffle everything
        categories = sorted(build_service_ontology().classes())
        before = ShardMap(8, replication=1)
        after = ShardMap(9, replication=1)
        moved = sum(before.primary_of(c) != after.primary_of(c) for c in categories)
        assert moved < len(categories)
