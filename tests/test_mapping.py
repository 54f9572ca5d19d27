"""The vertex-to-shard mapping stored in the backing store."""

import pytest

from repro.store.kvstore import TransactionalStore
from repro.store.mapping import ShardMapping


@pytest.fixture
def mapping():
    return ShardMapping(TransactionalStore(), num_shards=3)


class TestShardMapping:
    def test_round_robin_balances(self, mapping):
        for i in range(9):
            mapping.assign(f"v{i}")
        assert mapping.load() == {0: 3, 1: 3, 2: 3}

    def test_lookup_returns_assignment(self, mapping):
        shard = mapping.assign("v")
        assert mapping.lookup("v") == shard

    def test_lookup_missing_returns_none(self, mapping):
        assert mapping.lookup("ghost") is None

    def test_explicit_shard_honored(self, mapping):
        assert mapping.assign("v", shard=2) == 2
        assert mapping.lookup("v") == 2

    def test_explicit_shard_out_of_range(self, mapping):
        with pytest.raises(ValueError):
            mapping.assign("v", shard=3)

    def test_assignment_within_transaction_is_atomic(self):
        store = TransactionalStore()
        mapping = ShardMapping(store, 2)
        tx = store.begin()
        mapping.assign("v", tx=tx)
        assert mapping.lookup("v") is None  # not yet committed
        tx.commit()
        assert mapping.lookup("v") is not None

    def test_remove(self, mapping):
        mapping.assign("v")
        mapping.remove("v")
        assert mapping.lookup("v") is None

    def test_items_lists_live_assignments(self, mapping):
        mapping.assign("a", shard=0)
        mapping.assign("b", shard=1)
        assert dict(mapping.items()) == {"a": 0, "b": 1}

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardMapping(TransactionalStore(), 0)

    def test_mapping_keys_do_not_collide_with_graph_keys(self):
        store = TransactionalStore()
        mapping = ShardMapping(store, 2)
        store.transact(lambda t: t.put("v:x", {}))
        mapping.assign("x")
        assert store.get("v:x") == {}
        assert mapping.lookup("x") is not None


def _placements(deployment, partitioner, handles):
    """Create ``handles`` one transaction each on a fresh deployment of
    the given kind; return the vertex -> shard mapping it recorded."""
    from repro.cluster.process import ProcessWeaver
    from repro.db import Weaver, WeaverConfig
    from repro.db.operations import CreateVertex
    from repro.sim.deployment import SimulatedWeaver

    config = WeaverConfig(num_shards=3, partitioner=partitioner)
    if deployment == "simulated":
        sim = SimulatedWeaver(config)
        for handle in handles:
            sim.submit_transaction([CreateVertex(handle)],
                                   new_vertices=(handle,))
            sim.run(0.01)
        return {h: sim.mapping.lookup(h) for h in handles}
    db = ProcessWeaver(config) if deployment == "process" else Weaver(config)
    try:
        for handle in handles:
            with db.begin_transaction() as tx:
                tx.create_vertex(handle)
        return {h: db.mapping.lookup(h) for h in handles}
    finally:
        if deployment == "process":
            db.close()


def _expected(partitioner, handles):
    from repro.graph.partition import HashPartitioner, LdgPartitioner

    if partitioner == "hash":
        policy = HashPartitioner(3)
        return {h: policy.assign(h) for h in handles}
    if partitioner == "ldg":
        policy = LdgPartitioner(3)
        return {h: policy.assign(h, ()) for h in handles}
    return {h: i % 3 for i, h in enumerate(handles)}


@pytest.mark.parametrize("partitioner", ["round_robin", "hash", "ldg"])
@pytest.mark.parametrize("deployment", ["direct", "simulated", "process"])
def test_every_deployment_places_by_the_configured_partitioner(
    deployment, partitioner
):
    handles = [f"p{i}" for i in range(12)]
    placed = _placements(deployment, partitioner, handles)
    assert placed == _expected(partitioner, handles)


def test_unknown_partitioner_rejected():
    with pytest.raises(ValueError, match="unknown partitioner"):
        ShardMapping(TransactionalStore(), 2, partitioner="bogus")
