"""The flat :class:`Partition` against a plain-Python model of the same
member lists: communities, sizes, label space and node map, or the same
error; plus the node-map round trip and the flat shards ``p::w``."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import oracles  # noqa: E402
from commqual.graph import Partition, shard  # noqa: E402

# mostly small ids, so lines collide, repeat a node and go negative; some
# larger ones, so the largest label can exceed the number of members
node = st.one_of(st.integers(-2, 30), st.integers(0, 5000))
member_lists = st.lists(
    st.one_of(st.lists(node, max_size=8),
              st.lists(node, min_size=1, max_size=8).map(np.array)),
    max_size=8)


@settings(max_examples=400, deadline=None)
@given(member_lists, st.integers(-1, 40))
def test_flat_partition_matches_model(lists, universe):
    try:
        want = oracles.partition_reference(lists, universe)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            Partition(lists, universe)
        assert type(got.value).__name__ == type(exc).__name__
        assert str(got.value) == str(exc)
        return
    comms, sizes, label_space, comm_of = want
    p = Partition(lists, universe)
    assert [c.tolist() for c in p.communities] == comms
    assert p.sizes.tolist() == sizes
    assert p.label_space == label_space
    assert p.node_map().comm_of.tolist() == comm_of
    assert Partition.from_node_map(p.node_map()) == p
    for w in (1, 2, 3):
        for i in range(w):
            sh = shard(p, w, i)
            assert sh.members.tolist() == sum(comms[i::w], [])
            assert sh.sizes.tolist() == sizes[i::w]
            assert [c.tolist() for c in sh.communities] == comms[i::w]
