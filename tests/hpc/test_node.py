"""Tests for node slot accounting."""

import pytest

from repro.hpc import NodeList, NodeState


@pytest.fixture
def node():
    return NodeState(index=0, name="node00000", cores=8, gpus=4, mem_gb=64.0)


class TestNodeState:
    def test_initially_all_free(self, node):
        assert node.free_cores == 8
        assert node.free_gpus == 4
        assert node._free_mem == 64.0

    def test_allocate_reduces_free(self, node):
        slot = node.allocate(cores=2, gpus=1, mem_gb=16.0)
        assert node.free_cores == 6
        assert node.free_gpus == 3
        assert node._free_mem == 48.0
        assert len(slot.cores) == 2 and len(slot.gpus) == 1

    def test_allocated_indices_are_disjoint(self, node):
        s1 = node.allocate(cores=3, gpus=2)
        s2 = node.allocate(cores=3, gpus=2)
        assert not set(s1.cores) & set(s2.cores)
        assert not set(s1.gpus) & set(s2.gpus)

    def test_release_restores(self, node):
        slot = node.allocate(cores=4, gpus=2, mem_gb=32.0)
        node.release(slot)
        assert node.free_cores == 8
        assert node.free_gpus == 4
        assert node._free_mem == 64.0

    def test_overallocation_raises(self, node):
        with pytest.raises(RuntimeError, match="cannot allocate"):
            node.allocate(cores=9)

    def test_gpu_overallocation_raises(self, node):
        node.allocate(cores=1, gpus=4)
        with pytest.raises(RuntimeError):
            node.allocate(cores=1, gpus=1)

    def test_memory_overallocation_raises(self, node):
        node.allocate(cores=1, mem_gb=60.0)
        with pytest.raises(RuntimeError):
            node.allocate(cores=1, mem_gb=8.0)

    def test_double_release_detected(self, node):
        slot = node.allocate(cores=2, gpus=1)
        node.release(slot)
        with pytest.raises(RuntimeError, match="double release"):
            node.release(slot)

    def test_release_on_wrong_node_detected(self, node):
        other = NodeState(index=1, name="node00001", cores=8, gpus=4, mem_gb=64)
        slot = other.allocate(cores=1)
        with pytest.raises(RuntimeError, match="released on node"):
            node.release(slot)

    def test_fits(self, node):
        assert node.fits(cores=8, gpus=4, mem_gb=64.0)
        assert not node.fits(cores=8, gpus=5)

    def test_negative_amounts_rejected(self, node):
        with pytest.raises(ValueError):
            node.allocate(cores=-1)


class TestNodeList:
    def test_build(self):
        nl = NodeList.build(count=4, cores=8, gpus=2, mem_gb=32.0)
        assert len(nl) == 4
        assert nl[2].name == "node00002"
        assert nl.total_free_cores == 32
        assert nl.total_free_gpus == 8

    def test_find_fit_first_fit(self):
        nl = NodeList.build(count=3, cores=4, gpus=1, mem_gb=8.0)
        nl[0].allocate(cores=4)  # exhaust node 0 cores
        found = nl.find_fit(cores=4)
        assert found is nl[1]

    def test_find_fit_none_when_full(self):
        nl = NodeList.build(count=2, cores=2, gpus=0, mem_gb=4.0)
        for node in nl:
            node.allocate(cores=2)
        assert nl.find_fit(cores=1) is None

    def test_find_fit_wraps_from_start(self):
        nl = NodeList.build(count=4, cores=2, gpus=0, mem_gb=4.0)
        nl[2].allocate(cores=2)
        nl[3].allocate(cores=2)
        # starting at 2 should wrap and find node 0
        assert nl.find_fit(cores=2, start=2) is nl[0]

    def test_find_fit_on_a_pool_wider_than_a_machine_word(self):
        nl = NodeList.build(count=100, cores=2, gpus=0, mem_gb=4.0)
        slots = [node.allocate(cores=2) for node in nl]
        assert nl.find_fit(cores=1, start=10) is None
        nl[3].release(slots[3])
        nl[90].release(slots[90])
        assert nl.find_fit(cores=1, start=10) is nl[90]  # 80 bits ahead
        assert nl.find_fit(cores=1, start=91) is nl[3]   # wrapped
        assert nl.find_fit(cores=1, start=3) is nl[3]

    def test_fit_mask_follows_every_node_change(self):
        nl = NodeList.build(count=3, cores=4, gpus=1, mem_gb=8.0)
        assert nl.fit_mask(2, 1, 4.0) == 0b111
        slot = nl[1].allocate(cores=3)
        assert nl.fit_mask(2, 1, 4.0) == 0b101
        nl[0].mark_degraded()
        nl[2].mark_down()
        assert nl.fit_mask(2, 1, 4.0) == 0
        nl[1].release(slot)
        nl[2].mark_up()
        assert nl.fit_mask(2, 1, 4.0) == 0b110
        assert nl.fit_mask(0) == 0b110  # a zero-core rank still needs health

    def test_fit_mask_keeps_fits_memory_slack(self):
        nl = NodeList.build(count=1, cores=4, gpus=0, mem_gb=8.0)
        asks = (8.0 + 1e-9, 8.0 + 3e-9, 8.0, 8.0 - 1e-9, 8.0 - 3e-9)
        for mem in asks:  # tracked while free, so the node change refits
            assert bool(nl.fit_mask(1, 0, mem)) == nl[0].fits(1, 0, mem)
        nl[0].allocate(cores=1, mem_gb=2e-9)
        assert [bool(nl.fit_mask(1, 0, mem)) for mem in asks] \
            == [nl[0].fits(1, 0, mem) for mem in asks] \
            == [False, False, False, True, True]

    def test_mask_table_overflow_keeps_answers_exact(self):
        nl = NodeList.build(count=2, cores=4, gpus=0, mem_gb=64.0)
        assert nl._max_shapes == 64                  # the floor: 2 nodes
        assert nl.find_fit(cores=4) is nl[0]
        for k in range(nl._max_shapes + 1):          # evicts the 4-core shape
            assert nl.find_fit(cores=1, mem_gb=float(k)) is nl[0]
        slot = nl[0].allocate(cores=1)               # while it is untracked
        assert nl.find_fit(cores=4) is nl[1]         # tracked again
        nl[0].release(slot)                          # nodes follow the table
        assert nl.find_fit(cores=4) is nl[0]
        assert len(nl._fit_masks) <= nl._max_shapes

    def test_node_joins_one_list_only(self):
        nl = NodeList.build(count=2, cores=2, gpus=0, mem_gb=4.0)
        with pytest.raises(ValueError, match="already belongs"):
            NodeList(nl.nodes)
