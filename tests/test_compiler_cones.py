"""Tests for the cone extraction (covering) pass of the compiler."""

import pytest

from repro.compiler.cones import extract_cones
from repro.spn.linearize import linearize
from repro.suite.registry import benchmark_operation_list


@pytest.fixture(scope="module")
def bench_ops():
    return benchmark_operation_list("Banknote")


def _check_cover(ops, graph):
    """Every operation is covered exactly once and operands are consistent."""
    seen = {}
    for cone in graph.cones:
        for member in cone.members:
            assert member not in seen, "operation covered twice"
            seen[member] = cone.index
    assert len(seen) == ops.n_operations
    for cone in graph.cones:
        for member in cone.members:
            left, right = cone.operands[member]
            op = ops.operations[member]
            for spec, arg in ((left, op.arg0), (right, op.arg1)):
                if spec.kind == "external":
                    assert spec.slot == arg
                else:
                    assert ops.dest_slot(spec.op_index) == arg
                    assert spec.op_index in cone.members


class TestCoverProperties:
    def test_every_op_covered_once(self, bench_ops):
        graph = extract_cones(bench_ops, max_depth=4)
        _check_cover(bench_ops, graph)

    def test_single_op_cones_for_pvect(self, bench_ops):
        graph = extract_cones(bench_ops, max_depth=1)
        assert all(c.n_ops == 1 for c in graph.cones)
        assert graph.n_cones == bench_ops.n_operations

    def test_depth_bound_respected(self, bench_ops):
        for max_depth in (1, 2, 3, 4):
            graph = extract_cones(bench_ops, max_depth=max_depth)
            assert all(c.depth <= max_depth for c in graph.cones)

    def test_deeper_trees_give_fewer_cones(self, bench_ops):
        shallow = extract_cones(bench_ops, max_depth=1)
        deep = extract_cones(bench_ops, max_depth=4)
        assert deep.n_cones < shallow.n_cones
        assert deep.average_ops_per_cone() > 1.0

    def test_root_operation_heads_a_cone(self, bench_ops):
        graph = extract_cones(bench_ops, max_depth=4)
        root_op = bench_ops.n_operations - 1
        assert any(c.root_op == root_op for c in graph.cones)

    def test_outputs_include_root_and_shared_values(self, bench_ops):
        graph = extract_cones(bench_ops, max_depth=4)
        fanout = bench_ops.fanout()
        for cone in graph.cones:
            assert cone.root_op in cone.outputs
            for member in cone.members:
                slot = bench_ops.dest_slot(member)
                internal_uses = sum(
                    1
                    for other in cone.members
                    for operand in cone.operands[other]
                    if operand.kind == "internal" and operand.op_index == member
                )
                external_uses = fanout[slot] - internal_uses
                if external_uses > 0:
                    assert member in cone.outputs

    def test_every_consumed_slot_has_a_producer(self, bench_ops):
        graph = extract_cones(bench_ops, max_depth=4)
        for cone in graph.cones:
            for slot in cone.external_slots:
                if slot >= bench_ops.n_inputs:
                    assert slot in graph.producer

    def test_embed_levels_fit_cone(self, bench_ops):
        graph = extract_cones(bench_ops, max_depth=4)
        for cone in graph.cones:
            for member in cone.members:
                assert 0 <= cone.embed_level(member) <= cone.height

    def test_invalid_arguments(self, bench_ops):
        with pytest.raises(ValueError):
            extract_cones(bench_ops, max_depth=0)
        with pytest.raises(ValueError):
            extract_cones(bench_ops, max_depth=2, min_density=0.0)


class TestConeGraphStructure:
    def test_dependencies_are_acyclic(self, bench_ops):
        graph = extract_cones(bench_ops, max_depth=4)
        levels = graph.asap_levels()
        for cone in graph.cones:
            for pred in graph.predecessors(cone):
                assert levels[pred] < levels[cone.index]

    def test_priorities_decrease_along_edges(self, bench_ops):
        graph = extract_cones(bench_ops, max_depth=4)
        priorities = graph.critical_path_priorities()
        for cone in graph.cones:
            for pred in graph.predecessors(cone):
                assert priorities[pred] > priorities[cone.index]

    def test_small_fixture_cover(self, mixture_spn):
        ops = linearize(mixture_spn)
        graph = extract_cones(ops, max_depth=4)
        _check_cover(ops, graph)
        assert graph.n_cones >= 1

    def test_empty_operation_list(self):
        from repro.spn.graph import SPN

        spn = SPN()
        spn.set_root(spn.add_indicator(0, 0))
        graph = extract_cones(linearize(spn), max_depth=4)
        assert graph.n_cones == 0
        assert graph.average_ops_per_cone() == 0.0
