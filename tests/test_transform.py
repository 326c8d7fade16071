from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest

from uqc import (
    GraphBuilder,
    Normal,
    builtin_model,
    compute_influence_matrix,
    evaluate_amtc,
    grid_for,
    influence_matrix_to_csv,
    insert_expansions,
    parse_model,
    partition_operations,
    scheduled_eval_counts,
    strip_expansions,
    to_dot,
    topo_sort,
    validate,
)
from uqc import graph as graph_module
from uqc.cli import bench_rows
from uqc.errors import DimensionMismatchError
from uqc.transform import expansion_copies

BUILTINS = ["simple", "piston", "multipoint"]


class TestInfluenceMatrix:
    def test_simple_model_dependency_table(self):
        g = builtin_model("simple")
        rows = compute_influence_matrix(g)
        cos_op, neg_op, exp_op, add_op = g.operations
        assert rows == {cos_op.id: (0,), neg_op.id: (1,), exp_op.id: (1,), add_op.id: (0, 1)}

    def test_all_constant_model(self):
        g = parse_model("param a = 2\nparam b = 3\noutput f = a * b + 1\n")
        assert all(sig == () for sig in compute_influence_matrix(g).values())

    def test_chain_transitivity(self):
        g = parse_model("input u1 ~ Normal(0,1)\na = sin(u1)\noutput b = exp(a)\n")
        assert all(sig == (0,) for sig in compute_influence_matrix(g).values())

    @pytest.mark.parametrize("name", BUILTINS)
    def test_monotone_along_edges(self, name):
        g = builtin_model(name)
        rows = compute_influence_matrix(g)
        for op in g.operations:
            assert rows[op.id] == g.signatures[op.output]
            for vid in op.inputs:
                assert set(g.signatures[vid]) <= set(rows[op.id])

    def test_csv_export_mirrors_dependency_table(self):
        g = builtin_model("simple")
        csv = influence_matrix_to_csv(g)
        lines = csv.strip().split("\n")
        assert lines[0] == "operation,u1,u2"
        cells = [line.split(",")[1:] for line in lines[1:]]
        assert cells == [["1", "0"], ["0", "1"], ["0", "1"], ["1", "1"]]


class TestPartition:
    def test_simple_model_three_groups(self):
        g = builtin_model("simple")
        groups = partition_operations(compute_influence_matrix(g))
        cos_op, neg_op, exp_op, add_op = g.operations
        assert groups == {
            (0,): frozenset({cos_op.id}),
            (1,): frozenset({neg_op.id, exp_op.id}),
            (0, 1): frozenset({add_op.id}),
        }

    def test_single_group_when_signatures_coincide(self):
        g = parse_model("input x ~ Normal(0,1)\noutput f = sin(x) + cos(x)\n")
        assert len(partition_operations(compute_influence_matrix(g))) == 1

    def test_piston_grouping(self):
        g = builtin_model("piston")
        rows = compute_influence_matrix(g)
        groups = partition_operations(rows)
        assert len(groups) >= 3
        assert all(set(sig) <= {0, 1, 2} for sig in groups)
        # disjoint cover of all operations
        all_ops = set()
        for ops in groups.values():
            assert not (all_ops & ops)
            all_ops |= ops
        assert all_ops == set(rows)
        # qualitative sparsity: weight M influences the fewest operations
        dependent = [sum(1 for sig in rows.values() if axis in sig)
                     for axis in range(3)]
        assert dependent[0] == min(dependent)
        assert dependent[0] < dependent[1] and dependent[0] < dependent[2]


class TestInsertExpansions:
    def test_simple_model_two_expansions(self):
        g = builtin_model("simple")
        tg = insert_expansions(g)
        signature_of = tg.graph.signatures
        expands = [op for op in tg.graph.operations if op.kind == "expand"]
        assert {(signature_of[op.inputs[0]], op.expand_to) for op in expands} == {
            ((0,), (0, 1)), ((1,), (0, 1))}
        assert validate(tg.graph) == []

    def test_single_signature_model_expands_only_input_feeds(self):
        # Every operation already has the full signature, so no expansion
        # sits between two operations; only the raw input vectors get
        # broadcast into the product space.
        g = parse_model("input a ~ Normal(0,1)\ninput b ~ Normal(0,1)\n"
                        "s = a + b\noutput f = sin(s)\n")
        tg = insert_expansions(g)
        producer = g.producer_of
        for op in tg.graph.operations:
            if op.kind == "expand":
                assert op.inputs[0] not in producer
                assert op.inputs[0] in dict(g.uncertain_inputs)

    def test_constant_feeding_uncertain_op_broadcasts_from_empty(self):
        g = parse_model("input x ~ Normal(0,1)\noutput f = x + 2\n")
        tg = insert_expansions(g)
        expands = [op for op in tg.graph.operations if op.kind == "expand"]
        assert len(expands) == 1
        assert g.variable_by_id[expands[0].inputs[0]].constant_value == 2.0
        assert expands[0].expand_to == (0,)

    def test_deduplicated_per_variable_and_target(self):
        g = parse_model("input u1 ~ Normal(0,1)\ninput u2 ~ Normal(0,1)\n"
                        "a = exp(u1)\noutput f = a * u2 + a / u2\n")
        tg = insert_expansions(g)
        expands = [op for op in tg.graph.operations if op.kind == "expand"]
        # `a` feeds two full-signature consumers but is expanded once;
        # u2 feeds two as well, also expanded once
        sources = [op.inputs[0] for op in expands]
        assert len(sources) == len(set(sources)) == 2

    @pytest.mark.parametrize("name", BUILTINS)
    def test_soundness_inputs_carry_consumer_signature(self, name):
        g = builtin_model(name)
        tg = insert_expansions(g)
        signature_of = tg.graph.signatures
        for op in tg.graph.operations:
            if op.kind == "expand":
                continue
            sig = signature_of[op.output]
            for vid in op.inputs:
                assert signature_of[vid] == sig

    @pytest.mark.parametrize("name", BUILTINS)
    def test_reversible(self, name):
        g = builtin_model(name)
        tg = insert_expansions(g)
        assert strip_expansions(tg.graph) == g

    @pytest.mark.parametrize("name", BUILTINS)
    def test_deterministic(self, name):
        a = insert_expansions(builtin_model(name))
        b = insert_expansions(builtin_model(name))
        assert a.graph == b.graph
        assert compute_influence_matrix(a.graph) == compute_influence_matrix(b.graph)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_expand_nodes_strictly_enlarge(self, name):
        tg = insert_expansions(builtin_model(name))
        signature_of = tg.graph.signatures
        for op in tg.graph.operations:
            if op.kind == "expand":
                assert set(signature_of[op.inputs[0]]) < set(op.expand_to)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_spliced_signatures_are_the_derived_ones(self, name):
        # the splice hands its graph the signatures it placed the expands
        # by; a copy of that graph derives its own
        spliced = insert_expansions(builtin_model(name)).graph
        assert spliced.signatures == replace(spliced).signatures

    def test_graph_holding_an_expand_is_refused(self):
        # the hand-built expand widens cos(a), of signature (0,), into (0, 1)
        b = GraphBuilder()
        a = b.add_uncertain_input("a", Normal(0, 1))
        b.add_uncertain_input("c", Normal(0, 1))
        x = b.add_operation("cos", [a])
        b.mark_output(b.add_operation("expand", [x], expand_to=(0, 1)), "f")
        graphs = [b.build()] + [insert_expansions(builtin_model(name)).graph
                                for name in BUILTINS]
        for g in graphs:
            with pytest.raises(ValueError, match="^cannot transform a graph that already "
                                                 "holds expand operations$"):
                insert_expansions(g)


class TestScheduledCounts:
    @pytest.mark.parametrize("name", BUILTINS)
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_minimality_per_operation(self, name, k):
        g = builtin_model(name)
        rows = compute_influence_matrix(g)
        sizes = (k,) * g.dim
        counts = scheduled_eval_counts(rows, sizes)
        for op_id, signature in rows.items():
            assert counts[op_id] == k ** len(signature)

    def test_mixed_axis_sizes(self):
        g = builtin_model("simple")
        counts = scheduled_eval_counts(compute_influence_matrix(g), (2, 5))
        cos_op, neg_op, exp_op, add_op = g.operations
        assert counts[cos_op.id] == 2
        assert counts[neg_op.id] == counts[exp_op.id] == 5
        assert counts[add_op.id] == 10

    # simple: cos on axis 0, neg and exp on axis 1, add on both
    @pytest.mark.parametrize("sizes, copies, counts", [
        ((3, 3), 9 + 9, 3 + 3 + 3 + 9),
        ((np.int64(2), 3), 6 + 6, 2 + 3 + 3 + 6),
        ((3,), DimensionMismatchError("^1 axis sizes for 2 uncertain inputs$"),
         DimensionMismatchError(r"^1 axis sizes for signatures over 2 axes$")),
        ((3, 3, 3), DimensionMismatchError("^3 axis sizes for 2 uncertain inputs$"),
         3 + 3 + 3 + 9),
        ((0, 3), ValueError("^axis size 0 is not a positive integer$"),
         ValueError("^axis size 0 is not a positive integer$")),
        ((2.5, 3), ValueError("^axis size 2.5 is not a positive integer$"),
         ValueError("^axis size 2.5 is not a positive integer$")),
        ((-1, 3), ValueError("^axis size -1 is not a positive integer$"),
         ValueError("^axis size -1 is not a positive integer$")),
    ])
    def test_axis_sizes_are_checked(self, sizes, copies, counts):
        g = builtin_model("simple")
        rows = compute_influence_matrix(g)
        for run, expected in ((lambda: expansion_copies(g, sizes), copies),
                              (lambda: sum(scheduled_eval_counts(rows, sizes).values()), counts)):
            if isinstance(expected, Exception):
                with pytest.raises(type(expected), match=str(expected)):
                    run()
            else:
                assert run() == expected

    def test_ids_remain_dense_after_transform(self):
        tg = insert_expansions(builtin_model("piston"))
        ids = sorted([v.id for v in tg.graph.variables]
                     + [op.id for op in tg.graph.operations])
        assert ids == list(range(len(ids)))
        assert topo_sort(tg.graph)  # still a DAG


def test_signatures_are_derived_once_per_graph():
    # every reader of one parsed graph, and of the graph the splice builds
    # from it, shares the graph's one signature pass
    g = builtin_model("simple")
    with patch.object(graph_module, "_signature_pass",
                      wraps=graph_module._signature_pass) as signature_pass:
        bench_rows(g, [2, 3, 4, 5, 6], 1)
        evaluate_amtc(insert_expansions(g), grid_for(g.distributions, 3))
        to_dot(insert_expansions(g))
        influence_matrix_to_csv(g)
    assert signature_pass.call_count == 1
