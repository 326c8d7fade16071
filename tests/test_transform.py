import pytest

from uqc import (
    GraphBuilder,
    Normal,
    builtin_model,
    compute_influence_matrix,
    influence_matrix_to_csv,
    insert_expansions,
    parse_model,
    partition_operations,
    scheduled_eval_counts,
    strip_expansions,
    topo_sort,
    validate,
)
from uqc.errors import InternalError
from uqc.transform import signature_is_subset

BUILTINS = ["simple", "piston", "multipoint"]


class TestInfluenceMatrix:
    def test_simple_model_dependency_table(self):
        g = builtin_model("simple")
        matrix = compute_influence_matrix(g)
        cos_op, neg_op, exp_op, add_op = g.operations
        assert matrix.rows[cos_op.id] == (0,)
        assert matrix.rows[neg_op.id] == (1,)
        assert matrix.rows[exp_op.id] == (1,)
        assert matrix.rows[add_op.id] == (0, 1)

    def test_all_constant_model(self):
        g = parse_model("param a = 2\nparam b = 3\noutput f = a * b + 1\n")
        matrix = compute_influence_matrix(g)
        assert all(sig == () for sig in matrix.rows.values())

    def test_chain_transitivity(self):
        g = parse_model("input u1 ~ Normal(0,1)\na = sin(u1)\noutput b = exp(a)\n")
        matrix = compute_influence_matrix(g)
        assert all(sig == (0,) for sig in matrix.rows.values())

    @pytest.mark.parametrize("name", BUILTINS)
    def test_monotone_along_edges(self, name):
        g = builtin_model(name)
        matrix = compute_influence_matrix(g)
        for op in g.operations:
            for vid in op.inputs:
                assert signature_is_subset(matrix.variable_signatures[vid],
                                           matrix.rows[op.id])

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
        matrix = compute_influence_matrix(g)
        groups = partition_operations(matrix)
        assert len(groups) >= 3
        assert all(set(sig) <= {0, 1, 2} for sig in groups)
        # disjoint cover of all operations
        all_ops = set()
        for ops in groups.values():
            assert not (all_ops & ops)
            all_ops |= ops
        assert all_ops == set(matrix.rows)
        # qualitative sparsity: weight M influences the fewest operations
        dependent = [sum(1 for sig in matrix.rows.values() if axis in sig)
                     for axis in range(3)]
        assert dependent[0] == min(dependent)
        assert dependent[0] < dependent[1] and dependent[0] < dependent[2]


class TestInsertExpansions:
    def test_simple_model_two_expansions(self):
        g = builtin_model("simple")
        tg = insert_expansions(g)
        expands = [op for op in tg.graph.operations if op.kind == "expand"]
        assert {(op.expand_from, op.expand_to) for op in expands} == {
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
                assert g.variable_by_id[op.inputs[0]].kind == "uncertain_input"

    def test_constant_feeding_uncertain_op_broadcasts_from_empty(self):
        g = parse_model("input x ~ Normal(0,1)\noutput f = x + 2\n")
        tg = insert_expansions(g)
        expands = [op for op in tg.graph.operations if op.kind == "expand"]
        assert len(expands) == 1
        assert expands[0].expand_from == ()
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
        signature_of = compute_influence_matrix(tg.graph).variable_signatures
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
        for op in tg.graph.operations:
            if op.kind == "expand":
                assert set(op.expand_from) < set(op.expand_to)

    def test_expand_that_does_not_cover_its_input_raises_internal_error(self):
        # the hand-built expand claims to widen cos(a), of signature (0,),
        # into (1,), which does not contain axis 0
        b = GraphBuilder()
        a = b.add_uncertain_input("a", Normal(0, 1))
        b.add_uncertain_input("c", Normal(0, 1))
        x = b.add_operation("cos", [a])
        b.mark_output(b.add_operation("expand", [x], expand_from=(0,), expand_to=(1,)), "f")
        g = b.build()
        with pytest.raises(InternalError):
            insert_expansions(g)


class TestScheduledCounts:
    @pytest.mark.parametrize("name", BUILTINS)
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_minimality_per_operation(self, name, k):
        g = builtin_model(name)
        matrix = compute_influence_matrix(g)
        sizes = (k,) * g.dim
        counts = scheduled_eval_counts(matrix, sizes)
        for op_id, signature in matrix.rows.items():
            assert counts[op_id] == k ** len(signature)

    def test_mixed_axis_sizes(self):
        g = builtin_model("simple")
        matrix = compute_influence_matrix(g)
        counts = scheduled_eval_counts(matrix, (2, 5))
        cos_op, neg_op, exp_op, add_op = g.operations
        assert counts[cos_op.id] == 2
        assert counts[neg_op.id] == counts[exp_op.id] == 5
        assert counts[add_op.id] == 10

    def test_ids_remain_dense_after_transform(self):
        tg = insert_expansions(builtin_model("piston"))
        ids = sorted([v.id for v in tg.graph.variables]
                     + [op.id for op in tg.graph.operations])
        assert ids == list(range(len(ids)))
        assert topo_sort(tg.graph)  # still a DAG
