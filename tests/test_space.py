import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsedarts.autodiff as ad
from tsedarts.oracles import brute_force_longest_path, random_dag
from tsedarts.space import (AVGPOOL, LINEAR, SKIP, ZERO, ArchEncoding,
                            CellTopology, Genotype, OperationKind, SpaceError,
                            cell_depth, discretize, make_space, skip_count)

S2_OPS = (OperationKind(SKIP), OperationKind(LINEAR))


def full_dag(n):
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


class TestTopology:
    def test_presets_are_four_node_full_dags(self):
        for preset in ("nb201-like", "s2-like"):
            topo, ops = make_space(preset)
            assert topo.nodes == 4
            assert topo.edges == full_dag(4)
            assert len(topo.edges) == 6

    def test_preset_operation_sets(self):
        _, ops = make_space("nb201-like", features="vector")
        assert [o.tag for o in ops] == [ZERO, SKIP, LINEAR, AVGPOOL]
        _, ops = make_space("s2-like", features="vector")
        assert [o.tag for o in ops] == [SKIP, LINEAR]

    def test_image_features_pick_conv(self):
        _, ops = make_space("s2-like", features="image")
        assert ops[1].tag == "ParamConv3x3"

    def test_invalid_edges_rejected(self):
        with pytest.raises(SpaceError):
            CellTopology(3, ((1, 0),))
        with pytest.raises(SpaceError):
            CellTopology(3, ((0, 3),))
        with pytest.raises(SpaceError):
            CellTopology(3, ((0, 1), (0, 1), (0, 2)))

    def test_unreachable_output_rejected(self):
        with pytest.raises(SpaceError):
            CellTopology(3, ((0, 1),))

    def test_unknown_preset_rejected(self):
        with pytest.raises(SpaceError):
            make_space("no-such-preset")

    def test_custom_preset_needs_parts(self):
        with pytest.raises(SpaceError):
            make_space("custom")


def softmax_row(logits):
    """The supernet's mixture weights of one edge: a one-row softmax."""
    return ad.softmax_rows(ad.const(np.asarray(logits)[None, :])).value[0]


class TestMixtureWeights:
    def test_uniform(self):
        w = softmax_row(np.zeros(4))
        assert np.max(np.abs(w - 0.25)) < 1e-15

    def test_sums_to_one_and_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = softmax_row(rng.standard_normal(5) * 10)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(w > 0)

    def test_extreme_logits_stable(self):
        w = softmax_row(np.array([1000.0, -1000.0]))
        assert np.isfinite(w).all()
        assert w[0] == pytest.approx(1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=6),
           st.floats(-50, 50))
    def test_shift_invariance(self, logits, shift):
        a = np.array(logits)
        assert np.max(np.abs(softmax_row(a) - softmax_row(a + shift))) < 1e-12


class TestDiscretize:
    def test_strict_maximum_picks_winner(self):
        topo = CellTopology(2, ((0, 1),))
        enc = ArchEncoding(np.array([[2.0, -1.0]]))
        g = discretize(enc, topo, S2_OPS)
        assert g.ops[0].tag == SKIP

    def test_tie_breaks_to_lowest_index(self):
        topo = CellTopology(2, ((0, 1),))
        g = discretize(ArchEncoding(np.zeros((1, 2))), topo, S2_OPS)
        assert g.ops[0].tag == S2_OPS[0].tag

    def test_shape_mismatch_rejected(self):
        topo = CellTopology(2, ((0, 1),))
        with pytest.raises(SpaceError):
            discretize(ArchEncoding(np.zeros((2, 2))), topo, S2_OPS)


class TestGenotypeJson:
    def test_schema_fields(self):
        topo, ops = make_space("s2-like")
        g = discretize(ArchEncoding(np.zeros((6, 2))), topo, ops)
        doc = json.loads(g.to_json())
        assert doc["topology"] == "s2-like"
        assert set(doc["edges"][0]) == {"from", "to", "op"}


class TestMetrics:
    def test_all_skip_counts_every_edge(self):
        # an all-Skip choice on an n-edge supernet counts all n edges
        for n_nodes, expected in ((4, 6), (6, 15)):
            edges = full_dag(n_nodes)
            g = Genotype(edges, tuple(OperationKind(SKIP) for _ in edges))
            assert skip_count(g) == len(edges) == expected

    def test_no_skip_in_set_counts_zero(self):
        edges = full_dag(4)
        g = Genotype(edges, tuple(OperationKind(LINEAR) for _ in edges))
        assert skip_count(g) == 0

    def test_depth_full_dag_no_zero(self):
        edges = full_dag(4)
        g = Genotype(edges, tuple(OperationKind(SKIP) for _ in edges))
        topo = CellTopology(4, edges)
        assert cell_depth(g, topo) == 3

    def test_depth_zero_edges_deleted(self):
        edges = full_dag(4)
        ops = [OperationKind(SKIP)] * 6
        # delete every edge except (0, 3)
        for idx, (i, j) in enumerate(edges):
            if (i, j) != (0, 3):
                ops[idx] = OperationKind(ZERO)
        g = Genotype(edges, tuple(ops))
        assert cell_depth(g, CellTopology(4, edges)) == 1

    def test_depth_unreachable_output_is_zero(self):
        edges = full_dag(3)
        ops = (OperationKind(SKIP), OperationKind(ZERO), OperationKind(ZERO))
        g = Genotype(edges, ops)
        assert cell_depth(g, CellTopology(3, edges)) == 0

    def test_depth_monotone_under_edge_restoration(self):
        # turning a Zero edge back into a real op never reduces depth
        rng = np.random.default_rng(1)
        for _ in range(20):
            n, edges = random_dag(rng)
            topo = CellTopology(n, tuple(edges))
            tags = [ZERO if rng.random() < 0.5 else SKIP for _ in edges]
            g = Genotype(tuple(edges), tuple(OperationKind(t) for t in tags))
            base = cell_depth(g, topo)
            zeros = [k for k, t in enumerate(tags) if t == ZERO]
            if not zeros:
                continue
            k = zeros[int(rng.integers(len(zeros)))]
            tags2 = list(tags)
            tags2[k] = SKIP
            g2 = Genotype(tuple(edges), tuple(OperationKind(t) for t in tags2))
            assert cell_depth(g2, topo) >= base

    def test_depth_matches_brute_force_on_random_dags(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n, edges = random_dag(rng)
            topo = CellTopology(n, tuple(edges))
            tags = [ZERO if rng.random() < 0.3 else SKIP for _ in edges]
            g = Genotype(tuple(edges), tuple(OperationKind(t) for t in tags))
            kept = [e for e, t in zip(edges, tags) if t != ZERO]
            assert cell_depth(g, topo) == brute_force_longest_path(
                n, kept, 0, n - 1)

    def test_darts_style_depth_range(self):
        # any all-non-Zero assignment on the 4-node full DAG has depth in [2, 5]
        # clipped by this DAG's maximum of 3; spot-check extremes
        edges = full_dag(4)
        topo = CellTopology(4, edges)
        rng = np.random.default_rng(3)
        depths = set()
        for _ in range(50):
            tags = [SKIP if rng.random() < 0.5 else LINEAR for _ in edges]
            g = Genotype(edges, tuple(OperationKind(t) for t in tags))
            depths.add(cell_depth(g, topo))
        assert depths == {3}  # full DAG with all edges present is depth 3


def test_unknown_operation_tag_rejected():
    with pytest.raises(SpaceError):
        OperationKind("MaxPool9x9")
