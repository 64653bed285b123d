"""Dataset reordering and markdown report generation."""

import pytest

from repro.datasets import (
    load_dataset,
    ordering_permutation,
    reorder_dataset,
)
from repro.errors import ConfigurationError
from repro.experiments.report import _result_to_markdown, generate_report
from repro.experiments.runner import ExperimentResult
from repro.nn import ReferenceGCN
from repro.__main__ import main as cli_main


class TestReorder:
    @pytest.fixture(scope="class")
    def base(self):
        return load_dataset("cora", scale=0.15, learnable=True, seed=7)

    def test_known_orderings(self, base):
        for ordering in ("original", "random", "degree", "bfs"):
            perm = ordering_permutation(base, ordering, seed=7)
            assert sorted(perm) == list(range(base.n))

    def test_unknown_ordering(self, base):
        with pytest.raises(ConfigurationError):
            ordering_permutation(base, "metis")

    def test_reorder_preserves_structure(self, base):
        perm = ordering_permutation(base, "random", seed=8)
        reordered = reorder_dataset(base, perm)
        assert reordered.m == base.m
        assert reordered.num_train == base.num_train
        assert sorted(reordered.adjacency.row_degrees()) == sorted(
            base.adjacency.row_degrees()
        )

    def test_training_is_permutation_equivariant(self, base):
        """Reordered datasets train to the same losses — the invariant
        that makes ordering a pure performance knob."""
        from repro.nn import GCNModelSpec

        perm = ordering_permutation(base, "random", seed=9)
        reordered = reorder_dataset(base, perm)
        model = GCNModelSpec.build(base.d0, 8, base.num_classes, 2)
        ref_a = ReferenceGCN(base, model, seed=10)
        ref_b = ReferenceGCN(reordered, model, seed=10)
        losses_a = ref_a.fit(4)
        losses_b = ref_b.fit(4)
        assert losses_a == pytest.approx(losses_b, rel=1e-3)

    def test_degree_ordering_concentrates_tiles(self, base):
        from repro.nn import GCNModelSpec
        from repro.sparse import CSRMatrix, uniform_partition
        from repro.sparse.partition import tile_nnz_matrix

        perm = ordering_permutation(base, "degree")
        concentrated = reorder_dataset(base, perm)
        csr = CSRMatrix.from_coo(concentrated.adjacency)
        p = uniform_partition(base.n, 4)
        nnz = tile_nnz_matrix(csr, p, p).astype(float)
        assert nnz.max() > 2 * nnz.mean()


class TestReport:
    def test_result_to_markdown(self):
        r = ExperimentResult("t")
        r.set("row1", "a", 1.0)
        r.set("row1", "b", None)
        r.set("row2", "a", 2.5)
        md = _result_to_markdown(r, "{:.1f}")
        assert "| row1 | 1.0 | OOM |" in md
        assert md.splitlines()[0] == "| | a | b |"

    def test_generate_report_contains_sections(self):
        md = generate_report(include_slow=False)
        assert "# MG-GCN reproduction — measured report" in md
        assert "## Table 3" in md
        assert "skipped" in md  # the slow Fig. 7 section
        assert "| papers | OOM | OOM | OOM |" in md

    def test_cli_report(self, tmp_path, capsys):
        out = tmp_path / "r.md"
        assert cli_main(["report", str(out)]) == 0
        assert out.exists()
        assert "Table 3" in out.read_text()
