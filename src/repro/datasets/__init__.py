"""Datasets: the paper's Table-1 registry plus synthetic generators."""

from repro.datasets.specs import DatasetSpec, DATASETS, get_spec, table1_rows
from repro.datasets.synthetic import (
    power_law_degrees,
    chung_lu_graph,
    synthesize_from_spec,
)
from repro.datasets.planted import planted_partition_dataset
from repro.datasets.loader import (
    Dataset,
    SymbolicDataset,
    load_dataset,
    sample_query_vertices,
)
from repro.datasets.reorder import reorder_dataset, ordering_permutation

__all__ = [
    "DatasetSpec",
    "DATASETS",
    "get_spec",
    "table1_rows",
    "power_law_degrees",
    "chung_lu_graph",
    "synthesize_from_spec",
    "planted_partition_dataset",
    "Dataset",
    "SymbolicDataset",
    "load_dataset",
    "sample_query_vertices",
    "reorder_dataset",
    "ordering_permutation",
]
