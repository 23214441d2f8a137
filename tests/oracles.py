"""Reference helpers that the tests check the package against.

Each is a slow, direct statement of a property that the package computes
another way: the dense matrix of an operator (against ``sketch_apply``),
the structure every graph sketch promises, the graph of a graph sketch,
and the neighbor set of a left subset (against the expansion and matching
verifiers).
"""

import numpy as np

from sketchbench.graphs import BipartiteGraph
from sketchbench.sketch import GaussianSketch, GraphSketch


def sketch_densify(op) -> np.ndarray:
    """The m x n operator as a dense matrix."""
    if isinstance(op, GaussianSketch):
        return op.entries.copy()
    dense = np.zeros((op.m, op.n))
    cols = np.arange(op.n)
    for i in range(op.s):
        dense[op.rows_per_column[:, i], cols] = op.signs_per_column[:, i] * op.scale
    return dense


def sketch_graph(op: GraphSketch) -> BipartiteGraph:
    """The graph verify-graph checks: columns are left vertices, rows right ones."""
    return BipartiteGraph(op.n, op.m, op.s, adjacency=op.rows_per_column)


def check_graph_sketch(op: GraphSketch) -> None:
    """n x s rows and signs, rows in range and distinct per column, signs +-1."""
    assert op.rows_per_column.shape == (op.n, op.s)
    assert op.signs_per_column.shape == (op.n, op.s)
    assert op.rows_per_column.min() >= 0 and op.rows_per_column.max() < op.m
    assert all(len(set(row)) == op.s for row in op.rows_per_column.tolist())
    assert np.all(np.abs(op.signs_per_column) == 1.0)


def neighborhood(g: BipartiteGraph, c) -> set[int]:
    """Union of the adjacency lists of the left ids in c."""
    out: set[int] = set()
    for x in c:
        if not 0 <= int(x) < g.left_count:
            raise ValueError(f"left id {x} out of range [0, {g.left_count})")
        out.update(int(v) for v in g.adjacency[int(x)])
    return out
