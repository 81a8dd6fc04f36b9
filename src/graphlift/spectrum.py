"""Spectrum classification for loop graphs.

Supported graphs: every cycle is the power of a loop, each vertex carries at
most one loop, and a loopless vertex may not receive any edge. Within that
class the irreducible-module classes are one circle of one-dimensional
modules per looped vertex (the loop scalar sweeps the unit circle) plus one
isolated class per loopless source vertex. Anything outside the class is
refused rather than extrapolated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graphs import Graph, loop_structure
from .modules import PythagoreanModule, isolated_module, one_dim_module

LOOP_GRAPH = "loop-graph"
LOOP_GRAPH_WITH_SOURCES = "loop-graph-with-sources"
UNSUPPORTED = "unsupported"


class SpectrumError(ValueError):
    """Raised when a graph falls outside the supported class."""


@dataclass(frozen=True)
class HypothesisReport:
    """Verdict on the classification hypotheses plus failure diagnostics.

    by_analogy is set when loopless sources are present but the graph is not
    certified isomorphic to an even-sphere graph, the one shape whose
    classification has a complete argument behind it.
    """

    verdict: str
    diagnostics: tuple[str, ...] = ()
    by_analogy: bool = False


@dataclass(frozen=True)
class SpectrumDescription:
    class_tag: str
    circles: tuple[str, ...]
    points: tuple[str, ...]


def _even_sphere_shaped(graph: Graph, loopless: list[str]) -> bool:
    """Certify an isomorphism to sphere_even_graph(n), n = |V| - 2, from edge
    multiplicities in time linear in the edges.

    Only for supported graphs: at most one loop per vertex, no edge into a
    loopless vertex, and acyclic once loops are removed. Such a graph is
    even-sphere shaped iff it has two loopless vertices and n >= 1 looped
    ones, and exactly one edge joins each pair of looped vertices and each
    loopless vertex to each looped one; acyclicity then leaves the looped
    vertices only the one transitive tournament there is.
    """
    n = len(graph.vertices) - 2
    if len(loopless) != 2 or n < 1:
        return False
    pairs = Counter(frozenset((e.source, e.range)) for e in graph.edges if e.source != e.range)
    return len(pairs) == n * (n - 1) // 2 + 2 * n and all(k == 1 for k in pairs.values())


def check_hypotheses(graph: Graph) -> HypothesisReport:
    structure = loop_structure(graph)
    diagnostics = []
    multi = sorted(v for v, k in structure.loops_per_vertex.items() if k > 1)
    if multi:
        diagnostics.append(f"more than one loop at: {', '.join(multi)}")
    loopless = [v for v in graph.vertices if structure.loops_per_vertex[v] == 0]
    receiving = [v for v in loopless if graph.in_edges(v)]
    if receiving:
        diagnostics.append(f"loopless vertices receiving edges: {', '.join(receiving)}")
    if not structure.loops_removed_acyclic:
        cycle = " -> ".join(structure.cycle)
        diagnostics.append(f"cycle through distinct vertices: {cycle}")
    if diagnostics:
        return HypothesisReport(UNSUPPORTED, tuple(diagnostics))
    if not loopless:
        return HypothesisReport(LOOP_GRAPH)
    return HypothesisReport(
        LOOP_GRAPH_WITH_SOURCES, by_analogy=not _even_sphere_shaped(graph, loopless)
    )


def classify(graph: Graph) -> SpectrumDescription:
    """List the spectrum components, or refuse with the failed hypotheses."""
    report = check_hypotheses(graph)
    if report.verdict == UNSUPPORTED:
        raise SpectrumError("; ".join(report.diagnostics))
    structure = loop_structure(graph)
    circles = tuple(v for v in graph.vertices if structure.loops_per_vertex[v] == 1)
    points = tuple(v for v in graph.vertices if structure.loops_per_vertex[v] == 0)
    return SpectrumDescription(report.verdict, circles, points)


def representative_module(graph: Graph, vertex: str,
                          z: complex | None = None) -> PythagoreanModule:
    """Module representing one spectrum component: a circle vertex with its
    phase, or a point vertex with no phase."""
    description = classify(graph)
    graph.require_vertex(vertex)
    if z is None:
        if vertex not in description.points:
            raise SpectrumError(f"vertex {vertex!r} is not an isolated point: "
                                "it carries a circle and needs a phase")
        return isolated_module(graph, vertex)
    if vertex not in description.circles:
        raise SpectrumError(f"vertex {vertex!r} does not carry a circle: "
                            "it is an isolated point and takes no phase")
    return one_dim_module(graph, vertex, z)
