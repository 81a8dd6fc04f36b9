"""Spectrum classification for loop graphs.

Supported graphs: every cycle is the power of a loop, each vertex carries at
most one loop, and a loopless vertex may not receive any edge. Within that
class the irreducible-module classes are one circle of one-dimensional
modules per looped vertex (the loop scalar sweeps the unit circle) plus one
isolated class per loopless vertex. Anything outside the class is refused
rather than extrapolated.

Why this is the whole spectrum. Read the graph in the edge convention of
Bates, Hong, Raeburn and Szymański (Illinois J. Math. 46, 2002) and Hong
and Szymański (J. Math. Soc. Japan 56, 2004), which is this package's
`opposite`. There the primitive ideals of a finite graph algebra are given
by its maximal tails, the nonempty vertex sets M with

  (1) every vertex that reaches a vertex of M lies in M;
  (2) every vertex of M that emits an edge emits one into M;
  (3) any two vertices of M reach a common vertex of M.

A tail that holds a loop with no exit in M gives a circle of primitive
ideals, and any other tail gives one point. In the opposite of a supported
graph every cycle is a power of a loop, and every loopless vertex is a
sink.

Lemma: in the supported class a maximal tail M has one minimal vertex m,
and M is the set of vertices that reach m; m is a sink or looped, and the
loop at m has no exit in M. Proof: M is finite and acyclic apart from
loops, so it has minimal vertices, and by (3) any two of them reach a
common one, so they are equal; then (1) gives M. If m emits an edge, (2)
gives one into M; it reaches m, so it is a loop. The loop at m has no exit
in M, since m carries one loop and any other edge out of m would leave M. A
loop at another vertex v of M has an exit: the first edge of a shortest
path from v to m. Conversely, the vertices that reach a sink or a looped
vertex m form a maximal tail with minimal vertex m. So the circles are
exactly the looped vertices, and the points are exactly the loopless
vertices, which receive no edge in this package's orientation.

Primitive ideals stand for irreducible classes because the algebra is of
type I: a graph algebra is of type I when no vertex lies on two distinct
cycles (Deicke, Hong and Szymański, Indiana Univ. Math. J. 52, 2003;
Ephrem, J. Operator Theory 52, 2004). A supported graph meets this, since
its cycles are powers of loops and each vertex carries at most one loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, LoopStructure, loop_structure
from .modules import PythagoreanModule, isolated_module, one_dim_module

LOOP_GRAPH = "loop-graph"
LOOP_GRAPH_WITH_SOURCES = "loop-graph-with-sources"
UNSUPPORTED = "unsupported"


class SpectrumError(ValueError):
    """Raised when a graph falls outside the supported class."""


@dataclass(frozen=True)
class HypothesisReport:
    """Verdict on the classification hypotheses plus failure diagnostics."""

    verdict: str
    diagnostics: tuple[str, ...] = ()


@dataclass(frozen=True)
class SpectrumDescription:
    """The spectrum components: circle vertices and isolated points."""

    class_tag: str
    circles: tuple[str, ...]
    points: tuple[str, ...]


def check_hypotheses(graph: Graph) -> HypothesisReport:
    return _check_hypotheses(graph, loop_structure(graph))


def _check_hypotheses(graph: Graph, structure: LoopStructure) -> HypothesisReport:
    diagnostics = []
    multi = sorted(v for v, k in structure.loops_per_vertex.items() if k > 1)
    if multi:
        diagnostics.append(f"more than one loop at: {', '.join(multi)}")
    loopless = [v for v in graph.vertices if structure.loops_per_vertex[v] == 0]
    received = set(map(graph.vertices.__getitem__, graph._range))
    receiving = [v for v in loopless if v in received]
    if receiving:
        diagnostics.append(f"loopless vertices receiving edges: {', '.join(receiving)}")
    if not structure.loops_removed_acyclic:
        cycle = " -> ".join(structure.cycle)
        diagnostics.append(f"cycle through distinct vertices: {cycle}")
    if diagnostics:
        return HypothesisReport(UNSUPPORTED, tuple(diagnostics))
    return HypothesisReport(LOOP_GRAPH_WITH_SOURCES if loopless else LOOP_GRAPH)


def classify(graph: Graph) -> SpectrumDescription:
    """List the spectrum components, or refuse with the failed hypotheses."""
    structure = loop_structure(graph)
    report = _check_hypotheses(graph, structure)
    if report.verdict == UNSUPPORTED:
        raise SpectrumError("; ".join(report.diagnostics))
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
