"""The benchmark's three workloads: inputs from a seed, a fixed task list per
pass, and the checks that decide whether each task's output is correct.

A task's `run` is the timed part: one `graphlift.cli.run` command or one
library verdict call. Its `check` runs after the pass, untimed and untraced,
and returns a failure message or None. Checks rely on facts that follow from
the construction of the inputs (family components, direct sums, unitary
conjugates), on the README's documented exit codes and quoted outputs, and,
for generic random modules, on verdicts recorded at the commit that added
this benchmark.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import os
import shlex
import traceback
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import graphlift
from graphlift import cli, io

TOL = 1e-9
EPS = 1e-6  # perturbation of the negative controls, far above TOL


@dataclass
class Task:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


@dataclass
class Raised:
    """Outcome of a task whose call raised."""

    text: str


def run_task(task: Task):
    try:
        return task.run()
    except Exception:  # a failing task is counted, not fatal to the pass
        return Raised(traceback.format_exc(limit=3))


def check_task(task: Task, outcome) -> str | None:
    if isinstance(outcome, Raised):
        return f"raised: {outcome.text.strip().splitlines()[-1]}"
    try:
        return task.check(outcome)
    except Exception:
        return f"check raised: {traceback.format_exc(limit=2).strip().splitlines()[-1]}"


# -- CLI tasks --------------------------------------------------------------------


@dataclass
class CliOutcome:
    code: int
    out: str
    err: str


def _run_cli(argv: list[str]) -> CliOutcome:
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return CliOutcome(code, out.getvalue(), err.getvalue())


def cli_task(command: str, code: int, check=None) -> Task:
    """`graphlift <command>` must exit with `code`; `check` inspects the rest."""
    argv = shlex.split(command)

    def verify(outcome: CliOutcome):
        if outcome.code != code:
            tail = (outcome.err or outcome.out).strip().splitlines()[-1:]
            return f"exit {outcome.code}, expected {code} {tail}"
        return check(outcome) if check else None

    return Task(command, lambda: _run_cli(argv), verify)


def _max_residual(out: str) -> float:
    last = out.strip().splitlines()[-1]
    if not last.startswith("max residual "):
        raise ValueError(f"no residual line in {last!r}")
    return float(last.split()[2])


def _parse_complex(text: str) -> complex:
    return complex(text.strip().replace("i", "j"))


def _residual_within(info: dict) -> Callable:
    """`lift check` passed; its worst residual feeds `lifting.max_residual`."""

    def verify(outcome: CliOutcome):
        r = _max_residual(outcome.out)
        info["lifting.max_residual"] = max(info["lifting.max_residual"], r)
        return None if r <= TOL else f"max residual {r:.3e} > {TOL:.0e}"

    return verify


class Workload:
    """A fixed task list per pass. `info` holds numbers the checks read off
    the outputs of one pass, reported with the per-layer metrics. `scaled`:
    task times are scaled to the speed of the reference work (child.py), which
    tracks interpreter-bound passes but not ones spent in one LAPACK call."""

    scaled = True

    def new_pass(self) -> None:
        self.info = {"lifting.max_residual": 0.0, "spectrum.by_analogy": 0}

    def report(self, records) -> None:
        """Write the workload's own output file, if it has one."""


# -- lift_tower -------------------------------------------------------------------


def level_dims(graph, dims: dict[str, int], top: int) -> list[int]:
    """Dimension of each lift level 0..top, counted without enumerating paths:
    a maximal path at v either stops (length k, or v receives nothing) or
    extends by an incoming edge, and contributes the fiber at its source."""
    weight = {v: dims[v] for v in graph.vertices}
    out = [sum(weight.values())]
    for _ in range(top):
        weight = {
            v: (sum(weight[e.source] for e in graph.in_edges(v))
                if graph.in_edges(v) else dims[v])
            for v in graph.vertices
        }
        out.append(sum(weight.values()))
    return out


def _perturbed(module, edge_id: str):
    ops = dict(module.ops)
    ops[edge_id] = ops[edge_id] + EPS
    return graphlift.PythagoreanModule(module.graph, module.dims, ops)


class LiftTower(Workload):
    """`lift build --out` at levels 1..7 and `lift check` at levels 1..11 on a
    seeded random module over sphere_odd_graph(4), fiber 2 at every vertex."""

    name = "lift_tower"

    def __init__(self, tiny: bool):
        self.builds = range(1, 3 if tiny else 8)
        self.checks = range(1, 4 if tiny else 12)

    def setup(self, seed: int, inputs: str) -> None:
        g = graphlift.sphere_odd_graph(4)
        dims = {v: 2 for v in g.vertices}
        module = graphlift.random_module(g, dims, seed)
        self.good = os.path.join(inputs, "mod.json")
        self.bad = os.path.join(inputs, "bad.json")
        io.write_json(self.good, io.module_to_dict(module))
        io.write_json(self.bad, io.module_to_dict(_perturbed(module, "11")))
        self.dims = level_dims(g, dims, max(self.builds) + 1)

    def _check_file(self, level: int) -> Callable:
        path = f"lift{level}.json"

        def verify(outcome: CliOutcome):
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
            if doc.get("level") != level:
                return f"{path}: level {doc.get('level')}"
            counts = [len(doc["bases"][str(k)]) for k in range(level + 2)]
            if counts != self.dims[: level + 2]:
                return f"{path}: basis counts {counts} != {self.dims[: level + 2]}"
            if io.lift_from_dict(doc).dimension_at(level + 1) != counts[-1]:
                return f"{path}: decoded lift disagrees with its bases"
            return None

        return verify

    @staticmethod
    def _residual_seen(outcome: CliOutcome):
        r = _max_residual(outcome.out)
        return None if r > TOL else f"perturbation not seen: residual {r:.3e}"

    @staticmethod
    def _refused(outcome: CliOutcome):
        if "module fails validation" not in outcome.err:
            return f"unexpected refusal {outcome.err.strip()!r}"
        if os.path.exists("bad_lift.json"):
            return "refused build still wrote its output"
        return None

    def tasks(self) -> list[Task]:
        out = [
            cli_task(f"lift build --module {self.good} --level {k} --out lift{k}.json",
                     0, self._check_file(k))
            for k in self.builds
        ]
        out += [
            cli_task(f"lift check --module {self.good} --level {k}", 0,
                     _residual_within(self.info))
            for k in self.checks
        ]
        out.append(cli_task(f"lift check --module {self.bad} --level 3", 1,
                            self._residual_seen))
        out.append(cli_task(
            f"lift build --module {self.bad} --level 3 --out bad_lift.json", 2,
            self._refused))
        return out



# -- module_verdicts --------------------------------------------------------------

# Verdicts of generic seeded random modules (fiber d at every vertex), recorded
# at the commit that added this benchmark with random_module seeds 0..9:
# (irreducible, indecomposable, dimension of End). Generic modules on these
# graphs are indecomposable but not irreducible.
REFERENCE = {
    ("sphere_odd_3", 1): (False, True, 1),
    ("sphere_odd_3", 2): (False, True, 1),
    ("sphere_odd_3", 3): (False, True, 1),
    ("sphere_odd_4", 1): (False, True, 1),
    ("sphere_odd_4", 2): (False, True, 1),
    ("sphere_odd_4", 3): (False, True, 1),
    ("sphere_even_3", 1): (False, True, 1),
}

# Fibers per vertex for each graph; total fiber dimension stays <= 12, and the
# largest case (d=12) alone takes about half a pass. Larger modules are left
# out for run time only: is_indecomposable took 16 s and 1.7 GB at d=16 in a
# probe, and d=24 is killed for running out of memory.
GRAPHS = {
    "sphere_odd_3": (lambda: graphlift.sphere_odd_graph(3), (1, 2, 3)),
    "sphere_odd_4": (lambda: graphlift.sphere_odd_graph(4), (1, 2, 3)),
    "sphere_even_3": (lambda: graphlift.sphere_even_graph(3), (1,)),
}
TINY_GRAPHS = {"sphere_odd_3": (GRAPHS["sphere_odd_3"][0], (1,))}


def _unitary(rng, d: int) -> np.ndarray:
    sample = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(sample)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _conjugate(module, rng):
    """U_source A U_range^* per edge: equivalent to `module` through U."""
    u = {v: _unitary(rng, d) for v, d in module.dims.items()}
    ops = {
        e.id: u[e.source] @ module.ops[e.id] @ u[e.range].conj().T
        for e in module.graph.edges
    }
    return graphlift.PythagoreanModule(module.graph, module.dims, ops)


def _phase(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))


def _at_least(low) -> Callable:
    def verify(got):
        return None if got >= low else f"got {got!r}, expected at least {low}"

    return verify


class ModuleVerdicts(Workload):
    """One library verdict call per task over seeded random modules, phase
    modules, direct sums and unitary conjugates on three graphs."""

    name = "module_verdicts"
    scaled = False

    def __init__(self, tiny: bool):
        self.graphs = TINY_GRAPHS if tiny else GRAPHS

    def setup(self, seed: int, inputs: str) -> None:
        rng = np.random.default_rng(seed)
        # (graph name, label, module or pair, {verdict: expected value or check})
        self.plan = []

        def draw():
            return int(rng.integers(2**31))

        for gname, (make, fibers) in self.graphs.items():
            g = make()
            looped = [v for v in g.vertices
                      if any(e.range == v for e in g.out_edges(v))]
            for d in fibers:
                dims = {v: d for v in g.vertices}
                m = graphlift.random_module(g, dims, draw())
                irr, indec, end = REFERENCE[(gname, d)]
                self.plan.append((gname, f"random d={d}", m, {
                    "validate": True, "intertwiners": end,
                    "irreducible": irr, "indecomposable": indec}))
                # a conjugate shares every verdict; the battery is repeated
                # only up to total dimension 6 to keep the pass short
                self.plan.append((gname, f"conjugate d={d}", _conjugate(m, rng),
                                  self.plan[-1][3] if m.total_dim <= 6
                                  else {"validate": True}))
                self.plan.append((gname, f"random d={d} ~ conjugate",
                                  (m, self.plan[-1][2]),
                                  {"equivalent": graphlift.EQUIVALENT}))
            for v in looped:
                m = graphlift.one_dim_module(g, v, _phase(rng))
                self.plan.append((gname, f"phase at {v}", m, {
                    "validate": True, "intertwiners": 1,
                    "irreducible": True, "indecomposable": True}))
            v = looped[0]
            z = _phase(rng)
            first = graphlift.one_dim_module(g, v, z)
            second = graphlift.one_dim_module(g, v, z * np.exp(2j * np.pi / 3))
            self.plan.append((gname, f"phases at {v}", (first, second),
                              {"equivalent": graphlift.INEQUIVALENT}))
            self.plan.append((gname, f"phase sum at {v}",
                              graphlift.direct_sum(first, second), {
                                  "validate": True, "intertwiners": _at_least(2),
                                  "irreducible": False, "indecomposable": False}))
            ones = {u: 1 for u in g.vertices}
            a = graphlift.random_module(g, ones, draw())
            b = graphlift.random_module(g, ones, draw())
            if 2 * a.total_dim <= 8:  # the d=10 sum on sphere_even_3 would double the pass
                self.plan.append((gname, "random sum d=1+1", graphlift.direct_sum(a, b), {
                    "validate": True, "intertwiners": _at_least(2),
                    "irreducible": False, "indecomposable": False}))
            self.plan.append((gname, "two randoms d=1", (a, b),
                              {"equivalent": graphlift.INEQUIVALENT}))
            self.plan.append((gname, "perturbed random d=1",
                              _perturbed(a, g.edges[0].id), {"validate": False}))

    _CALLS = {
        "validate": lambda m: graphlift.validate_module(m, TOL).passed,
        "intertwiners": lambda m: graphlift.intertwiner_space(m, m).dimension,
        "irreducible": lambda m: graphlift.is_irreducible(m),
        "indecomposable": lambda m: graphlift.is_indecomposable(m),
        "equivalent": lambda pair: graphlift.are_equivalent(*pair).verdict,
    }

    def tasks(self) -> list[Task]:
        out = []
        for gname, label, subject, verdicts in self.plan:
            for verdict, want in verdicts.items():
                check = want if callable(want) else (
                    lambda got, want=want: None if got == want
                    else f"got {got!r}, expected {want!r}")
                out.append(Task(f"{verdict} {gname} {label}",
                                lambda c=self._CALLS[verdict], s=subject: c(s), check))
        return out

    def report(self, records) -> None:
        """The workload's output: one verdict record per task."""
        doc = [{"task": task.label, "verdict": repr(outcome), "seconds": seconds}
               for task, outcome, seconds in records]
        with open("verdicts.json", "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)


# -- cli_tour ---------------------------------------------------------------------

# The README command tour, with its documented exit codes.
README_TOUR = (
    ("graph make sphere-odd --n 3 --out sphere.json", 0),
    ("graph check sphere.json --family sphere-odd", 0),
    ("classify sphere.json", 0),
    ("graph make lens --n 2 --p 4 --weights 2,1", 2),
    ("graph make lens --n 2 --p 3 --weights 1,1 --out lens.json", 0),
    ("graph check lens.json --family lens", 0),
    ("classify lens.json", 0),
    ('module make --graph sphere.json --vertex 1 --z "exp(1/8)" --out mod.json', 0),
    ("module check mod.json", 0),
    ("module random --graph sphere.json --dims 2,1,1 --seed 7 --out rand.json", 0),
    ("module check rand.json", 0),
    ("module irreducible mod.json", 0),
    ("module intertwiners mod.json mod.json", 0),
    ("module equivalent mod.json rand.json", 1),
    ("lift build --module mod.json --level 3 --out lift.json", 0),
    ("lift check --module mod.json --level 3", 0),
    ("lift eigen --module mod.json --vertex 1 --level 2", 0),
    ('spectrum module sphere.json --vertex 2 --z "exp(1/8)" --out rep.json', 0),
    ("module check rep.json", 0),
)


def _readme_check(command: str, info: dict):
    """The README's quoted outputs, plus a decode of every file it writes."""

    def decodes(path, decoder):
        def verify(outcome):
            decoder(io.read_json(path))
            return None

        return verify

    def contains(stream, text):
        def verify(outcome):
            got = getattr(outcome, stream)
            return None if text in got else f"{stream} lacks {text!r}: {got.strip()!r}"

        return verify

    if command == "classify sphere.json":
        want = {"class": "loop-graph", "circles": ["1", "2", "3"], "points": []}
        return lambda o: None if json.loads(o.out) == want else f"printed {o.out!r}"
    if command.startswith("graph make lens --n 2 --p 4"):
        return contains("err", "error: weights must be coprime to p: gcd(m_1=2, p=4) != 1")
    if command.startswith("module equivalent"):
        return contains("out", "verdict: inequivalent")
    if command.startswith("lift eigen"):
        return lambda o: (contains("out", "eigenvalue: 0.707107-0.707107i")(o)
                          or contains("out", "residual: 0.000e+00")(o))
    if command.startswith("lift build"):
        return decodes("lift.json", io.lift_from_dict)
    if command.startswith("lift check"):
        return _residual_within(info)
    if "--out" in command:
        path = command.rsplit("--out ", 1)[1]
        kind = io.graph_from_dict if command.startswith("graph") else io.module_from_dict
        return decodes(path, kind)
    return None


# Lens (n, p) and base weights. A run uses the base weights times a seeded unit
# mod p: the weights vary with the seed, but relabelling levels by that unit
# maps one skew product onto the other, so the graphs are isomorphic and every
# seed does the same amount of work. Independently drawn weights change the
# (5, 7) graph between 575 and 799 edges.
LENS = ((2, 3, (1, 2)), (3, 4, (1, 3, 1)), (4, 5, (1, 2, 3, 4)), (5, 7, (1, 2, 3, 4, 5)))


def _components(family: str, graph) -> tuple[str, list[str], list[str]]:
    """Known spectrum of a family member: one circle per looped vertex; the
    even sphere adds its two loopless source vertices as points."""
    vertices = list(graph.vertices)
    if family == "sphere-even":
        return "loop-graph-with-sources", vertices[:-2], vertices[-2:]
    return "loop-graph", vertices, []


class CliTour(Workload):
    """The README tour, then make/check/classify over the four families, then
    `lift eigen` on each circle vertex of the odd 3-sphere."""

    name = "cli_tour"

    def __init__(self, tiny: bool):
        self.spheres = range(1, 3 if tiny else 13)
        self.projective = range(1, 3 if tiny else 7)
        self.lens = LENS[:1] if tiny else LENS
        self.levels = range(1, 2 if tiny else 4)

    def setup(self, seed: int, inputs: str) -> None:
        rng = np.random.default_rng(seed)
        # (family, n, extra flags, builder of the graph the command must write)
        self.members = [("sphere-odd", n, "", lambda n=n: graphlift.sphere_odd_graph(n))
                        for n in self.spheres]
        self.members += [("sphere-even", n, "", lambda n=n: graphlift.sphere_even_graph(n))
                         for n in self.spheres]
        self.members += [("projective", n, "", lambda n=n: graphlift.projective_graph(n))
                         for n in self.projective]
        for n, p, base in self.lens:
            unit = rng.choice([w for w in range(1, p) if np.gcd(w, p) == 1])
            params = graphlift.LensParams(n, p, tuple(int(unit * m % p) for m in base))
            weights = ",".join(map(str, params.weights))
            self.members.append(("lens", n, f" --p {p} --weights {weights}",
                                 lambda params=params: graphlift.lens_graph_coprime(params)))
        self.phases = {v: (int(rng.integers(1, q)), q)
                       for v, q in zip("123", rng.integers(5, 13, size=3))}

    def _family_tasks(self, family: str, n: int, extra: str, expected) -> list[Task]:
        path = f"{family}-{n}.json"

        def built(outcome):
            graph = io.graph_from_dict(io.read_json(path))
            self.graphs[path] = graph
            return None if graph == expected() else f"{path} decodes to another graph"

        def all_pass(outcome):
            bad = [line for line in outcome.out.splitlines() if ": pass" not in line]
            return f"failed checks {bad}" if bad else None

        def classified(outcome):
            doc = json.loads(outcome.out)
            tag, circles, points = _components(family, self.graphs[path])
            got = (doc["class"], doc["circles"], doc["points"])
            if got != (tag, circles, points):
                return f"classify {path}: {got} != {(tag, circles, points)}"
            self.info["spectrum.by_analogy"] += bool(doc.get("by_analogy"))
            return None

        return [
            cli_task(f"graph make {family} --n {n}{extra} --out {path}", 0, built),
            cli_task(f"graph check {path} --family {family}", 0, all_pass),
            cli_task(f"classify {path}", 0, classified),
        ]

    def tasks(self) -> list[Task]:
        self.graphs = {}
        out = [cli_task(command, code, _readme_check(command, self.info))
               for command, code in README_TOUR]
        for member in self.members:
            out += self._family_tasks(*member)
        # negative control: an even sphere is not an odd one
        out.append(cli_task("graph check sphere-even-1.json --family sphere-odd", 1))
        for v, (k, q) in self.phases.items():
            z = np.exp(2j * np.pi * k / q)
            out.append(cli_task(
                f"module make --graph sphere.json --vertex {v} "
                f"--z exp({k}/{q}) --out phase-{v}.json", 0))
            for level in self.levels:
                out.append(cli_task(
                    f"lift eigen --module phase-{v}.json --vertex {v} --level {level}",
                    0, lambda o, z=z: self._eigen_check(o, z)))
        return out

    @staticmethod
    def _eigen_check(outcome: CliOutcome, z: complex):
        lines = dict(line.split(": ", 1) for line in outcome.out.strip().splitlines())
        value = _parse_complex(lines["eigenvalue"])
        if abs(value - z.conjugate()) > 1e-5:
            return f"eigenvalue {value} != conj({z})"
        if float(lines["residual"]) > TOL:
            return f"residual {lines['residual']}"
        return None


WORKLOADS = {cls.name: cls for cls in (LiftTower, ModuleVerdicts, CliTour)}
