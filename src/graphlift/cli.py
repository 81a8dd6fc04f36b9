"""Command-line interface.

Exit codes: 0 success or check passed; 1 well-formed check failed (residual
too large, reducible, inequivalent); 2 usage or data error (bad schema,
unsupported graph class, gcd violation). All commands are deterministic
given their flags; randomness always flows through an explicit seed.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import io
from .families import (
    FAMILIES,
    LensParams,
    lens_graph_coprime,
    projective_graph,
    sphere_even_graph,
    sphere_odd_graph,
    validate_quantum_graph,
)
from .graphs import GraphError
from .lifting import LiftError, ck_residuals, lift, loop_eigenvalue
from .modules import (
    ModuleError,
    are_equivalent,
    intertwiner_space,
    is_irreducible,
    isolated_module,
    one_dim_module,
    random_module,
    validate_module,
    EQUIVALENT,
    _require_tolerance,
)
from .spectrum import SpectrumError, classify, representative_module

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_ERROR = 2

_DATA_ERRORS = (
    io.CodecError,
    GraphError,
    ModuleError,
    LiftError,
    SpectrumError,
    OSError,
)


def _emit(pieces, out: str | None, fmt: str, summary: str) -> None:
    """Write a document's text, given in pieces, to out as the pieces are
    produced, and to stdout too in the json format; print the summary when
    it goes to out only. Without out, the text goes to stdout."""
    if not out:
        sys.stdout.writelines(pieces)
    elif fmt == "json":
        io._write_text(out, _echoed(pieces))
    else:
        io._write_text(out, pieces)
        print(summary)


def _echoed(pieces):
    """The pieces, each written to stdout as it is produced."""
    for piece in pieces:
        sys.stdout.write(piece)
        yield piece


def _load_graph(path: str):
    return io.graph_from_dict(io.read_json(path))


def _load_module(path: str):
    return io.module_from_dict(io.read_json(path))


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise io.CodecError(f"/: {what} must be comma-separated integers, got {text!r}")


def _cmd_graph_make(args) -> int:
    if args.family == "lens":
        if args.p is None or args.weights is None:
            raise io.CodecError("/: lens graphs need --p and --weights")
        params = LensParams(args.n, args.p, _parse_ints(args.weights, "--weights"))
        graph = lens_graph_coprime(params)
    elif args.family == "sphere-odd":
        graph = sphere_odd_graph(args.n)
    elif args.family == "sphere-even":
        graph = sphere_even_graph(args.n)
    else:
        graph = projective_graph(args.n)
    if args.dot:
        io._write_text(args.dot, io._dot_lines(graph))
    summary = f"{args.family}: {len(graph.vertices)} vertices, {len(graph._ids)} edges"
    _emit(io._graph_text(graph, args.family == "lens"), args.out, args.format, summary)
    return EXIT_OK


def _cmd_graph_check(args) -> int:
    graph = _load_graph(args.file)
    report = validate_quantum_graph(graph, args.family)
    if args.format == "json":
        doc = {
            "family": report.family,
            "passed": report.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in report.checks
            ],
        }
        sys.stdout.write(io.dumps_json(doc))
    else:
        for c in report.checks:
            mark = "pass" if c.passed else "FAIL"
            detail = f" ({c.detail})" if c.detail else ""
            print(f"{c.name}: {mark}{detail}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_classify(args) -> int:
    graph = _load_graph(args.file)
    description = classify(graph)
    doc = io.spectrum_to_dict(description)
    if args.format == "text":
        circles = ", ".join(description.circles) or "none"
        points = ", ".join(description.points) or "none"
        print(f"class: {description.class_tag}")
        print(f"circles: {circles}")
        print(f"points: {points}")
    else:
        sys.stdout.write(io.dumps_json(doc))
    return EXIT_OK


def _cmd_spectrum_module(args) -> int:
    graph = _load_graph(args.graph)
    z = io.parse_complex(args.z) if args.z is not None else None
    module = representative_module(graph, args.vertex, z)
    _emit([io._module_text(module, "\n"), "\n"], args.out, "text",
          f"module at {args.vertex}: dims {module.dims}")
    return EXIT_OK


def _cmd_module_make(args) -> int:
    graph = _load_graph(args.graph)
    if args.z is not None:
        module = one_dim_module(graph, args.vertex, io.parse_complex(args.z))
    else:
        module = isolated_module(graph, args.vertex)
    _emit([io._module_text(module, "\n"), "\n"], args.out, "text",
          f"module at {args.vertex}: total dimension {module.total_dim}")
    return EXIT_OK


def _cmd_module_random(args) -> int:
    graph = _load_graph(args.graph)
    values = _parse_ints(args.dims, "--dims")
    if len(values) != len(graph.vertices):
        raise io.CodecError(
            f"/: --dims lists {len(values)} values for {len(graph.vertices)} vertices"
        )
    module = random_module(graph, dict(zip(graph.vertices, values)), args.seed)
    _emit([io._module_text(module, "\n"), "\n"], args.out, "text",
          f"random module: seed {args.seed}, total dimension {module.total_dim}")
    return EXIT_OK


def _cmd_module_check(args) -> int:
    module = _load_module(args.file)
    report = validate_module(module, args.tol)
    if args.format == "json":
        doc = {
            "residuals": report.residuals,
            "exempt": list(report.exempt),
            "max_residual": report.max_residual,
            "passed": report.passed,
        }
        sys.stdout.write(io.dumps_json(doc))
    else:
        for v, r in report.residuals.items():
            print(f"vertex {v}: residual {r:.3e}")
        if report.exempt:
            print(f"exempt: {', '.join(report.exempt)}")
        verdict = "pass" if report.passed else "FAIL"
        print(f"max residual {report.max_residual:.3e} against {report.tol:.1e}: {verdict}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_module_irreducible(args) -> int:
    module = _load_module(args.file)
    verdict = is_irreducible(module)
    print(f"irreducible: {'true' if verdict else 'false'}")
    return EXIT_OK if verdict else EXIT_CHECK_FAILED


def _cmd_module_intertwiners(args) -> int:
    space = intertwiner_space(_load_module(args.source), _load_module(args.target))
    print(f"dimension: {space.dimension}")
    return EXIT_OK


def _cmd_module_equivalent(args) -> int:
    result = are_equivalent(_load_module(args.source), _load_module(args.target))
    print(f"verdict: {result.verdict}")
    return EXIT_OK if result.verdict == EQUIVALENT else EXIT_CHECK_FAILED


def _cmd_lift_build(args) -> int:
    module = _load_module(args.module)
    trunc = lift(module, args.level)
    _emit(io._lift_text(trunc), args.out, "text",
          f"lift at level {args.level}: dimension {trunc.dimension}")
    return EXIT_OK


def _cmd_lift_check(args) -> int:
    module = _load_module(args.module)
    trunc = lift(module, args.level, validate=False)
    report = ck_residuals(trunc)
    print(f"projector orthogonality: {report.projector_orthogonality:.3e}")
    print(f"projector completeness: {report.projector_completeness:.3e}")
    worst_edge = max(report.edge_isometry.values(), default=0.0)
    print(f"edge isometry (worst): {worst_edge:.3e}")
    worst_vertex = max(report.vertex_sum.values(), default=0.0)
    print(f"receiving vertex sums (worst): {worst_vertex:.3e}")
    for k, r in report.embed_isometry.items():
        print(f"embedding level {k}: {r:.3e}")
    passed = report.passed(args.tol)
    verdict = "pass" if passed else "FAIL"
    print(f"max residual {report.max_residual:.3e} against {args.tol:.1e}: {verdict}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_lift_eigen(args) -> int:
    module = _load_module(args.module)
    value, residual = loop_eigenvalue(lift(module, args.level, validate=False),
                                      args.vertex)
    print(f"eigenvalue: {io.format_complex(value)}")
    print(f"residual: {residual:.3e}")
    return EXIT_OK if residual <= args.tol else EXIT_CHECK_FAILED


def _add_format(parser, default="text"):
    parser.add_argument("--format", choices=("text", "json"), default=default)


def _tolerance(text: str) -> float:
    """Type of every --tol flag: a positive finite number, else exit 2."""
    try:
        return _require_tolerance(float(text))
    except ModuleError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")


def _add_command(sub, commands: dict, words: tuple[str, ...], text: str):
    """Add the parser of the command named by `words` under `sub`, record
    it in `commands` and return it. Its defaults set `command` (and
    `subcommand` for two words), as the enclosing subparsers would."""
    leaf = sub.add_parser(words[-1], help=text)
    leaf.set_defaults(**dict(zip(("command", "subcommand"), words)))
    commands[words] = leaf
    return leaf


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The shared, process-wide parser, built on first use.

    A parse leaves the parser unchanged (set-up defaults only, no `append`
    actions, subparser results copied into a fresh Namespace), so every
    `run` call reuses it. Its `commands` attribute maps the words of every
    command, such as ("lift", "check"), to the parser that holds its flags.
    """
    parser = argparse.ArgumentParser(
        prog="graphlift",
        description="Graph families, Pythagorean modules, truncated lifts, "
        "and spectrum classification.",
    )
    commands = {}
    top = parser.add_subparsers(dest="command", required=True)

    graph = top.add_parser("graph", help="graph construction and validation")
    graph_sub = graph.add_subparsers(dest="subcommand", required=True)
    make = _add_command(graph_sub, commands, ("graph", "make"), "build a family graph")
    make.add_argument("family",
                      choices=("sphere-odd", "sphere-even", "projective", "lens"))
    make.add_argument("--n", type=int, required=True)
    make.add_argument("--p", type=int)
    make.add_argument("--weights", help="comma-separated positive integers")
    make.add_argument("--out")
    make.add_argument("--dot")
    _add_format(make)
    make.set_defaults(handler=_cmd_graph_make)
    check = _add_command(graph_sub, commands, ("graph", "check"),
                         "validate family structure")
    check.add_argument("file")
    check.add_argument("--family", choices=tuple(FAMILIES), required=True)
    _add_format(check)
    check.set_defaults(handler=_cmd_graph_check)

    cls = _add_command(top, commands, ("classify",), "classify the spectrum of a graph")
    cls.add_argument("file")
    _add_format(cls, default="json")
    cls.set_defaults(handler=_cmd_classify)

    spectrum = top.add_parser("spectrum", help="spectrum components")
    spectrum_sub = spectrum.add_subparsers(dest="subcommand", required=True)
    smod = _add_command(spectrum_sub, commands, ("spectrum", "module"),
                        "representative module")
    smod.add_argument("graph")
    smod.add_argument("--vertex", required=True)
    smod.add_argument("--z", help='phase "a+bi" or "exp(k/n)"; omit for a point')
    smod.add_argument("--out")
    smod.set_defaults(handler=_cmd_spectrum_module)

    module = top.add_parser("module", help="module construction and analysis")
    module_sub = module.add_subparsers(dest="subcommand", required=True)
    mmake = _add_command(module_sub, commands, ("module", "make"),
                         "one-dimensional module")
    mmake.add_argument("--graph", required=True)
    mmake.add_argument("--vertex", required=True)
    mmake.add_argument("--z", help="loop phase; omit for an isolated point module")
    mmake.add_argument("--out")
    mmake.set_defaults(handler=_cmd_module_make)
    mrand = _add_command(module_sub, commands, ("module", "random"),
                         "seeded random module")
    mrand.add_argument("--graph", required=True)
    mrand.add_argument("--dims", required=True,
                       help="comma-separated dimensions in vertex order")
    mrand.add_argument("--seed", type=int, default=0)
    mrand.add_argument("--out")
    mrand.set_defaults(handler=_cmd_module_random)
    mcheck = _add_command(module_sub, commands, ("module", "check"),
                          "defining-relation residuals")
    mcheck.add_argument("file")
    mcheck.add_argument("--tol", type=_tolerance, default=1e-9)
    _add_format(mcheck)
    mcheck.set_defaults(handler=_cmd_module_check)
    mirr = _add_command(module_sub, commands, ("module", "irreducible"),
                        "Burnside irreducibility test")
    mirr.add_argument("file")
    mirr.set_defaults(handler=_cmd_module_irreducible)
    mint = _add_command(module_sub, commands, ("module", "intertwiners"),
                        "intertwiner space dimension")
    mint.add_argument("source")
    mint.add_argument("target")
    mint.set_defaults(handler=_cmd_module_intertwiners)
    meq = _add_command(module_sub, commands, ("module", "equivalent"),
                       "decide module equivalence")
    meq.add_argument("source")
    meq.add_argument("target")
    meq.set_defaults(handler=_cmd_module_equivalent)

    lft = top.add_parser("lift", help="truncated lifted representation")
    lift_sub = lft.add_subparsers(dest="subcommand", required=True)
    lbuild = _add_command(lift_sub, commands, ("lift", "build"),
                          "bases and generator index maps")
    lbuild.add_argument("--module", required=True)
    lbuild.add_argument("--level", type=int, required=True)
    lbuild.add_argument("--out")
    lbuild.set_defaults(handler=_cmd_lift_build)
    lcheck = _add_command(lift_sub, commands, ("lift", "check"),
                          "generator relation residuals")
    lcheck.add_argument("--module", required=True)
    lcheck.add_argument("--level", type=int, required=True)
    lcheck.add_argument("--tol", type=_tolerance, default=1e-9)
    lcheck.set_defaults(handler=_cmd_lift_check)
    leigen = _add_command(lift_sub, commands, ("lift", "eigen"),
                          "loop eigenvalue at a vertex class")
    leigen.add_argument("--module", required=True)
    leigen.add_argument("--vertex", required=True)
    leigen.add_argument("--level", type=int, required=True)
    leigen.add_argument("--tol", type=_tolerance, default=1e-9)
    leigen.set_defaults(handler=_cmd_lift_eigen)

    parser.commands = commands
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The Namespace that `build_parser().parse_args(argv)` gives, with the
    same output and SystemExit. Argv whose first words name a command is
    parsed by that command's parser alone, the parser the nested parse
    hands its words to; leftover words get the top parser's error, as in
    the nested parse. Any other argv goes through the whole tree."""
    parser = build_parser()
    for n in (1, 2):
        leaf = parser.commands.get(tuple(argv[:n]))
        if leaf is not None:
            args, extra = leaf.parse_known_args(argv[n:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
            return args
    return parser.parse_args(argv)


def run(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # an overflow surfaces as a NaN or infinite residual in the verdict
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(args)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
