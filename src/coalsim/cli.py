"""Command-line interface.

Exit codes: 0 when the queried property holds or a witness was found, 1 when
it fails or no witness exists, 2 on usage or validation errors.  Output is
deterministic byte for byte for identical invocations; `--json` switches
every command to a single machine-readable JSON document.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import suppress

from .behaviour import (
    certified_partition,
    n_step_partition,
    stabilized_partition,
    t_bisim_up_to_difunctionality_check,
    t_bisimulation_check,
)
from .errors import CoalsimError, NotSeparatingError, shown
from .formulas import evaluate, parse_formula
from .liftings import DEFAULT_LITERALS, resolve_signature
from .modelio import dump_json, load_coalgebra, load_relation
from .properties import run_property_suite
from .simulation import (
    is_bisimulation,
    is_bisimulation_up_to_difunctionality,
    is_n_bisimulation,
    is_n_simulation,
    is_simulation,
    simulation_rows,
)


def _signature(args, *models):
    literal = args.sig or DEFAULT_LITERALS[models[0].kind.name]
    return resolve_signature(literal, models)


def _emit_rows(args, left, rows) -> int:
    """Print a relation answer from its rows in one write; exit 0 when it has a pair.

    `rows` maps each state of `left` to its right states in carrier order,
    so walking `left` lists the pairs in `sorted_pairs` order: the bytes of
    one `x y` line per pair, or of `dump_json(relation_to_dict(...))`,
    without building or sorting a pair set.  A row shared by a block is
    rendered once.
    """
    render = json.dumps if args.json else str
    rendered = {}  # id of a row -> its right states as text
    chunks = []
    for x in left:
        ys = rows[x]
        if not ys:
            continue
        cells = rendered.get(id(ys))
        if cells is None:
            cells = rendered[id(ys)] = [render(y) for y in ys]
        if args.json:
            head = f"[{render(x)}, "
            chunks.append(head + ("], " + head).join(cells) + "]")
        else:
            head = f"{x} "
            chunks.append(head + ("\n" + head).join(cells) + "\n")
    if args.json:
        sys.stdout.write('{"pairs": [' + ", ".join(chunks) + "]}\n")
    else:
        sys.stdout.write("".join(chunks))
    return 0 if chunks else 1


def _emit_report(args, report):
    # Rendered whole before any output, which a BudgetError would cut.
    if args.json:
        sys.stdout.write(dump_json(report.to_dict()))
    else:
        lines = ["holds" if report.holds else "fails"]
        for v in report.violations:
            wit = ",".join(str(s) for s in sorted(v.witness, key=repr))
            lines.append(f"violation [{v.direction}] {v.left} {v.right} {v.modality.token()} {{{wit}}}")
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if report.holds else 1


def _cmd_eval(args) -> int:
    model = load_coalgebra(args.model)
    sig = _signature(args, model)
    formula = parse_formula(args.formula, sig)
    result = evaluate(formula, model, args.state)
    if args.json:
        sys.stdout.write(dump_json({"state": args.state, "holds": result}))
    else:
        print("true" if result else "false")
    return 0 if result else 1


def _cmd_check_sim(args) -> int:
    c = load_coalgebra(args.left)
    d = load_coalgebra(args.right)
    rel = load_relation(args.relation, c, d)
    sig = _signature(args, c, d)
    if args.up_to_difunctional:
        report = is_bisimulation_up_to_difunctionality(rel, c, d, sig)
        return _emit_report(args, report)
    if args.n is not None:
        if args.bi:
            ok = is_n_bisimulation(rel, c, d, sig, args.n)
        else:
            ok = is_n_simulation(rel, c, d, sig, args.n)
        if args.json:
            sys.stdout.write(dump_json({"holds": ok, "depth": args.n}))
        else:
            print("holds" if ok else "fails")
        return 0 if ok else 1
    report = is_bisimulation(rel, c, d, sig) if args.bi else is_simulation(rel, c, d, sig)
    return _emit_report(args, report)


def _cmd_greatest(args, bi: bool) -> int:
    c = load_coalgebra(args.left)
    d = load_coalgebra(args.right)
    sig = _signature(args, c, d)
    if not bi:
        return _emit_rows(args, c.carrier, simulation_rows(c, d, sig, args.n))
    if args.n is None:
        # Λ-bisimilarity under a separating signature, certified; it checks separation first.
        with suppress(NotSeparatingError):
            return _emit_rows(args, c.carrier, certified_partition(c, d, sig)[0].rows())
    part = stabilized_partition(c, d, sig)[0] if args.n is None else n_step_partition(c, d, args.n, sig)
    return _emit_rows(args, c.carrier, part.rows())


def _cmd_nstep(args) -> int:
    c = load_coalgebra(args.left)
    d = load_coalgebra(args.right)
    doc = n_step_partition(c, d, args.n).to_dict()
    if args.json:
        doc["n"] = args.n
        sys.stdout.write(dump_json(doc))
    else:
        for i, blk in enumerate(doc["blocks"]):
            print(f"block {i}: left={blk['left']} right={blk['right']}")
    return 0


def _cmd_behavioural(args) -> int:
    c = load_coalgebra(args.left)
    d = load_coalgebra(args.right)
    sig = _signature(args, c, d)
    part, witness = certified_partition(c, d, sig)
    if args.witness:
        with open(args.witness, "w", encoding="utf-8") as handle:
            handle.write(dump_json(witness.to_dict()))
    return _emit_rows(args, c.carrier, part.rows())


def _cmd_closure(args) -> int:
    rel = load_relation(args.relation)
    _emit_rows(args, rel.left, rel.components().rows())
    return 0


def _cmd_tbisim(args) -> int:
    c = load_coalgebra(args.left)
    d = load_coalgebra(args.right)
    rel = load_relation(args.relation, c, d)
    check = (
        t_bisim_up_to_difunctionality_check
        if args.up_to_difunctional
        else t_bisimulation_check
    )
    coupling = check(rel, c, d)
    if args.json:
        doc = coupling.to_dict() if coupling is not None else {"couplings": None}
        sys.stdout.write(dump_json(doc))
    else:
        print("coupling found" if coupling is not None else "no coupling")
    return 0 if coupling is not None else 1


def _cmd_randtest(args) -> int:
    report = run_property_suite(args.property, args.trials, args.seed)
    if args.json:
        sys.stdout.write(dump_json(report.to_dict()))
    else:
        if report.asserting:
            status = "PASS" if report.passed else "FAIL"
        else:
            status = "NO FINDINGS" if report.passed else "FINDINGS"
        print(f"{report.name}: {status} ({report.trials} trials, "
              f"{len(report.counterexamples)} counterexamples)")
        for ce in report.counterexamples:
            sys.stdout.write(dump_json(ce))
    if not report.asserting:
        return 0
    return 0 if report.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by every call."""
    parser = argparse.ArgumentParser(
        prog="coalsim",
        description="Decide simulations, bisimulations, and behavioural "
        "equivalence for finite state-based models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sig=True):
        if sig:
            p.add_argument("--sig", help="signature literal, e.g. kripke:box,diamond,atoms")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("eval", help="evaluate a formula at a state")
    p.add_argument("model")
    p.add_argument("state")
    p.add_argument("formula")
    common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check-sim", help="check a relation file for (bi)simulation")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("relation")
    p.add_argument("--bi", action="store_true", help="check both directions")
    depth_or_closure = p.add_mutually_exclusive_group()
    depth_or_closure.add_argument("--n", type=int, help="bounded depth n")
    depth_or_closure.add_argument(
        "--up-to-difunctional",
        action="store_true",
        help="bisimulation up to difunctional closure",
    )
    common(p)
    p.set_defaults(func=_cmd_check_sim)

    p = sub.add_parser("greatest-sim", help="compute the greatest simulation")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--n", type=int, help="greatest depth-n simulation instead")
    common(p)
    p.set_defaults(func=lambda a: _cmd_greatest(a, bi=False))

    p = sub.add_parser("greatest-bisim", help="compute the greatest bisimulation")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--n", type=int, help="greatest depth-n bisimulation instead")
    common(p)
    p.set_defaults(func=lambda a: _cmd_greatest(a, bi=True))

    p = sub.add_parser("nstep", help="depth-n partition of the disjoint union")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--n", type=int, required=True)
    common(p, sig=False)
    p.set_defaults(func=_cmd_nstep)

    p = sub.add_parser(
        "behavioural", help="behavioural equivalence with internal cross-checks"
    )
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--witness", help="write the quotient witness JSON here")
    common(p)
    p.set_defaults(func=_cmd_behavioural)

    p = sub.add_parser("closure", help="difunctional closure of a relation file")
    p.add_argument("relation")
    common(p, sig=False)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("tbisim", help="search for a coupling witnessing the relation")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("relation")
    p.add_argument(
        "--up-to-difunctional",
        action="store_true",
        help="couple over the difunctional closure",
    )
    common(p, sig=False)
    p.set_defaults(func=_cmd_tbisim)

    p = sub.add_parser("randtest", help="run a named property of the theorem matrix")
    p.add_argument("property")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    common(p, sig=False)
    p.set_defaults(func=_cmd_randtest)

    return parser


def cli_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CoalsimError, OSError) as exc:
        message = str(exc)
        if isinstance(exc, OSError) and exc.filename is not None:
            message = f"[Errno {exc.errno}] {exc.strerror}: {shown(exc.filename)}"
        print(f"error: {message}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))
