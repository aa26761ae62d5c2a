"""Command-line front end: check scripts, query terms, run the corpus.

Results go to stdout, diagnostics to stderr: a rejection prints its
`span: message` line and, indented under it, the rule, subject, expected
and actual kind of its Diagnostic when it has one. Exit status 0 means every
requested check passed, 1 means a script or term was rejected (or the
corpus deviated from its manifest), 2 means the request itself was bad:
unreadable file or malformed flag.

Each setting comes from its flag and nowhere else.
"""

from __future__ import annotations

import argparse
import sys
import textwrap
import time
from pathlib import Path

from .checker import Checker, parse_fuel
from .corpus import MANIFEST, MANIFEST_IMPREDICATIVE, check_corpus
from .errors import LttwError
from .kernel import DEFAULT_FUEL
from .parser import parse_term
from .printer import render
from .stdlib import load_core_signature, load_standard
from .surface import Directive, DirectiveOp

MODES = ("predicative", "impredicative")
PLACEMENTS = ("prop", "type")
SIGNATURES = ("standard", "core", "none")


class UsageError(Exception):
    pass


def _add_options(p: argparse.ArgumentParser, preload: bool) -> None:
    p.add_argument("--mode", choices=MODES, default="predicative",
                   help="predicativity mode (default predicative)")
    p.add_argument("--prop-at", choices=PLACEMENTS, dest="prop_at",
                   default="prop",
                   help="kind at which the name-level prop constant is "
                        "declared (default prop)")
    p.add_argument("--fuel", default=str(DEFAULT_FUEL),
                   help=f"reduction budget (default {DEFAULT_FUEL})")
    if preload:
        p.add_argument("--stdlib", choices=SIGNATURES, default="standard",
                       help="signature to preload: standard, core "
                            "(no derived connectives), or none")
    p.add_argument("--quiet", action="store_true",
                   help="suppress result lines; keep diagnostics")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="lttw",
        description="Proof checker for a typed logical framework with "
                    "name-level propositions and user rewrite rules.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check",
                       help="run proof scripts, printing their output")
    _add_options(p, preload=True)
    p.add_argument("files", nargs="+", help="proof scripts, in load order")

    for name, what in (("typeof", "elaborate terms and print their kinds"),
                       ("reduce", "normalize terms and print the results")):
        p = sub.add_parser(name, help=what)
        _add_options(p, preload=True)
        p.add_argument("--load", action="append", default=[],
                       metavar="FILE",
                       help="script to run before the query (repeatable)")
        p.add_argument("terms", nargs="+", help="term expressions")

    p = sub.add_parser("corpus",
                       help="run the bundled corpus against its manifest "
                            "(always over the standard signature)")
    _add_options(p, preload=False)
    p.add_argument("--manifest", default=None,
                   help="manifest path (default: the bundled manifest "
                        "for the selected mode)")
    return top


def _make_checker(args) -> Checker:
    if args.stdlib == "none":
        return Checker(args.prop_at, args.fuel)
    if args.stdlib == "core":
        if args.mode == "impredicative":
            raise UsageError(
                "the impredicative overlay needs the derived layer; "
                "use --stdlib standard")
        return load_core_signature(args.prop_at, args.fuel)
    return load_standard(mode=args.mode, prop_placement=args.prop_at,
                         fuel=args.fuel)


def _emit(checker: Checker, start: int, quiet: bool) -> int:
    if not quiet:
        for line in checker.output[start:]:
            print(line)
    return len(checker.output)


def _cmd_check(args) -> int:
    checker = _make_checker(args)
    seen = len(checker.output)
    for name in args.files:
        path = Path(name)
        if not path.is_file():
            raise OSError(f"no such script: {name}")
        checker.run_path(path)
        seen = _emit(checker, seen, args.quiet)
    return 0


def _cmd_terms(args, op: DirectiveOp) -> int:
    checker = _make_checker(args)
    for name in args.load:
        path = Path(name)
        if not path.is_file():
            raise OSError(f"no such script: {name}")
        checker.run_path(path)
    seen = len(checker.output)
    for text in args.terms:
        # each argument is one term, never a script
        term = parse_term(text, file="<argument>")
        checker.run_command(Directive(op, (term, None), term.span))
        seen = _emit(checker, seen, args.quiet)
    return 0


def _cmd_corpus(args) -> int:
    manifest = args.manifest
    if manifest is None:
        manifest = (MANIFEST_IMPREDICATIVE if args.mode == "impredicative"
                    else MANIFEST)
    elif not Path(manifest).is_file():
        raise OSError(f"no such manifest: {manifest}")
    start = time.perf_counter()
    _, results = check_corpus(manifest, mode=args.mode,
                              prop_placement=args.prop_at, fuel=args.fuel,
                              strict=False)
    elapsed = time.perf_counter() - start
    if not args.quiet:
        for r in results:
            print(r.line())
        print(f"{sum(r.ok for r in results)}/{len(results)} as expected "
              f"in {elapsed:.2f} s")
    return 0 if all(r.ok for r in results) else 1


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse has printed its usage error (2) or the help (0)
        return e.code
    try:
        try:
            args.fuel = parse_fuel(args.fuel)
        except ValueError as e:
            raise UsageError(str(e)) from None
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "typeof":
            return _cmd_terms(args, DirectiveOp.TYPEOF)
        if args.command == "reduce":
            return _cmd_terms(args, DirectiveOp.REDUCE)
        return _cmd_corpus(args)
    except LttwError as e:
        print(e, file=sys.stderr)
        if e.diagnostic is not None:
            print(textwrap.indent(render(e.diagnostic), "  "),
                  file=sys.stderr)
        return 1
    except (UsageError, OSError) as e:
        print(f"lttw: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
