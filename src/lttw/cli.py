"""Command-line front end: check scripts, query terms, run the corpus.

Results go to stdout, diagnostics to stderr: a rejection prints its
`span: message` line and, indented under it, the rule, subject, expected
and actual kind of its Diagnostic when it has one. Exit status 0 means every
requested check passed, 1 means a script or term was rejected (or the
corpus deviated from its manifest), 2 means the request itself was bad:
unreadable file, malformed flag or environment override.

Every flag can also be set by an LTTW_* environment variable (flag
wins): LTTW_MODE, LTTW_PROP_AT, LTTW_FUEL, LTTW_STDLIB, LTTW_MANIFEST.
"""

from __future__ import annotations

import argparse
import os
import sys
import textwrap
import time
from pathlib import Path
from typing import Optional

from .checker import Checker, CheckerConfig
from .corpus import MANIFEST, MANIFEST_IMPREDICATIVE, check_corpus
from .errors import LttwError
from .kernel import DEFAULT_FUEL
from .parser import parse_term
from .stdlib import load_core_signature, load_standard
from .surface import Directive, DirectiveOp

MODES = ("predicative", "impredicative")
PLACEMENTS = ("prop", "type")
SIGNATURES = ("standard", "core", "none")


class UsageError(Exception):
    pass


def _env(name: str) -> Optional[str]:
    return os.environ.get(f"LTTW_{name}")


def _resolve(flag_value, env_name: str, default, allowed=None):
    value = flag_value
    if value is None:
        value = _env(env_name)
    if value is None:
        return default
    if allowed is not None and value not in allowed:
        raise UsageError(
            f"{env_name.lower().replace('_', '-')} must be one of "
            f"{', '.join(allowed)}; got {value!r}")
    return value


def _resolve_fuel(flag_value) -> int:
    value = flag_value
    if value is None:
        value = _env("FUEL")
    if value is None:
        return DEFAULT_FUEL
    try:
        fuel = int(value)
    except ValueError:
        raise UsageError(f"fuel must be a number, got {value!r}")
    if fuel <= 0:
        raise UsageError(f"fuel must be positive, got {fuel}")
    return fuel


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mode", choices=MODES, default=None,
                        help="predicativity mode (default predicative)")
    common.add_argument("--prop-at", choices=PLACEMENTS, dest="prop_at",
                        default=None,
                        help="kind at which the name-level prop constant "
                             "is declared (default prop)")
    common.add_argument("--fuel", default=None,
                        help=f"reduction budget (default {DEFAULT_FUEL})")
    common.add_argument("--stdlib", choices=SIGNATURES, default=None,
                        help="signature to preload: standard, core "
                             "(no derived connectives), or none")
    common.add_argument("--quiet", action="store_true",
                        help="suppress result lines; keep diagnostics")

    top = argparse.ArgumentParser(
        prog="lttw",
        description="Proof checker for a typed logical framework with "
                    "name-level propositions and user rewrite rules.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="run proof scripts, printing their output")
    p.add_argument("files", nargs="+", help="proof scripts, in load order")

    p = sub.add_parser("typeof", parents=[common],
                       help="elaborate terms and print their kinds")
    p.add_argument("--load", action="append", default=[], metavar="FILE",
                   help="script to run before the query (repeatable)")
    p.add_argument("terms", nargs="+", help="term expressions")

    p = sub.add_parser("reduce", parents=[common],
                       help="normalize terms and print the results")
    p.add_argument("--load", action="append", default=[], metavar="FILE",
                   help="script to run before the query (repeatable)")
    p.add_argument("terms", nargs="+", help="term expressions")

    p = sub.add_parser("corpus", parents=[common],
                       help="run the bundled corpus against its manifest "
                            "(always over the standard signature)")
    p.add_argument("--manifest", default=None,
                   help="manifest path (default: the bundled manifest "
                        "for the selected mode)")
    p.add_argument("--no-extended", action="store_true",
                   help="skip entries tagged extended")
    return top


def _make_checker(args) -> Checker:
    mode = _resolve(args.mode, "MODE", "predicative", MODES)
    placement = _resolve(args.prop_at, "PROP_AT", "prop", PLACEMENTS)
    fuel = _resolve_fuel(args.fuel)
    which = _resolve(args.stdlib, "STDLIB", "standard", SIGNATURES)
    if which == "none":
        return Checker(config=CheckerConfig(prop_placement=placement,
                                            fuel=fuel))
    if which == "core":
        if mode == "impredicative":
            raise UsageError(
                "the impredicative overlay needs the derived layer; "
                "use --stdlib standard")
        return load_core_signature(placement, fuel)
    return load_standard(mode=mode, prop_placement=placement, fuel=fuel)


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
        checker.run_command(Directive(op, (term,), term.span))
        seen = _emit(checker, seen, args.quiet)
    return 0


def _cmd_corpus(args) -> int:
    mode = _resolve(args.mode, "MODE", "predicative", MODES)
    placement = _resolve(args.prop_at, "PROP_AT", "prop", PLACEMENTS)
    fuel = _resolve_fuel(args.fuel)
    manifest = _resolve(args.manifest, "MANIFEST", None)
    if manifest is None:
        manifest = (MANIFEST_IMPREDICATIVE if mode == "impredicative"
                    else MANIFEST)
    elif not Path(manifest).is_file():
        raise OSError(f"no such manifest: {manifest}")
    start = time.perf_counter()
    _, results = check_corpus(manifest, mode=mode,
                              prop_placement=placement, fuel=fuel,
                              include_extended=not args.no_extended,
                              strict=False)
    elapsed = time.perf_counter() - start
    if not args.quiet:
        for r in results:
            print(r.line())
        print(f"{sum(r.ok for r in results)}/{len(results)} as expected "
              f"in {elapsed:.2f} s")
    return 0 if all(r.ok for r in results) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
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
            print(textwrap.indent(e.diagnostic.render(), "  "),
                  file=sys.stderr)
        return 1
    except UsageError as e:
        print(f"lttw: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"lttw: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
