"""Proof checker for a logical framework with separate datatype and
proposition layers, a Tarski-style type universe, a propositional universe,
and predicative typed sets, together with a proof-script language, an
elaborator for implicit arguments, and a checked corpus of number-theoretic
and set-theoretic developments.

The usual entry points:

    from lttw import Checker, load_standard, check_corpus
    ck = load_standard()
    ck.run_text("> Check TopI : Prf (imp bot bot);")

``load_standard(mode, prop_placement, fuel)`` loads the shipped signature;
``Checker(prop_placement, fuel)`` starts a session over an empty one.

Everything else lives in the focused submodules: ``syntax`` (terms, kinds,
substitution), ``kernel`` (reduction, kind checking), ``signature``
(declarations, definitions, rewrite rules, replay), ``elaborator`` (hole
solving), ``parser``/``printer``/``surface`` (the script language),
``checker`` (script execution), ``stdlib`` (the shipped signature),
``corpus`` (the checked example suite), and ``cli``.
"""

from .checker import Checker
from .corpus import check_corpus
from .errors import LttwError
from .kernel import (
    DEFAULT_FUEL, EMPTY_CONTEXT, Context, Fuel, Signature, check_term,
    convertible, infer_kind, normalize, whnf,
)
from .parser import parse_kind, parse_script, parse_term
from .printer import print_kind, print_term
from .signature import replay
from .stdlib import load_core_signature, load_standard
from .syntax import (
    PROP, TYPE, App, Const, ElKind, Kind, Lam, Meta, PiKind, PrfKind,
    PropKind, Term, TypeKind, Var, alpha_eq, free_vars, subst,
)

__version__ = "0.1.0"

__all__ = [
    "App", "Checker", "Const", "Context", "DEFAULT_FUEL", "ElKind",
    "EMPTY_CONTEXT", "Fuel", "Kind", "Lam", "LttwError", "Meta", "PROP",
    "PiKind", "PrfKind", "PropKind", "Signature", "TYPE", "Term", "TypeKind",
    "Var", "alpha_eq", "check_corpus", "check_term", "convertible",
    "free_vars", "infer_kind", "load_core_signature", "load_standard",
    "normalize", "parse_kind", "parse_script", "parse_term", "print_kind",
    "print_term", "replay", "subst", "whnf",
]
