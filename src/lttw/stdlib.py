"""Loading the standard signature.

The library ships as proof scripts under stdlib/. The core files declare the
base signature (38 constants, 11 rewrite rules); the derived file defines the
classical connectives on top of it; the impredicative file is an optional
overlay that widens the named quantifiers to arbitrary types.
"""

from __future__ import annotations

from pathlib import Path

from .checker import Checker
from .kernel import DEFAULT_FUEL

STDLIB_DIR = Path(__file__).parent / "stdlib"

# the load order: the core files, then DERIVED_FILE, then (on demand)
# IMPREDICATIVE_FILE
CORE_FILES = (
    "01_logic.lf",
    "02_nat.lf",
    "03_pairs.lf",
    "04_functions.lf",
    "05_universe.lf",
    "06_equality.lf",
    "07_prop_universe.lf",
    "08_sets.lf",
)
DERIVED_FILE = "09_derived.lf"
IMPREDICATIVE_FILE = "10_impredicative.lf"


def load_core_signature(prop_placement: str = "prop",
                        fuel: int = DEFAULT_FUEL) -> Checker:
    """Checker holding just the base constants and rules."""
    checker = Checker(prop_placement, fuel)
    for name in CORE_FILES:
        checker.run_path(STDLIB_DIR / name)
    return checker


def load_standard(mode: str = "predicative",
                  prop_placement: str = "prop",
                  fuel: int = DEFAULT_FUEL) -> Checker:
    """Core plus derived logic; mode "impredicative" adds the overlay,
    which needs the derived layer for Ex."""
    if mode not in ("predicative", "impredicative"):
        raise ValueError(f"unknown mode {mode!r}")
    checker = load_core_signature(prop_placement, fuel)
    checker.run_path(STDLIB_DIR / DERIVED_FILE)
    if mode == "impredicative":
        checker.run_path(STDLIB_DIR / IMPREDICATIVE_FILE)
    return checker
