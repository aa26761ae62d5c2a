"""The names perfbench's tracer wraps exist where it looks them up.

`perfbench/tracer.py` replaces each entry point through its owner's
`__dict__` when it installs, so a name deleted from the package, or moved
to a base class, breaks every traced benchmark run rather than an import.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.tracer import _ENTRY_POINTS  # noqa: E402


def test_every_traced_entry_point_is_its_owners_own_attribute():
    assert _ENTRY_POINTS
    missing = [(owner.__name__, attr) for _, owner, attr, _ in _ENTRY_POINTS
               if attr not in vars(owner)]
    assert missing == []
