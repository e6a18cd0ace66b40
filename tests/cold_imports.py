"""Which modules a cold import of one idealis module loads beyond
``argparse`` and ``json``, the two the CLI needs anyway.

    PYTHONPATH=src python -S tests/cold_imports.py idealis.cli

Prints the newly loaded module names, one a line, and exits 1 when they
include ``dataclasses``, ``inspect`` or ``typing``, or, for
``idealis.cli``, ``idealis.nullset`` and ``idealis.fubini``, ``fractions``:
only the modules that build a measure load it.  Diffing against the modules that
``argparse`` and ``json`` load keeps the check true on every Python
whose standard library itself loads one of these.  Run it under ``-S``,
so the site hook loads nothing first, with ``PYTHONPATH`` naming the
directory that holds the package: ``src`` for the checkout, or the
site-packages of an installed copy.
"""

import sys
import argparse  # noqa: F401
import json  # noqa: F401

FORBIDDEN = {"dataclasses", "inspect", "typing"}
NO_FRACTIONS = {"idealis.cli", "idealis.nullset", "idealis.fubini"}

base = set(sys.modules)
module = sys.argv[1]
__import__(module)
loaded = sorted(set(sys.modules) - base)
print("\n".join(loaded))
forbidden = FORBIDDEN | {"fractions"} if module in NO_FRACTIONS else FORBIDDEN
found = forbidden.intersection(loaded)
if found:
    sys.exit(f"{module} loads {sorted(found)}")
