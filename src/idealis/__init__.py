"""Exact-arithmetic toolkit for finite-stage universal-set constructions
over Cantor and Baire space.

Import from the submodule that defines a name, as in ``from idealis import
nullset`` or ``from idealis.nullset import null_member``; ``import
idealis`` alone imports no submodule.
"""

__version__ = "0.1.0"
