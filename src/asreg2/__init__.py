"""Exact invariants of dimension-2 regular graded algebras under cyclic actions."""

# no command runs elimination, but perfbench/tracer.py patches Echelon.add
# and Echelon.residue and reads sys.modules["asreg2.linalg"] once asreg2.cli
# is imported, so the package keeps loading linalg
from . import linalg

__version__ = "0.1.0"
