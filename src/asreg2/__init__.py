"""Exact invariants of dimension-2 regular graded algebras under cyclic actions."""

from .cyclotomic import Cyclotomic, cyc, cyclotomic_polynomial, zeta
from .algebra import (
    AlgebraElement,
    AlgebraSpec,
    Monomial,
    SpecError,
    graded_basis,
    hilbert_dims,
    jordan_spec,
    quantum_spec,
    reduce_product,
    validate_spec,
)
from .automorphisms import (
    CyclicGroupAction,
    NotTabulatedError,
    hdet,
    make_cyclic_group,
    make_diagonal_action,
)
from .skew import (
    ampleness_report,
    corner_dimension_checks,
    fixed_ring_dims,
    min_phi_degree,
    molien_dims,
)
from .quivers import (
    Quiver,
    bgp_reflect,
    covering_quiver,
    cycle_classes,
    make_canonical_quiver,
    quiver_isomorphic,
    quiver_qs,
    quiver_qsg,
    reflection_search,
)
from .beilinson import gabriel_quiver_oracle, nabla_dim

# no command runs elimination, but perfbench/tracer.py patches Echelon.add
# and Echelon.residue and reads sys.modules["asreg2.linalg"] once asreg2.cli
# is imported, so the package keeps loading linalg
from . import linalg

__version__ = "0.1.0"
