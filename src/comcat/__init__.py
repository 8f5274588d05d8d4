"""comcat: verification toolkit for finite-dimensional convex operational models.

Build cones and models, compose them, condition bipartite states, search
for teleportation protocols and self-duality structures, and check the
compact-closure and dagger-compactness properties mechanically.
"""

from .com import (
    Com,
    is_effect,
    is_morphism,
    is_process,
    is_saturated,
    linear_adjoint,
    normalize_morphism,
    validate_com,
)
from .composites import (
    CompositeCom,
    is_composite,
    max_tensor,
    min_tensor,
    separability_check,
    spatial_quantum_composite,
)
from .conditioning import (
    conditional_state,
    conditioning_map,
    co_conditioning_map,
    marginals,
    remote_evaluate,
    remote_evaluate_dual,
)
from .cones import Cone, cone_from_generators, dual_cone, psd_cone
from .lp import lp_feasible, solve_lp
from .models import classical, from_mackey, gbit, mackey_triple, maximally_entangled_structure, quantum
from .protocols import (
    CompactStructure,
    TeleportationCertificate,
    check_theory_compact_closed,
    factor_morphism,
    find_teleportation,
    verify_compact_structure,
    verify_teleportation,
)
from .selfdual import (
    DualityStructure,
    canonical_adjoint,
    check_symmetric_self_duality,
    check_weak_self_duality,
    counit_dual_check,
    dagger_compactness_verdict,
    double_dual_check,
    symmetry_equivalence_report,
    verify_isomorphism_state,
)

__version__ = "0.1.0"
