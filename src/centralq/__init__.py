"""Exact enumeration of central and medial quasigroups over finite abelian groups.

A central quasigroup is an operation x*y = phi(x) + psi(y) + c over an
abelian group with phi, psi automorphisms; it is medial exactly when phi
and psi commute.  This package counts and classifies these structures up
to isomorphism, reproducing the known reference table for orders below
128, and exposes the group, automorphism and orbit machinery it is built
from.
"""

from .abelian import (
    AbelianGroup,
    GroupElement,
    Subgroup,
    abelian_groups_of_order,
    cyclic_group,
    direct_product,
    make_group,
    parse_group,
    trivial_group,
)
from .action import (
    OrbitPartition,
    centralizer,
    conjugacy_class_reps,
    direct_pair_orbit_count,
)
from .counting import (
    GroupReport,
    OrderReport,
    ReportCache,
    classify_representatives,
    combine_coprime,
    cq_cyclic_prime_power,
    cq_mq_of_order,
    cyclic_prime_power_report,
    enumerate_group,
    group_report,
)
from .endo import (
    DEFAULT_AUT_BUDGET,
    AutGroup,
    Endomorphism,
    ResourceLimitError,
    aut_group,
    aut_group_order,
    endo_from_gen_images,
    identity,
    one_minus,
    scalar_endo,
)
from .quasigroup import (
    AffineTriple,
    CayleyTable,
    brute_force_isomorphic,
    build_quasigroup,
    is_isomorphic_affine,
    is_latin,
    is_medial,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "AffineTriple",
    "AutGroup",
    "CayleyTable",
    "DEFAULT_AUT_BUDGET",
    "Endomorphism",
    "GroupElement",
    "GroupReport",
    "OrbitPartition",
    "OrderReport",
    "ReportCache",
    "ResourceLimitError",
    "Subgroup",
    "abelian_groups_of_order",
    "aut_group",
    "aut_group_order",
    "brute_force_isomorphic",
    "build_quasigroup",
    "centralizer",
    "classify_representatives",
    "combine_coprime",
    "conjugacy_class_reps",
    "cq_cyclic_prime_power",
    "cq_mq_of_order",
    "cyclic_group",
    "cyclic_prime_power_report",
    "direct_pair_orbit_count",
    "direct_product",
    "endo_from_gen_images",
    "enumerate_group",
    "group_report",
    "identity",
    "is_isomorphic_affine",
    "is_latin",
    "is_medial",
    "make_group",
    "one_minus",
    "parse_group",
    "scalar_endo",
    "trivial_group",
]
