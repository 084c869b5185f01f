"""Exact combinatorics of toric arrangements of crystallographic root systems.

Counts and classifies the layers of the arrangement defined by a root
system on its coroot torus, and computes the Euler characteristic and
Poincare polynomial of the complement, with brute-force oracles for
everything at small rank.  All arithmetic is exact.
"""

__version__ = "0.1.0"

from .errors import CapabilityError
from .rootsys import (
    AffineDiagram,
    RootSystem,
    TypeSymbol,
    affine_diagram,
    build,
    build_str,
    diagram_automorphisms,
    format_type,
    parse_type,
    type_invariants,
)
from .intlat import saturate
from .weyl import center_subgroup, longest_element
from .subsys import (
    CompleteFamily,
    Subsystem,
    enumerate_complete,
    parabolic_classes,
)
from .layers import (
    LayerClassRecord,
    PointOrbitRecord,
    count_layers,
    count_points,
    euler_characteristic,
    format_polynomial,
    layer_census,
    n_theta,
    poincare,
    point_orbits,
    verify_degree_identity,
)
from .oracle import (
    BrutePoint,
    LayerPoset,
    brute_points,
    build_poset,
    component_count,
)
