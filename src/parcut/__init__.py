"""parcut: optimal equal-spaced parallel cuts of convex polygons.

Given a convex m-gon P and a piece count n, finds the critical radius
rho with width(P^rho) = 2 n rho, the cut direction (always an edge
normal), and the n-1 equally spaced cuts that minimize the largest piece
inradius.  `solve` finds P's incenter with one LP, then descends from
every row to the rows alive at rho, each step a closed-form root per
edge and one convex hull, and reads rho off the last step; the per-edge
diagnostics, two float arrays indexed by edge, come from the same rows.
The paper's Dobkin-Kirkpatrick style facet-peeling hierarchy, which
deletes only facets of at most 11 vertices, is exported for direct use
with its polylogarithmic LP queries, each step of which scans one such
facet; a brute-force oracle cross-checks both.  The LP family's
constraint tests compare with one fixed slack, `tolerance.slack`; the
other fixed cutoffs, each named where it lives, and the few exact float
equalities are listed in the README's Numerical policy.
"""

from .errors import (
    DegenerateVertexError,
    EmptyInteriorError,
    GeometryError,
    InvalidPieceCountError,
    NonFiniteInputError,
    NonIndependentRemovalError,
    NotQualifiedError,
    OutOfRangeError,
    UnboundedError,
    VerificationFailedError,
)
from .lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult, small_lp
from .geometry import (
    HPolygon,
    canonicalize,
    diameter,
    inner_body,
    inradius_incenter,
    min_width,
    regular_polygon,
)
from .dome import Dome, Lifetimes, build_dome, facet_lifetimes
from .hierarchy import (
    Hierarchy,
    bounded_core,
    build_hierarchy,
    face_lattice,
    peel_level,
    perturb,
)
from .queries import (
    QueryStats,
    eval_fi,
    facet_max_t,
    lp_max,
    lp_max_constrained,
    lp_max_section,
    root_lp,
)
from .solver import (
    Cut,
    Diagnostics,
    Solution,
    VerificationReport,
    place_cuts,
    solve,
    verify_solution,
)
from .oracle import oracle_Mi, oracle_fi, oracle_solve, random_polygon

__version__ = "0.1.0"
