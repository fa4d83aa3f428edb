"""parcut: optimal equal-spaced parallel cuts of convex polygons.

Given a convex m-gon P and a piece count n, finds the critical radius
rho with width(P^rho) = 2 n rho, the cut direction (always an edge
normal), and the n-1 equally spaced cuts that minimize the largest piece
inradius.  `solve` reads every edge lifetime off one collapse sweep of
the 3-D dome of P and solves for rho in closed form inside the bracket
of lifetimes where it lies; the per-edge diagnostics come from the same
bracket.  The paper's Dobkin-Kirkpatrick style facet-peeling hierarchy,
with its polylogarithmic LP queries, is exported for direct use; a
brute-force oracle cross-checks both.
"""

from .errors import (
    DegenerateVertexError,
    EmptyInteriorError,
    GeometryError,
    InvalidPieceCountError,
    NonFiniteInputError,
    NonIndependentRemovalError,
    NotPlanarError,
    NotQualifiedError,
    OutOfRangeError,
    UnboundedError,
    VerificationFailedError,
)
from .tolerance import DEFAULT_TOL, Tol
from .lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult, small_lp
from .geometry import (
    HPolygon,
    VPolygon,
    WidthResult,
    canonicalize,
    diameter,
    directional_width,
    inner_body,
    inradius_incenter,
    min_width,
    regular_polygon,
)
from .dome import Dome, Lifetimes, build_dome, facet_lifetimes
from .hierarchy import (
    BoundedCore,
    FaceLattice,
    Hierarchy,
    bounded_core,
    build_hierarchy,
    face_lattice,
    peel_level,
    perturb,
    pick_color,
    six_color,
)
from .queries import (
    QueryStats,
    eval_fi,
    facet_max_t,
    lp_max,
    lp_max_constrained,
    lp_max_facet,
    lp_max_section,
    root_lp,
)
from .solver import (
    Cut,
    FacetDiagnostics,
    Solution,
    VerificationReport,
    place_cuts,
    solve,
    verify_solution,
)
from .oracle import OracleConfig, oracle_Mi, oracle_fi, oracle_solve, random_polygon

__version__ = "0.1.0"
