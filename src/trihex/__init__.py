"""Exact enumeration and counting of trihexes.

A trihex is a 3-regular planar graph whose faces all have 3 or 6 sides.
This package identifies trihexes by integer signatures, counts them with
closed-form multiplicative formulas, enumerates them constructively, and
realizes them as explicit embedded graphs for cross-verification.
"""

from .counting import CountReport, delta, gamma, mu, nu, report, rot_classes, sigma, trihex_count
from .enumeration import (
    EnumerationResult,
    all_signatures,
    coinciding_signatures,
    graph_class_reps,
    self_mirror_signatures,
    trihex_reps,
    verify,
    verify_graphs,
)
from .errors import InternalInconsistencyError, VerificationFailureError
from .graph import (
    CanonicalCode,
    EmbeddedGraph,
    build,
    canonical_code,
    export,
    face_census,
    faces,
    mirror_image,
)
from .numtheory import CongruenceSolutions, Factorization, divisors, factorize, omega_count, solve_fast
from .signature import (
    Signature,
    canonical_rep,
    has_mirror_symmetry,
    hexagon_count,
    is_coinciding,
    mirror,
    orbit,
    parse_signature,
    vertex_count,
)

__all__ = [
    "CanonicalCode",
    "CongruenceSolutions",
    "CountReport",
    "EmbeddedGraph",
    "EnumerationResult",
    "Factorization",
    "InternalInconsistencyError",
    "Signature",
    "VerificationFailureError",
    "all_signatures",
    "build",
    "canonical_code",
    "canonical_rep",
    "coinciding_signatures",
    "delta",
    "divisors",
    "export",
    "face_census",
    "faces",
    "factorize",
    "gamma",
    "graph_class_reps",
    "has_mirror_symmetry",
    "hexagon_count",
    "is_coinciding",
    "mirror",
    "mirror_image",
    "mu",
    "nu",
    "omega_count",
    "orbit",
    "parse_signature",
    "report",
    "rot_classes",
    "self_mirror_signatures",
    "sigma",
    "solve_fast",
    "trihex_count",
    "trihex_reps",
    "verify",
    "verify_graphs",
    "vertex_count",
]

__version__ = "0.1.0"
