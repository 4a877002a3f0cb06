"""Exact enumeration and counting of trihexes.

A trihex is a 3-regular planar graph whose faces all have 3 or 6 sides.
This package identifies trihexes by integer signatures, counts them with
closed-form multiplicative formulas, enumerates them constructively, and
realizes them as explicit embedded graphs for cross-verification.
"""

from .counting import CountReport, report
from .enumeration import (
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
    build,
    canonical_code,
    export,
    face_census,
    faces,
    has_code,
    mirror_image,
    validate,
)
from .numtheory import divisors, factorize, omega_count, solve_fast
from .signature import (
    Signature,
    canonical_offsets,
    canonical_rep,
    has_mirror_symmetry,
    is_coinciding,
    mirror,
    orbit,
    parse_signature,
    vertex_count,
)

__all__ = [
    "CanonicalCode",
    "CountReport",
    "InternalInconsistencyError",
    "Signature",
    "VerificationFailureError",
    "all_signatures",
    "build",
    "canonical_code",
    "canonical_offsets",
    "canonical_rep",
    "coinciding_signatures",
    "divisors",
    "export",
    "face_census",
    "faces",
    "factorize",
    "graph_class_reps",
    "has_code",
    "has_mirror_symmetry",
    "is_coinciding",
    "mirror",
    "mirror_image",
    "omega_count",
    "orbit",
    "parse_signature",
    "report",
    "self_mirror_signatures",
    "solve_fast",
    "trihex_reps",
    "validate",
    "verify",
    "verify_graphs",
    "vertex_count",
]

__version__ = "0.1.0"
