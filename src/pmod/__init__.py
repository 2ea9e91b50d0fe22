"""Exact computations on finitely presented multiparameter persistence
modules: interleaving decision and distance, one-parameter barcodes and
bottleneck distance, minimal presentations, and compatible presentation
pairs built from interleaving witnesses.
"""

from .scalars import FieldSpec, RATIONALS, FieldMismatch
from .grading import (Grade, grade_leq, grade_shift, check_epsilon,
                      parse_rational, parse_grade, format_grade,
                      DimensionMismatch)
from .freemod import (GradedSet, HomogeneousElement, MorphismMatrix,
                      make_element, apply, compose, span_membership,
                      PatternViolation, BasisMismatch)
from .presentation import (Presentation, ParseError, GradeOrderViolation,
                           parse, serialize, minimize, box_interval)
from .onedim import (Interval, PersistenceDiagram, NotOneParameter, barcode,
                     bottleneck_candidates, diagram_bottleneck, diagram_of,
                     format_extended, INF)
from .interleave import (InterleavingProblem, InterleavingWitness,
                         UnsupportedField, BudgetExceeded, DEFAULT_BUDGET,
                         check_closure, is_interleaved,
                         export_quadratic_system)
from .distance import (CandidateSet, candidate_set, diagonal_lower_bound,
                       interleaving_distance, is_isomorphic)
from .characterize import (CompatiblePair, InvalidWitness,
                           compatible_presentations, induced_presentations,
                           verify_compatible, serialize_pair,
                           combined_basis)

__version__ = "0.1.0"
