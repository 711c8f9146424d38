"""Local differential invariants of submanifold germs in Minkowski spaces.

The pipeline goes: a norm model (built-in or parsed expression) and a
2-3-jet of a graph germ feed the curvature machinery, which produces the
fundamental tensor, the spray, and the Ricci curvature along tangent
directions.  On top of that sit pointwise invariants, symmetric-pencil
classification, proposition auditors, and the worked surface example.
"""

from .curvature import (CurvatureReport, NonPDTensor, NonPDZeta,
                        reports_to_csv, ricci_expanded, ricci_expanded_batch,
                        ricci_oracle, spray_field, zeta_check)
from .example import (ExampleParams, ExampleReport, NoParamsFound,
                      build_example, find_example_params, ric_closed_form,
                      search_example, verify_example)
from .germ import Germ, adapt_germ, transform_germ
from .invariants import (AuditReport, AuditScopeError, Interval,
                         NotRuledDirection, PointInvariants, audit_codim2,
                         audit_hypersurface, audit_ruled, nullity,
                         point_invariants, point_type, sphere_grid)
from .jets import (DivisionByZeroJet, Jet4, NegativeSqrtJet, OrderExceeded)
from .minkowski import (ConeTooNarrow, NormModel, SingularDirection,
                        ValidationReport, validate_norm)
from .norm_expr import (ArityError, ExprSyntaxError, NonFiniteConstant,
                        UnknownVariable)
from .pencil import (CanonicalData, GenericityReport, NotSemisimple,
                     SingularA2, SpectralData, SymPencil, TopologyLabel,
                     UnclassifiedConfiguration, ZeroPencil, build_canonical,
                     build_from_spectral, canonical_from_spectral,
                     classify_topology, common_zero_search, genericity_check,
                     pencil_type, spectral_split, type_exact, type_sampled)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
