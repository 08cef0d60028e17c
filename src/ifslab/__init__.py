"""Self-similar sets on the line: exact similarity algebra, entropy
dimension of dyadic measures, action-map convolutions, certified affine
embeddings with their renormalization families, and exact logarithmic
commensurability arithmetic."""

__version__ = "0.1.0"

from .similarity import (IFS, IDENTITY, Interval, Similarity, Word,
                         as_fraction, attractor_hull, compose, cylinder_cover,
                         cylinder_map, invert)
from .dimension import (SeparationCertificate, check_osc_hull,
                        similarity_dimension, ssc_gap)
from .measures import (DyadicMeasure, EntropyCurve, ParamMeasure,
                       act_convolve, entropy_dimension, pushforward,
                       self_similar_measure, shannon_entropy)
from .embedding import (CoverageReport, EmbeddingVerdict, RenormEntry,
                        RenormalizationFamily, fractional_orbit,
                        renormalize_family, self_embedding_family,
                        verify_embedding)
from .commensurability import (CommensurabilityResult, ExponentMatrix,
                               PisotVerdict, conjecture_exponents,
                               continued_fraction, is_pisot,
                               log_commensurable)
from .errors import (IfslabError, InvalidParameterError, InvalidWordError,
                     PreconditionError)

__all__ = [name for name in dir() if not name.startswith("_")]
