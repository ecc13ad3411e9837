"""Frame-theoretic analysis, scoring and sparse inference for layered architectures.

A layered architecture induces one global overcomplete frame whose
blocks are the layer operators. This package builds that frame, measures
its quality (frame potential, mutual coherence, analytic lower bounds),
minimizes the normalized potential over the parameters to score the
architecture before training, ranks candidate architectures by that
score, and runs sparse inference against the induced global objective.
"""

from .archspec import (
    ArchitectureSpec,
    SpecError,
    load_spec,
    param_count,
    parse_spec,
    serialize_spec,
)
from .coherence import (
    CoherenceReport,
    analyze,
    averaged_potential_bound,
    chain_lower_bound,
    conv_welch_bound,
    conv_welch_limit,
    frame_potential,
    mutual_coherence,
    sparsity_guarantee_thresholds,
    welch_bound,
)
from .framebuild import (
    FrameBuildError,
    GlobalFrame,
    GramStructure,
    NormalizationError,
    build_global_frame,
    conv_gram_nonzeros,
    gram,
    normalize,
)
from .inference import (
    DivergenceError,
    InferenceResult,
    UnsupportedMethodError,
    bcd_inference,
    feed_forward,
    layered_basis_pursuit,
)
from .minimize import (
    MinimizeError,
    MinimizeOptions,
    MinimizeResult,
    minimize_deep_frame_potential,
)
from .selection import Candidate, RankingReport, evaluate_candidate, rank

__version__ = "0.1.0"

__all__ = [
    "ArchitectureSpec",
    "Candidate",
    "CoherenceReport",
    "DivergenceError",
    "FrameBuildError",
    "GlobalFrame",
    "GramStructure",
    "InferenceResult",
    "MinimizeError",
    "MinimizeOptions",
    "MinimizeResult",
    "NormalizationError",
    "RankingReport",
    "SpecError",
    "UnsupportedMethodError",
    "analyze",
    "averaged_potential_bound",
    "bcd_inference",
    "build_global_frame",
    "chain_lower_bound",
    "conv_gram_nonzeros",
    "conv_welch_bound",
    "conv_welch_limit",
    "evaluate_candidate",
    "feed_forward",
    "frame_potential",
    "gram",
    "layered_basis_pursuit",
    "load_spec",
    "minimize_deep_frame_potential",
    "mutual_coherence",
    "normalize",
    "param_count",
    "parse_spec",
    "rank",
    "serialize_spec",
    "sparsity_guarantee_thresholds",
    "welch_bound",
    "__version__",
]
