"""Conditional residual coding lab: exact PMF toolkit, entropy sweeps,
theorem checks, RD envelopes, a range coder, and BD-rate analysis.

The common workflow is: build a `PixelModelParams`, look at its
`entropy_report`, and go deeper with `compare_paradigms` (RD envelopes),
`run_randomized_suite` (identity fuzzing), or `encode`/`decode` (actual
bitstreams). A joint's variables are (name, range) pairs, each range
the consecutive integer symbols of its variable. Everything is
importable from the submodules; this namespace re-exports the pieces
that workflow touches.
"""

from .errors import (
    CrLabError,
    DomainError,
    FormatError,
    InputError,
    IntegrityError,
    InternalConsistencyError,
    ModelCoverageError,
    PreconditionError,
    UsageError,
)
from .prob_core import (
    JointPMF,
    adjoin_channel,
    adjoin_difference,
    adjoin_map,
    marginalize,
    quantizer_map,
    random_pmf,
)
from .info_measures import (
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    mutual_information,
)
from .pixel_model import (
    PARADIGMS,
    EntropyReport,
    PixelModelParams,
    build_joint,
    entropy_report,
    sweep_p,
)
from .theorem_suite import (
    TheoremReport,
    check_lossless,
    check_lossy,
    replay_trial,
    run_randomized_suite,
)
from .rd_solver import (
    RDCurve,
    RDPoint,
    compare_paradigms,
    conditional_rd_curve,
    squared_error,
)
from .codec import (
    Bitstream,
    ProbabilityModel,
    build_model,
    decode,
    encode,
    expected_rate,
    measure_rate,
    sample_pairs,
)
from .analysis import (
    QualityCurve,
    bd_rate,
    bd_rate_matrix,
    mse_to_psnr,
    quality_curve_from_rd,
)

__version__ = "0.1.0"
