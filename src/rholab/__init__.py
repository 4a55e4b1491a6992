"""Exact anticoncentration toolkit over prime fields.

Core objects: exact signed-sum distributions and their largest atoms (rho),
level sets and frequency containers, randomized container certificates, the
iterative fibre partition, and exact/Monte-Carlo singularity experiments for
random symmetric sign matrices.
"""

from .anticoncentration import (
    ExactDistribution,
    RhoResult,
    cauchy_davenport_check,
    distribution_zp,
    halasz_bound,
    halasz_chain,
    halasz_first_bound,
    halasz_second_bound,
    rho,
    rho_half,
    rho_int,
    sumset_level_check,
)
from .containers import (
    ContainerSet,
    container,
    frequency_set,
    gen_gap_vector,
    lemma_contain_check,
    level_set,
)
from .errors import (
    DependentBasis,
    GuardExceeded,
    PreconditionViolated,
    RangeTooLarge,
    RetryExhausted,
    SingularMatrix,
    VectorParseError,
)
from .fibres import FibreTrace, audit_trace, fibre_count_bound, run_fibre
from .inverse_lo import (
    DESK_PROFILE,
    PAPER_PROFILE,
    ConstantsProfile,
    ContainerCertificate,
    build_container,
    verify_certificate,
)
from .matrix_lab import (
    adjugate_rank1_check,
    block_probability_exact,
    decoupling_identity_check,
    decoupling_probability_check,
    det_bareiss,
    det_exact,
    match_probability_exact,
    odlyzko_check,
    q_exact,
    rank_mod_p,
    singularity_exact,
    singularity_mc_sharded,
)
from .rng import substream
from .zp_core import (
    PrimeModulus,
    ZpVector,
    next_prime,
    term_weight,
)

__version__ = "0.1.0"
