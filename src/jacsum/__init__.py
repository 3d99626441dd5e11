"""Exact verification of Jacobsthal-number identities and rigorous
enclosure of the four reciprocal series built on them.

All arithmetic on any decision path is exact (integers and rationals);
floor/ceiling claims about series limits are decided through adaptive
interval refinement, never through floating point.
"""

from .identities import (
    IdentityResult,
    check_cassini,
    check_lemma_1_1,
    check_lemma_1_2,
    check_lemma_1_4,
    check_lemma_1_5,
    check_step_2_1,
    check_step_2_2,
    check_step_3_1,
    check_step_3_3,
    identity_sweep,
)
from .intervals import (
    NotInvertibleError,
    RatInterval,
    ceil_decide,
    floor_decide,
    interval_reciprocal,
    rat_str,
)
from .sequence import (
    jacobsthal,
    jacobsthal_closed_form,
    jacobsthal_poly,
    jacobsthal_range,
)
from .series import (
    Enclosure,
    InverseEnclosure,
    NeedMoreTermsError,
    SeriesFamily,
    SeriesSpec,
    enclose_inverse,
    enclose_sum,
    enclosures,
    partial_sum,
    series_term,
    tail_bound,
)
from .theorems import (
    Status,
    Verdict,
    default_variant,
    verify_cor_3_2,
    verify_range,
    verify_thm_2_1,
    verify_thm_2_2,
    verify_thm_3_1,
    verify_thm_3_3,
)

__version__ = "0.1.0"
