"""Additive triples (a, b, a+b) in A x B x B over Z_p.

Count them four independent ways, bound the count in closed form, construct
witness sets achieving any admissible count, and enumerate the full spectrum
of attainable counts, including the exceptional values that appear for
composite odd moduli.
"""

from .bounds import (
    BoundsResult,
    InequalityCheck,
    bounds_for,
    cauchy_davenport_check,
    lower_bound,
    pollard_check_sweep,
    pollard_lower_at,
    schur_lower_bound,
    schur_upper_bound,
    upper_bound,
)
from .construction import (
    ConstructionWitness,
    ShiftProfile,
    UnattainableTargetError,
    build_shift_profile,
    construct,
    extreme_sums,
    partial_sum_largest,
    partial_sum_smallest,
    shift_overlap,
)
from .counting import (
    LayerDecomposition,
    complement_identity_rhs,
    count_convolution,
    count_layers,
    count_naive,
    count_shift,
    count_triples,
    layer_sizes,
    layers,
)
from .residues import (
    DomainError,
    IncompatibleSetsError,
    InvalidModulusError,
    Params,
    ResidueSet,
    VerificationError,
    empty_set,
    full_set,
    interval_set,
    is_prime,
    make_set,
    primes_up_to,
)
from .spectrum import (
    BudgetExceededError,
    ExceptionRecord,
    ScanResult,
    SpectrumReport,
    exception_scan,
    schur_spectrum,
    spectrum_exhaustive,
    spectrum_fixed_interval,
    spectrum_multiset_dp,
)
from .verify import VerifyReport, run_verification

__version__ = "0.1.0"
