"""Exact-arithmetic toolkit for the element-order-sum exclusion method on
Lehmer's totient problem: factorization and multiplicative functions,
Carmichael certification, symbolic group order-sums, the inequality catalog,
per-candidate multiplier floors, and a checkpointed range scanner.
"""

from .arith import (
    DomainError,
    Factorization,
    PrimalityResult,
    approx_str,
    euler_phi,
    factor,
    fraction_str,
    is_prime,
    is_squarefree,
    primality,
    sigma,
)
from .bounds import (
    BoundReport,
    check_bounds,
    nilpotent_lower_bound,
    upper_coefficient,
    witness_lower_bound,
)
from .carmichael import (
    CarmichaelCertificate,
    carmichael_in_range,
    korselt_check,
)
from .engine import (
    GENERIC_PROFILE,
    LehmerProfile,
    LehmerVerdict,
    MinKResult,
    abundancy_bound,
    certified_close,
    chain_upper,
    exclude_k,
    k_ladder,
    ladder_condition,
    lehmer_check,
    make_profile,
    min_k,
    profile_from_factorization,
    two_power_threshold,
    witness_double_prime,
    witness_group,
)
from .groups import (
    Cyclic,
    Dihedral,
    GroupSpec,
    OrderSpectrum,
    Product,
    Quaternion8,
    order_spectrum,
    parse_group_spec,
    product,
    psi,
    psi_cyclic,
)
from .scan import (
    CheckpointError,
    ConstantCheck,
    CounterexampleFound,
    ScanCheckpoint,
    batch_verdicts,
    read_checkpoint,
    scan_totient_divisibility,
    verify_constants,
    write_checkpoint,
)

__version__ = "0.1.0"
