"""tancert: machine-checkable certificates for sharp tangent inequalities.

The package proves, in outward-rounded interval arithmetic, strict
inequalities for tan on (0, pi/2) — among them

    x + x^2 tan(x)/3  <  tan x  <  x + x^(9/5) tan(x)^(6/5) / 3

with the exponent pair (1, 6/5) being optimal — alongside the classical
Becker-Stark and cubic-correction bounds, and reproduces the sharpness
numerics (crossover points, exponent-ratio limits).
"""

from .interval import (
    Interval,
    certainly_negative,
    certainly_positive,
    half_pi_enclosure,
    int_pow,
    pi_enclosure,
    rational_enclosure,
    split,
)
from .enclosures import cos_enc, p_enc, sinc_enc
from .sequences import (
    SeqTerm,
    ShiftIdentityReport,
    a_seq,
    b_seq,
    phi_trig_enc,
    seq_term,
    t_seq,
    u_seq,
    verify_shift_identities,
)
from .certifier import (
    CATALOG,
    InequalitySpec,
    BoxRecord,
    Certificate,
    CertifyConfig,
    CheckResult,
    EndpointProof,
    certify,
    check_certificate,
    eval_form,
    load_certificate,
    near_half_pi_proof,
    near_zero_proof,
    save_certificate,
)
from . import errors

__version__ = "0.1.0"

# `analysis` loads mpmath (about 40 ms), which certify and check never use,
# so its names are imported on first access.
_ANALYSIS_EXPORTS = {
    "CrossoverResult",
    "RatioSample",
    "ReplayReport",
    "ScanReport",
    "crossover_lower",
    "crossover_upper",
    "exponent_ratio",
    "optimality_scan",
    "replay_identity",
}


def __getattr__(name):
    if name in _ANALYSIS_EXPORTS:
        from . import analysis

        return getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Interval",
    "int_pow",
    "pi_enclosure",
    "half_pi_enclosure",
    "rational_enclosure",
    "certainly_positive",
    "certainly_negative",
    "split",
    "cos_enc",
    "sinc_enc",
    "p_enc",
    "t_seq",
    "u_seq",
    "a_seq",
    "b_seq",
    "SeqTerm",
    "seq_term",
    "verify_shift_identities",
    "ShiftIdentityReport",
    "phi_trig_enc",
    "CATALOG",
    "InequalitySpec",
    "CertifyConfig",
    "Certificate",
    "BoxRecord",
    "EndpointProof",
    "CheckResult",
    "eval_form",
    "near_zero_proof",
    "near_half_pi_proof",
    "certify",
    "check_certificate",
    "save_certificate",
    "load_certificate",
    "exponent_ratio",
    "optimality_scan",
    "crossover_upper",
    "crossover_lower",
    "replay_identity",
    "RatioSample",
    "ScanReport",
    "CrossoverResult",
    "ReplayReport",
    "errors",
]
