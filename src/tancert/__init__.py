"""tancert: machine-checkable certificates for sharp tangent inequalities.

The package proves, in outward-rounded interval arithmetic, strict
inequalities for tan on (0, pi/2) — among them

    x + x^2 tan(x)/3  <  tan x  <  x + x^(9/5) tan(x)^(6/5) / 3

with the exponent pair (1, 6/5) being optimal — alongside the classical
Becker-Stark and cubic-correction bounds, and reproduces the sharpness
numerics (crossover points, exponent-ratio limits).
"""

from . import errors  # tiny, and every other module imports it

__version__ = "0.1.0"

# The proof identities that `sequences.replay_identity` proves exactly, named
# here so the CLI parser can offer them without importing `sequences`.
REPLAY_IDENTITIES = ("eq22_factorization", "eq24_quotient", "thm_a_h_prime", "lemma_phi_series")

# Every public name, by the module that defines it.  A module is imported
# when one of its names is first read, so `import tancert` loads only
# `errors`, a certify or check process loads only what it runs, and
# `sequences` and `analysis` (which loads mpmath, about 40 ms) load only
# when used.
_EXPORTS = {
    "interval": (
        "Interval int_pow pi_enclosure half_pi_enclosure rational_enclosure "
        "certainly_positive certainly_negative split"
    ),
    "enclosures": "cos_enc sinc_enc p_enc",
    "sequences": (
        "t_seq u_seq a_seq b_seq SeqTerm seq_term verify_shift_identities "
        "ShiftIdentityReport replay_identity"
    ),
    "certifier": (
        "CATALOG InequalitySpec CertifyConfig Certificate BoxRecord EndpointProof "
        "CheckResult eval_form near_zero_proof near_half_pi_proof certify "
        "check_certificate save_certificate load_certificate"
    ),
    "analysis": (
        "exponent_ratio optimality_scan crossover_upper crossover_lower "
        "RatioSample ScanReport CrossoverResult"
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_ORIGIN, "errors"]


def __getattr__(name):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ with a fromlist returns the submodule itself, and unlike
    # importlib.import_module it loads nothing more
    value = getattr(__import__(f"{__name__}.{_ORIGIN[name]}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
