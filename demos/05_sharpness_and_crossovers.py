"""Why the exponents 1 and 6/5 are the best possible, numerically, and
the exact proofs of the identities behind them.

The ratio ExponentRatio(x) = log(3(tan x - x)/x^3) / log(tan x / x)
runs from 6/5 (at 0) down toward 1 (at pi/2), strictly inside the open
interval: no exponent pair can do better.  The crossover points locate
where these bounds beat the quartic-correction bounds; their brackets are
sign-certified through the exact series of two entire forms, as
certificate margins are.  The three identities of the paper's proof are
proved exactly in the rational functions of x, cos x and sin x.  Run:

    python demos/05_sharpness_and_crossovers.py
"""

from tancert import (
    REPLAY_IDENTITIES,
    crossover_lower,
    crossover_upper,
    exponent_ratio,
    optimality_scan,
    replay_identity,
)
from tancert.analysis import GAP_FORMS

print("exponent ratio along the interval (arbitrary precision, non-certified):")
for x in (0.01, 0.1, 0.5, 1.0, 1.3, 1.5, 1.57):
    print(f"  phi({x:5.2f}) = {exponent_ratio(x).phi:.9f}")

report = optimality_scan([0.01 + i * 1.55 / 99 for i in range(100)])
print(
    f"\n100-point scan: inf = {report.inf_phi:.6f}, sup = {report.sup_phi:.6f}, "
    f"strictly inside (1, 6/5): {report.all_inside_open_interval}"
)

print("\ncrossovers against the quartic-correction bounds (sign-certified):")
for which, form in GAP_FORMS.items():
    print(f"  gap {which} as an entire form: {form}")
up = crossover_upper(1e-4)
lo = crossover_lower(1e-4)
print(f"  upper bounds swap sharpness at x0 in {up.bracket}")
print(f"  lower bounds swap sharpness at x1 in {lo.bracket}")

print("\nproving the identities of the proof exactly, modulo cos^2 + sin^2 - 1:")
for ident in REPLAY_IDENTITIES:
    replay_identity(ident)  # raises IdentityViolation on a nonzero remainder
    print(f"  {ident:20s} lhs - rhs reduces to 0")
