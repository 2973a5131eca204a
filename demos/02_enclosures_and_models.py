"""The entire building blocks: cos, sinc, the sine defect ratio, and tan.

The certifier never divides inside a certificate: everything is built
from functions that stay entire on [0, pi/2], enclosed by truncated
series plus certified remainders.  tan itself is only ever the quotient
sinc(x) * x / cos(x), used by the exploratory analysis.  Run:

    python demos/02_enclosures_and_models.py
"""

import math

from tancert import (
    Interval,
    cos_enc,
    half_pi_enclosure,
    p_enc,
    r_enc,
    s_enc,
    sinc_enc,
    tan_enc,
)

x = Interval.point(1.0)
print("at x = 1:")
print(f"  cos   in {cos_enc(x)}")
print(f"  sinc  in {sinc_enc(x)}")
print(f"  p     in {p_enc(x)}        # p = (sin x - x cos x)/x^3")
print(f"  tan   in {tan_enc(x)}")

print("\nremovable singularities are genuinely removable:")
zero = Interval.point(0.0)
print(f"  sinc(0) in {sinc_enc(zero)}   (== 1)")
print(f"  p(0)    in {p_enc(zero)}   (== 1/3)")
print(f"  r(0)    in {r_enc(zero)}   # (tan x - x)/x^3 -> 1/3")
print(f"  s(0)    in {s_enc(zero)}   # tan x / x -> 1")

hp = half_pi_enclosure()
print(f"\nand the endpoint is no trouble either: p(pi/2) in {p_enc(hp)}")
print(f"  (the exact value is (2/pi)^3 = {(2 / math.pi) ** 3:.12f})")
