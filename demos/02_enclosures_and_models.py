"""The entire building blocks: cos, sinc and the sine defect ratio.

The certifier never divides inside a certificate: every form is built
from functions that stay entire on [0, pi/2], and tan appears only with
its cos cleared away.  The direct enclosures shown first evaluate their
truncated Taylor series with a certified remainder; the exact series
behind every certificate margin is written in closed form from the
Taylor series of cos(kx) and sin(kx), once the form is linearized.  Run:

    python demos/02_enclosures_and_models.py
"""

import math

from tancert import Interval, cos_enc, half_pi_enclosure, p_enc, sinc_enc
from tancert.certifier import CATALOG, eval_form, form_series

x = Interval.point(1.0)
print("at x = 1:")
print(f"  cos   in {cos_enc(x)}")
print(f"  sinc  in {sinc_enc(x)}")
print(f"  p     in {p_enc(x)}        # p = (sin x - x cos x)/x^3")

print("\nremovable singularities are genuinely removable:")
zero = Interval.point(0.0)
print(f"  sinc(0) in {sinc_enc(zero)}   (== 1)")
print(f"  p(0)    in {p_enc(zero)}   (== 1/3)")

hp = half_pi_enclosure()
print(f"\nand the endpoint is no trouble either: p(pi/2) in {p_enc(hp)}")
print(f"  (the exact value is (2/pi)^3 = {(2 / math.pi) ** 3:.12f})")

spec = CATALOG["main_upper"]
series = form_series(spec.id, "zero", 16, hp.hi)
print(f"\nthe exact series at 0 of main_upper's form {spec.entire_form}:")
for k in range(0, 9, 2):
    print(f"  x^{k}: {series.coeffs[k]}")
print(f"  tail coefficient of x^17: {series.tail:.3e}, valid out to pi/2")
box = Interval(1.0, 1.25)
print(f"  a box margin, Q(X) with Q = F/x^4 > 0 where F > 0: over {box} it is {eval_form(spec.id, box)}")
