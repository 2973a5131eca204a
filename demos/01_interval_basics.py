"""A tour of intervals and of the one rounding from exact to float.

Every rigorous number in this package ends as an Interval: a pair of
binary64 floats guaranteed to bracket the exact real value.  The margins
that certify and check compute are exact rationals until
`rational_enclosure` rounds them outward once.  Run:

    python demos/01_interval_basics.py
"""

from fractions import Fraction

from tancert import Interval, int_pow, pi_enclosure, rational_enclosure, split

print("== exact endpoints stay exact ==")
a = Interval(1, 2)
b = Interval(-3, 4)
print(f"[1,2] * [-3,4]          = {a * b}   (endpoint products are exact)")
print(f"[0,0] + [0.1, 0.7]      = {Interval(0, 0) + Interval(0.1, 0.7)}")

print("\n== an exact rational rounds outward once ==")
third = rational_enclosure(Fraction(1, 3))
print(f"1/3 encloses the true value in {third}")
print(f"   width = {third.width:.3e} (<= 2 ulp); contains Fraction(1,3): "
      f"{third.lo <= Fraction(1, 3) <= third.hi}")
print(f"   past the largest float: {rational_enclosure(10**400)}")

print("\n== constants are stored validated enclosures ==")
pi = pi_enclosure()
print(f"pi  = {pi}  (width {pi.width:.2e})")
print(f"2/15 -> {rational_enclosure(Fraction(2, 15))}")

print("\n== powers fold signs; splitting drives bisection ==")
print(f"[-2,1]^2 = {int_pow(Interval(-2, 1), 2)}   (even powers fold the sign)")
left, right = split(Interval(0, 2))
print(f"split([0,2]) = {left}, {right}")

print("\nEnclosure contract: for a in A and b in B, op(a,b) is always inside")
print("op(A,B).  The test suite hammers this with a million random checks.")
