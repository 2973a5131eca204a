"""The exact integer backbone of the certificate for phi > 0.

phi(x) = (9 - 24 x^2) cos x - 9 cos 3x - 4x sin 3x expands into an
alternating series 3 * sum (-1)^n T_n x^(2n)/(2n)! whose positivity on
(0, pi/2] reduces to integer facts about T_n.  Everything here is exact
big-integer arithmetic until the final interval evaluation.  Run:

    python demos/03_lemma_walkthrough.py
"""

from tancert import (
    CertifyConfig,
    Interval,
    certify,
    half_pi_enclosure,
    near_zero_proof,
    phi_trig_enc,
    t_seq,
    u_seq,
    verify_shift_identities,
)
from tancert.sequences import phi_power_series

print("the coefficient sequence starts flat and then explodes:")
for n in range(8):
    print(f"  T_{n} = {int(t_seq(n))}")

print("\nterm decrease on (0, sqrt 3] is equivalent to U_n > 0:")
for n in (4, 5, 10, 50):
    rec, closed = u_seq(n)
    assert rec == closed
    print(f"  U_{n} = {rec}  (recombination and closed form agree exactly)")

report = verify_shift_identities(200)
print("\nshifted closed forms, expanded coefficient-by-coefficient:")
print(f"  B(n+1) -> {report.b_shift_coeffs}")
print(f"  A(n+4) -> {report.a_shift_coeffs}")
print(f"  positivity for every n >= 4 follows: {report.shifted_coeffs_imply_positivity}")

# the lemma's closed-form series at degree 48; the lemma_phi certificate
# builds the same coefficients from its catalog string
hp = half_pi_enclosure()
series = phi_power_series(48, hp.hi)
print("\ninterval evaluation of phi, series vs direct trig form:")
for xv in (0.5, 1.0, 1.5):
    x = Interval.point(xv)
    print(f"  x={xv}: series {series.eval(x)}")
    print(f"          direct {phi_trig_enc(x)}")

print(f"\nat pi/2 the series pins down phi = 2*pi: {series.eval(hp)}")

cfg = CertifyConfig()
cert = certify("lemma_phi", cfg)
order = near_zero_proof("lemma_phi", cfg.delta, cfg.degree).order
print(
    f"\ncertify lemma_phi -> {cert.status} "
    f"({cert.stats.box_count} boxes, near-zero order {order})"
)
