"""The exact integer backbone of the certificate for phi > 0.

phi(x) = (9 - 24 x^2) cos x - 9 cos 3x - 4x sin 3x expands into an
alternating series 3 * sum (-1)^n T_n x^(2n)/(2n)! whose positivity on
(0, pi/2] reduces to integer facts about T_n.  The expansion itself is
proved for every n as a polynomial identity in n and E = 9^n.  Everything
here is exact big-integer arithmetic until the final interval evaluation.
Run:

    python demos/03_lemma_walkthrough.py
"""

from tancert import (
    CertifyConfig,
    Interval,
    certify,
    half_pi_enclosure,
    near_zero_proof,
    replay_identity,
    t_seq,
    u_seq,
    verify_shift_identities,
)
from tancert.certifier import form_series
from tancert.sequences import _T, _phi_series_coeffs


def show(poly) -> str:
    """An element of Q[n, E] as text, highest powers first."""
    mono = lambda i, j: (f" n^{i}" if i > 1 else " n" * i) + " E" * j
    return " + ".join(f"{c}{mono(i, j)}" for (i, j), c in sorted(poly.items(), reverse=True))


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

print("\n(-1)^n (2n)! [x^(2n)] phi, term by term from the Taylor series of cos and sin:")
print(f"  {show(_phi_series_coeffs())}")
print(f"  3 T_n = {show({key: 3 * c for key, c in _T.items()})}")
replay_identity("lemma_phi_series")  # raises IdentityViolation on a nonzero remainder
print("  equal in Q[n, E], E = 9^n: the expansion holds for every n")

# the certificate builds lemma_phi's series from its catalog string, which
# writes cos 3x and sin 3x by the triple-angle formulas
hp = half_pi_enclosure()
series = form_series("lemma_phi", "zero", 48, hp.hi)
print("\ninterval evaluation of lemma_phi's catalog series at degree 48:")
for xv in (0.5, 1.0, 1.5):
    print(f"  x={xv}: {series.eval(Interval.point(xv))}")

print(f"\nat pi/2 the series pins down phi = 2*pi: {series.eval(hp)}")

cfg = CertifyConfig()
cert = certify("lemma_phi", cfg)
order = near_zero_proof("lemma_phi", cfg.delta, cfg.degree).order
print(
    f"\ncertify lemma_phi -> {cert.status} "
    f"({cert.stats.box_count} boxes, near-zero order {order})"
)
