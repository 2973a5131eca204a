"""Produce and re-check certificates for the whole inequality catalog.

Each proof = a near-zero proof (divide out the vanishing order, bound the
quotient below), an optional near-pi/2 proof in eps = pi/2 - x, and a
gap-free list of boxes with certainly-positive margins.  A certificate
stores the config and the boxes; the config alone fixes both endpoint
proofs, which certify and check derive.  Run:

    python demos/04_certify_everything.py
"""

from tancert import CATALOG, certify, check_certificate, near_half_pi_proof, near_zero_proof

print(f"{'id':12s} {'statement':46s} {'status':10s} boxes  margin@first")
for cid, spec in CATALOG.items():
    cert = certify(cid)
    ok = check_certificate(cert)
    first = cert.boxes[0]
    print(
        f"{cid:12s} {spec.statement[:46]:46s} {cert.status:10s} "
        f"{cert.stats.box_count:5d}  {first.margin.lo:.3e}  recheck={'ok' if ok else 'FAIL'}"
    )

print("\nthe near-endpoint proofs that make open endpoints certifiable:")
cfg = certify("bs_upper").config
nz = near_zero_proof("bs_upper", cfg.delta, cfg.degree)
nh = near_half_pi_proof("bs_upper", cfg.epsilon_max, cfg.degree)
print(
    f"  bs_upper near 0:    F/x^{nz.order} >= {nz.normalized_lower_bound:.4f} on (0, {cfg.delta}]"
)
print(
    f"  bs_upper near pi/2: F/eps^{nh.order} >= {nh.normalized_lower_bound:.4f} "
    f"for eps in (0, {cfg.epsilon_max}]"
)
