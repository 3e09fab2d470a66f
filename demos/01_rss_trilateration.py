"""RSS ranging and trilateration, step by step.

A target node sits in a 100 m x 100 m field with four anchors. Each
anchor measures received signal strength, converts it to a distance
through the log-normal path-loss model, and the toolkit solves the
stacked line-of-position system with three different estimators.

Run:  python demos/01_rss_trilateration.py
"""

import numpy as np

from wsnloc.channel import (
    ChannelModel,
    invert_distance,
    path_loss,
    sigma_from_snr,
    wavelength_from_frequency,
)
from wsnloc.geometry import build_lop_system, distance
from wsnloc.rss import huber_irls, ls_solve, wls_solve, wls_weights

rng = np.random.default_rng(2024)

# ---------------------------------------------------------------------------
# The channel: 1 GHz carrier, free-space exponent, moderate shadowing.
# ---------------------------------------------------------------------------
wavelength = wavelength_from_frequency(1e9)
model = ChannelModel(d0=1.0, eta=2.0, sigma_db=2.0, wavelength=wavelength)
print(f"carrier wavelength: {wavelength:.4f} m, shadowing sigma: {model.sigma_db} dB")

# Anchors ordered so the one closest to the target comes last: the
# line-of-position rows difference every anchor against the final one,
# and a quiet reference keeps the weighted solver discriminating.
anchors = np.array([[100.0, 0.0], [0.0, 100.0], [100.0, 100.0], [0.0, 0.0]])
target = np.array([10.0, 15.0])

# ---------------------------------------------------------------------------
# One measurement round: path loss in, distance estimate out.
# ---------------------------------------------------------------------------
true_d = np.array([distance(a, target) for a in anchors])
losses = path_loss(true_d, model, rng)  # one shadowing draw per anchor, in anchor order
est_d = invert_distance(losses, model)
print("\nanchor      true d     est d      path loss")
for a, d, d_hat, pl in zip(anchors, true_d, est_d, losses):
    print(f"({a[0]:5.1f},{a[1]:5.1f})  {d:7.2f} m  {d_hat:7.2f} m  {pl:7.2f} dB")

system = build_lop_system(anchors, est_d)
weights = wls_weights(model, est_d)

fixes = {
    "LS": ls_solve(system),
    "WLS": wls_solve(system, weights),
    "Huber": huber_irls(system, epsilon=1.345, initial_weights=weights).position,
}
print("\nsingle-shot fixes:")
for name, fix in fixes.items():
    print(f"  {name:6s} ({fix[0]:6.2f}, {fix[1]:6.2f})  error {distance(fix, target):5.2f} m")

# ---------------------------------------------------------------------------
# RMSE vs SNR: the shadowing std shrinks as the SNR grows, so every
# estimator improves; the weighted solvers pull ahead when anchor
# distances are strongly unequal (the target hugs one corner here).
# ---------------------------------------------------------------------------
print("\nRMSE vs SNR over 200 trials (heterogeneous anchor distances):")
print("snr_db     LS        WLS      Huber")
for snr in (2, 6, 10, 14):
    noisy = ChannelModel(
        d0=1.0, eta=2.0, sigma_db=sigma_from_snr(snr, 8.0), wavelength=wavelength
    )
    errs = {k: [] for k in fixes}
    trial_rng = np.random.default_rng(snr)
    for _ in range(200):
        d_hat = invert_distance(path_loss(true_d, noisy, trial_rng), noisy)
        sys_t = build_lop_system(anchors, d_hat)
        w = wls_weights(noisy, d_hat)
        errs["LS"].append(distance(ls_solve(sys_t), target))
        errs["WLS"].append(distance(wls_solve(sys_t, w), target))
        errs["Huber"].append(
            distance(huber_irls(sys_t, epsilon=1.345, initial_weights=w).position, target)
        )
    rmse = {k: np.sqrt(np.mean(np.square(v))) for k, v in errs.items()}
    print(f"{snr:4d}   {rmse['LS']:8.2f} {rmse['WLS']:8.2f} {rmse['Huber']:8.2f}")

print("\nWLS and Huber track each other; LS pays for treating all ranges equally.")
