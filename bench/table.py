"""Seeded synthetic feature table for the measured-bootstrap workload.

The table is drawn with numpy from frozen constants, never from nlosid's
simulator, so every commit measured gets the same input for a seed: a
change to the simulator cannot change what the bootstrap is fed.
"""

import numpy as np

METRICS = ("r_p", "k_t", "k_f", "tau_mean_ns", "tau_rms_ns")

# Per-class GEV parameters (gamma, mu, sigma) that the reference campaign's
# report.json fits at commit 48b5102, in nlosid's convention:
# cdf(x) = exp(-(1 + gamma * (x - mu) / sigma) ** (-1 / gamma)).
GEV = {
    "r_p": {
        "LOS": (-0.6735202346354636, 0.7016618340314753, 0.19695847044371725),
        "NLOS": (-0.41215197886510013, 0.5676623849574791,
                 0.1932395042849232)},
    "k_t": {
        "LOS": (-1.833234648313847, 502.7727162212296, 13.109314953454511),
        "NLOS": (-0.2663278044184817, 273.2584594355633, 105.35117533192296)},
    "k_f": {
        "LOS": (-0.24621404305461697, 2.214907923221088, 0.5664080387051676),
        "NLOS": (-0.15069557062182562, 2.1462570001303907,
                 0.2719132093001558)},
    "tau_mean_ns": {
        "LOS": (0.45253555620811164, 8.496731923108856, 3.4882198581910493),
        "NLOS": (-0.525973701112142, 24.81936020181393, 9.691956877816443)},
    "tau_rms_ns": {
        "LOS": (0.0659162715540351, 0.848480392671505, 0.1875192132108527),
        "NLOS": (-0.024736545793384034, 1.7371730833367949,
                 0.5612420682896815)},
}

# NLOS feature rows of each of the reference campaign's 250 realizations,
# in realization order; each also has exactly one LOS row.  No reference
# realization missed its LOS cluster (counts.los_missed is empty there), so
# every sample holds both classes.  Sample i of the table copies
# realization i, so every seed trains on the same number of rows.
NLOS_ROWS = tuple(int(c) for c in (
    "3235243646234845243253464212336333765622652442164184442127232315247322"
    "5333452254566624616335733443124423486434313545343135524344245534452474"
    "3453273424474373636346344382254143534834533315353425736252365117876253"
    "4665345329544324123222261135515651532424"))
LOS_ROWS = 1

N_SAMPLES = len(NLOS_ROWS)


def gev_quantile(u, gamma: float, mu: float, sigma: float):
    """Inverse of the GEV cdf above, for probabilities u in (0, 1)."""
    t = -np.log(u)
    if gamma == 0.0:
        return mu - sigma * np.log(t)
    return mu + sigma * (t ** -gamma - 1.0) / gamma


def synthesize(seed: int, n_samples: int = N_SAMPLES) -> list:
    """Rows of (sample id, label, {metric: value}) drawn from ``seed``.

    Sample i has the class mix of reference realization i; each row draws
    its five metrics independently from its class's fitted GEV.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for sample in range(n_samples):
        labels = ("LOS",) * LOS_ROWS + ("NLOS",) * NLOS_ROWS[sample]
        for label in labels:
            u = np.clip(rng.random(len(METRICS)), 1e-12, 1.0 - 1e-12)
            values = {m: float(gev_quantile(u[k], *GEV[m][label]))
                      for k, m in enumerate(METRICS)}
            rows.append((sample, label, values))
    return rows
