"""The frequency-weighted penalty and what lambda buys.

The weight curve W concentrates where leakage and target are comparable,
which is exactly where equalization effort is wasted: the vent already
delivers the sound. The penalty is the filter's spectral energy under W.
Cranking lambda up shrinks that weighted seminorm, and past a point the
on-scene distance starts to rise.
"""

import numpy as np

from eqdesign.design import DesignConfig, design_filter
from eqdesign.evaluation import evaluate
from eqdesign.scenario import SynthSpec, forward_path_ir, synth_scenario

RATE = 16000.0

scene = synth_scenario(
    SynthSpec(num_sets=1, num_loudspeakers=1, reinsertion_level_db=None), seed=0
)
g = forward_path_ir(0.0, 0)


def seminorm(taps, w, fft_size):
    """sqrt of the weighted spectral energy of the taps, summed over all fft_size bins.

    This is the penalty's seminorm. fft_size is even, as every default grid is.
    """
    energy = (w * np.abs(np.fft.rfft(taps, fft_size))) ** 2
    # the one-sided bins stand for their mirror images too, except DC and Nyquist
    return np.sqrt((2 * energy.sum() - energy[0] - energy[-1]) / fft_size)


rows = []
for lam in (1e-8, 1e-4, 1e-2, 0.1, 1.0, 10.0):
    config = DesignConfig(variant="FR_DELTA_LS", filter_length=99,
                          acausal_delay=0, reg_lambda=lam, reg_beta=1.0)
    taps = design_filter(scene, g, config)
    rows.append((lam, taps[0], evaluate(scene, g, taps, config)))

# every lambda shares the leakage ratio V and its weight W, which eval reports
report = rows[0][2]
ratio, w = report.leakage_ratio, report.weight_trace
peak = int(np.argmax(w))
print(f"leakage ratio spans {ratio.min():.3f}..{ratio.max():.3f}")
print(f"weight peaks at {report.frequencies_hz[peak]:.0f} Hz "
      f"where the ratio is {ratio[peak]:.3f}\n")

print("   lambda   seminorm   tap_norm   distance_db")
fft_size = config.grid(scene).fft_size
for lam, a, report in rows:
    print(f"{lam:9.0e}   {seminorm(a, w, fft_size):8.4f}   {np.linalg.norm(a):8.4f}"
          f"   {report.delta_h_aud_db[0]:.4f}")
