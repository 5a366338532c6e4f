"""How the forward-path gain moves the leakage ratio and the weights."""

import numpy as np

from eqdesign.design import default_fft_size, frequency_weights
from eqdesign.scenario import SynthSpec, forward_path_ir, synth_scenario
from eqdesign.signals import FrequencyGrid

RATE = 16000.0

scene = synth_scenario(
    SynthSpec(num_sets=1, num_loudspeakers=1, reinsertion_level_db=None), seed=6
)
ms = scene.sets[0]
grid = FrequencyGrid(default_fft_size(ms.speaker_length, 99), RATE)

# more forward gain means the processed open-ear target towers over the
# fixed vent leakage, so the ratio drops by exactly the gain factor
print("G0_db   median_ratio   total_weight_mass")
base = None
for gain_db in (0.0, 6.0, 10.0, 20.0):
    g = forward_path_ir(gain_db, 0, RATE)
    ratio, w = frequency_weights(ms, g, 1.0, grid)
    med = float(np.median(ratio))
    if base is None:
        base = med
    print(f"{gain_db:5.1f}   {med:12.5f}   {w.sum():17.3e}")

print(f"\nratio(20 dB) / ratio(0 dB) = {med / base:.6f}  (exactly 10^-1)")
