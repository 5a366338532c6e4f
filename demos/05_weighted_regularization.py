"""The frequency-weighted penalty and what lambda buys.

The weight curve W concentrates where leakage and target are comparable,
which is exactly where equalization effort is wasted: the vent already
delivers the sound. Cranking lambda up trades fit residual for a smaller
weighted seminorm, and past a point the on-scene distance starts to rise.
"""

import numpy as np

from eqdesign.design import (
    DesignConfig,
    default_fft_size,
    design_filter,
    frequency_weights,
    reduce_to_rtf,
    _penalty_block,
)
from eqdesign.evaluation import evaluate
from eqdesign.scenario import SynthSpec, forward_path_ir, synth_scenario
from eqdesign.signals import FrequencyGrid

RATE = 16000.0

scene = synth_scenario(
    SynthSpec(num_sets=1, num_loudspeakers=1, reinsertion_level_db=None), seed=0
)
ms = scene.sets[0]
g = forward_path_ir(0.0, 0, RATE)
grid = FrequencyGrid(default_fft_size(ms.speaker_length, 99), RATE)

ratio, w = frequency_weights(ms, g, 1.0, grid)
peak = int(np.argmax(w))
print(f"leakage ratio spans {ratio.min():.3f}..{ratio.max():.3f}")
print(f"weight peaks at {grid.frequencies_hz[peak]:.0f} Hz "
      f"where the ratio is {ratio[peak]:.3f}\n")

system = reduce_to_rtf(ms, g, 99, 0)
penalty = _penalty_block(w, 99, grid.fft_size)  # one loudspeaker, one block

print("   lambda   residual   seminorm   distance_db")
for lam in (1e-8, 1e-4, 1e-2, 0.1, 1.0, 10.0):
    config = DesignConfig(variant="FR_DELTA_LS", filter_length=99,
                          acausal_delay=0, reg_lambda=lam)
    filt = design_filter(scene, g, config)
    a = filt.coefficients.ravel()
    residual = np.linalg.norm(system.matrix @ a - system.target)
    seminorm = np.sqrt(a @ penalty @ a)
    dist = evaluate(scene, g, filt, config).delta_h_aud_db[0]
    print(f"{lam:9.0e}   {residual:.5f}    {seminorm:8.4f}   {dist:.4f}")
