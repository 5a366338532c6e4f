"""How the forward-path gain moves the leakage ratio and the weights."""

import numpy as np

from eqdesign.design import DesignConfig, EqualizerFilter
from eqdesign.evaluation import evaluate
from eqdesign.scenario import SynthSpec, forward_path_ir, synth_scenario

RATE = 16000.0

scene = synth_scenario(
    SynthSpec(num_sets=1, num_loudspeakers=1, reinsertion_level_db=None), seed=6
)
config = DesignConfig(filter_length=99)
silent = EqualizerFilter(np.zeros((1, 99)))  # the report's V and W do not depend on the taps

# more forward gain means the processed open-ear target towers over the
# fixed vent leakage, so the ratio drops by exactly the gain factor
print("G0_db   median_ratio   total_weight_mass")
base = None
for gain_db in (0.0, 6.0, 10.0, 20.0):
    g = forward_path_ir(gain_db, 0, RATE)
    report = evaluate(scene, g, silent, config)
    med = float(np.median(report.leakage_ratio))
    if base is None:
        base = med
    print(f"{gain_db:5.1f}   {med:12.5f}   {report.weight_trace.sum():17.3e}")

print(f"\nratio(20 dB) / ratio(0 dB) = {med / base:.6f}  (exactly 10^-1)")
