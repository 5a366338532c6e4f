"""How the forward-path gain moves the leakage ratio and the weights."""

import numpy as np

from eqdesign.design import DesignConfig
from eqdesign.evaluation import evaluate
from eqdesign.scenario import SynthSpec, forward_path_ir, synth_scenario

scene = synth_scenario(
    SynthSpec(num_sets=1, num_loudspeakers=1, reinsertion_level_db=None), seed=6
)
config = DesignConfig(variant="MFR_DELTA_LS", filter_length=99, acausal_delay=32,
                      reg_lambda=0.1, reg_beta=1.0)
silent = np.zeros((1, 99))  # the report's V and W do not depend on the taps

# more forward gain means the processed open-ear target towers over the
# fixed vent leakage, so the ratio drops by exactly the gain factor
print("G0_db   median_ratio   total_weight_mass")
base = None
for gain_db in (0.0, 6.0, 10.0, 20.0):
    g = forward_path_ir(gain_db, 0)
    report = evaluate(scene, g, silent, config)
    med = float(np.median(report.leakage_ratio))
    if base is None:
        base = med
    print(f"{gain_db:5.1f}   {med:12.5f}   {report.weight_trace.sum():17.3e}")

print(f"\nratio(20 dB) / ratio(0 dB) = {med / base:.6f}  (exactly 10^-1)")
