"""One loudspeaker cannot invert its own response with an FIR filter; two
loudspeakers without common zeros can, exactly, once the filters are long
enough. This script shows the auditory distance collapsing when the second
channel comes in."""

import math

from eqdesign.design import DesignConfig, design_filter
from eqdesign.evaluation import evaluate
from eqdesign.scenario import SynthSpec, forward_path_ir, select_loudspeakers, synth_scenario

RATE = 16000.0

spec = SynthSpec(
    num_sets=1, num_loudspeakers=2, source_ir_length=12, speaker_ir_length=8,
    phase_family="co-prime-pair", leakage_attenuation_db=math.inf,
    reinsertion_level_db=None, correlation=1.0,
)
scene = synth_scenario(spec, seed=3)
g = forward_path_ir(0.0, 0)

print("speakers  filter_taps  distance_db")
for n_spk in (1, 2):
    sub = select_loudspeakers(scene, n_spk)
    for taps in (4, 7, 12):
        config = DesignConfig(variant="R_DELTA_LS", filter_length=taps, acausal_delay=0,
                              reg_lambda=1e-12, reg_beta=1.0)
        filt = design_filter(sub, g, config)
        print(f"{n_spk:8d}  {taps:11d}  {evaluate(sub, g, filt, config).delta_h_aud_db[0]:.3e}")
