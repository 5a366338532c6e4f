"""Non-minimum-phase loudspeakers need acausal slack.

A zero outside the unit circle makes the stable inverse anticausal. Shifting
the match target by d_H samples hands the filter that many taps of "past"
to spend on the anticausal tail. The distance falls as the slack grows
(individual steps scatter a bit, the trend does not) and flattens once the
tail is covered.
"""

from eqdesign.design import DesignConfig, design_filter
from eqdesign.evaluation import evaluate
from eqdesign.scenario import SynthSpec, forward_path_ir, synth_scenario

RATE = 16000.0

spec = SynthSpec(num_sets=1, num_loudspeakers=1, phase_family="non-minimum-phase",
                 reinsertion_level_db=None)
scene = synth_scenario(spec, seed=3)
g = forward_path_ir(0.0, 96)  # 6 ms of processing delay to hide behind

print(" d_H   distance_db")
for d_h in (0, 1, 2, 4, 8, 16, 32, 64):
    config = DesignConfig(variant="R_DELTA_LS", filter_length=99,
                          acausal_delay=d_h, reg_lambda=1e-8, reg_beta=1.0)
    filt = design_filter(scene, g, config)
    report = evaluate(scene, g, filt, config)
    print(f"{d_h:4d}   {report.delta_h_aud_db[0]:.4f}")
