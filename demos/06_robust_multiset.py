"""Designing for a family of reinsertions instead of a single snapshot.

Every reinsertion of the device perturbs the measured paths a little. A
filter tuned to one snapshot chases details that will not survive the next
fitting; averaging the design over several snapshots gives up a little
on-set accuracy to gain it back on held-out sets. Scored leave-one-out.
"""

import numpy as np

from eqdesign.design import DesignConfig, design_filter
from eqdesign.evaluation import evaluate
from eqdesign.scenario import Scenario, SynthSpec, forward_path_ir, synth_scenario

RATE = 16000.0

spec = SynthSpec(num_sets=5, num_loudspeakers=2, reinsertion_level_db=-20.0)
scene = synth_scenario(spec, seed=12)
g = forward_path_ir(0.0, 96)
kwargs = dict(filter_length=99, acausal_delay=32, reg_lambda=0.1, reg_beta=1.0)
score_config = DesignConfig(variant="MFR_DELTA_LS", **kwargs)

print("fold   averaged_design   single_snapshot")
robust_all, single_all = [], []
for fold in range(scene.num_sets):
    train = tuple(ms for i, ms in enumerate(scene.sets) if i != fold)
    held_out = Scenario((scene.sets[fold],), RATE)

    averaged = design_filter(Scenario(train, RATE), g,
                             DesignConfig(variant="MFR_DELTA_LS", **kwargs))
    single = design_filter(Scenario(train[:1], RATE), g,
                           DesignConfig(variant="FR_DELTA_LS", **kwargs))

    r = evaluate(held_out, g, averaged, score_config).delta_h_aud_db[0]
    s = evaluate(held_out, g, single, score_config).delta_h_aud_db[0]
    robust_all.append(r)
    single_all.append(s)
    print(f"{fold:4d}   {r:15.4f}   {s:15.4f}")

print(f"mean   {np.mean(robust_all):15.4f}   {np.mean(single_all):15.4f}")
