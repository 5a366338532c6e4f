"""What the scene generator can produce.

Each block prints a couple of numbers that characterize the knob being
turned: phase family, vent leakage, reinsertion scatter.
"""

import math

import numpy as np

from eqdesign.scenario import SynthSpec, synth_scenario
from eqdesign.signals import FrequencyGrid

RATE = 16000.0


def peak_root(samples):
    return float(np.max(np.abs(np.roots(samples))))


base = dict(num_sets=1, num_loudspeakers=1, source_ir_length=24,
            speaker_ir_length=16, reinsertion_level_db=None)

print("== phase families ==")
for family in ("minimum-phase", "non-minimum-phase"):
    scene = synth_scenario(SynthSpec(**base, phase_family=family), seed=9)
    d = scene.sets[0].d[0].samples
    print(f"{family:18s} largest loudspeaker zero radius {peak_root(d):.3f}")

coprime = synth_scenario(
    SynthSpec(**{**base, "num_loudspeakers": 2}, phase_family="co-prime-pair"), seed=9
)
r1 = np.roots(coprime.sets[0].d[0].samples)
r2 = np.roots(coprime.sets[0].d[1].samples)
gap = min(abs(a - b) for a in r1 for b in r2)
print(f"co-prime-pair      closest zero gap between channels {gap:.2e}")

print("\n== vent leakage ==")
grid = FrequencyGrid(2048, RATE)
for att in (10.0, 30.0, math.inf):
    scene = synth_scenario(SynthSpec(**base, leakage_attenuation_db=att), seed=5)
    ms = scene.sets[0]
    occ = np.abs(np.fft.rfft(ms.h_occ.samples, grid.fft_size))
    if not occ.any():
        print(f"attenuation inf    occluded path silent")
        continue
    opn = np.abs(np.fft.rfft(ms.h_open.samples, grid.fft_size))
    lo = 20 * np.log10(occ[13] / opn[13])     # ~100 Hz
    hi = 20 * np.log10(occ[1024] / opn[1024])  # Nyquist
    print(f"attenuation {att:4.0f}   leakage vs open ear: {lo:6.1f} dB at 100 Hz,"
          f" {hi:6.1f} dB at 8 kHz")

print("\n== reinsertion scatter ==")
spec = SynthSpec(num_sets=4, num_loudspeakers=1, source_ir_length=24,
                 speaker_ir_length=16, reinsertion_level_db=-25.0)
scene = synth_scenario(spec, seed=2)
ref = scene.sets[0].h_m.samples
for i, ms in enumerate(scene.sets[1:], start=1):
    dev = np.max(np.abs(ms.h_m.samples - ref)) / np.max(np.abs(ref))
    print(f"set {i} vs set 0: max microphone-path deviation {20*np.log10(dev):.1f} dB")
