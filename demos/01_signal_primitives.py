"""Tour of the signal primitives: responses, convolution, magnitude grids."""

import numpy as np

from eqdesign.signals import (
    FrequencyGrid,
    ImpulseResponse,
    convolve,
    delay,
    fractional_octave_smooth,
    magnitude_response,
)

rate = 16000.0

h = ImpulseResponse([1.0, -0.4, 0.12], rate)
g = ImpulseResponse([0.5, 0.25], rate)

print("h * g       ", convolve(h, g).samples)
print("delayed h   ", delay(h, 3).samples)

grid = FrequencyGrid(64, rate)
mag = magnitude_response(h, grid)
print("\nbin  freq_hz   |H|")
for k in (0, 4, 16, 32):
    print(f"{k:3d}  {grid.frequencies_hz[k]:7.1f}  {mag[k]:.4f}")

# smoothing flattens a one-bin spike into its 1/6-octave neighborhood
spiky = np.ones(513)  # the one-sided bins of a 1024-point grid
spiky[64] = 9.0
smooth = fractional_octave_smooth(spiky, FrequencyGrid(1024, rate))
print("\nspike at 1 kHz:", spiky[64], "-> smoothed:", round(smooth[64], 4))
print("bin 62 (window overlaps the spike):", round(smooth[62], 4))
print("bin 40 (window clear of the spike):", smooth[40])
