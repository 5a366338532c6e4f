"""Tour of the signal primitives: responses, convolution, magnitude grids."""

import numpy as np

from eqdesign.scenario import forward_path_ir
from eqdesign.signals import (
    FrequencyGrid,
    ImpulseResponse,
    convolution_matrix,
    fractional_octave_smooth,
)

rate = 16000.0

# a response is its samples; the sample rate belongs to the scene and the grid
h = ImpulseResponse([1.0, -0.4, 0.12])
g = ImpulseResponse([0.5, 0.25])

# the design convolves through Toeplitz matrices: column j is h delayed by j
print("h * g       ", convolution_matrix(h.samples, len(g)) @ g.samples)
print("forward path, 3 samples of delay", forward_path_ir(0.0, 3).samples)

grid = FrequencyGrid(64, rate)
mag = np.abs(np.fft.rfft(h.samples, grid.fft_size))  # the grid's one-sided bins
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
