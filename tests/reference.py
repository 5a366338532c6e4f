"""Reference systems that the tests compare the commands' computations against.

Three, and only these:

- padded_rtf_system: the d_H-padded least-squares system of the reduction to
  the relative transfer function. The design solves its normal equations
  without the padding rows; residuals and optimality are taken on it.
- staged_chain: the aided and desired signal chains run stage by stage in
  time. SetScorer never forms a time response, so this is what its aided
  magnitudes are checked against.
- _penalty_block: the quadratic form of the weighted-spectrum seminorm of
  one loudspeaker's taps, as a matrix. The design gathers it from its lags;
  the claims on the regularized optimum take the seminorm through it.
"""

import numpy as np
import scipy.linalg

from eqdesign.design import _penalty_lags, _rtf_path, _rtf_target, _through_mic, _toeplitz


def padded_rtf_system(ms, g, filter_length, acausal_delay=0):
    """(matrix, target) of one set's reduced system, least squares in the stacked taps.

    The target is the design's RTF target, delayed by acausal_delay. The
    matrix holds each loudspeaker's convolution matrix side by side, with
    acausal_delay zero rows appended; those rows line up with target taps
    that no causal filter can reach.
    """
    target = _rtf_target(ms, g, filter_length, acausal_delay, _rtf_path(_through_mic(ms, g)))
    matrix = np.hstack([scipy.linalg.convolution_matrix(d_n.samples, filter_length, mode="full")
                        for d_n in ms.d])
    return np.pad(matrix, ((0, acausal_delay), (0, 0))), target


def staged_chain(ms, g, coefficients, stimulus):
    """The aided and desired time signals of a stimulus, taps loudspeakers x L_A.

    The aided chain is built stage by stage: microphone pickup, forward path,
    per-loudspeaker filtering and playback, plus leakage. A stimulus of [1.0]
    gives the impulse responses.
    """
    s = np.asarray(stimulus, dtype=float)
    driven = np.convolve(g.samples, np.convolve(ms.h_m.samples, s))
    aided = None
    for d_n, a_n in zip(ms.d, coefficients):
        played = np.convolve(d_n.samples, np.convolve(a_n, driven))
        aided = played if aided is None else aided + played
    leak = np.convolve(ms.h_occ.samples, s)
    aided[: leak.size] += leak
    desired = np.convolve(g.samples, np.convolve(ms.h_open.samples, s))
    return aided, desired


def _penalty_block(weights, filter_length, fft_size):
    """Quadratic form of the weighted-spectrum seminorm of one loudspeaker's taps.

    weights is one-sided, length fft_size // 2 + 1. With the DFT scaled by
    1/sqrt(fft_size) the penalty for all-ones weights is exactly the
    identity, which keeps lambda comparable between the identity-regularized
    and frequency-weighted variants. The block is the Toeplitz matrix of the
    _penalty_lags of the weights, as the design gathers it.
    """
    return _toeplitz(_penalty_lags(weights, filter_length, fft_size))
