"""Framewise numpy oracle for the log-mel front end, written from the
definition (periodic Hann window, no centering, triangular mel filters with
HTK mel-scale edges from 0 Hz to Nyquist, natural log floored at 1e-5, one
frame kept out of every 16) and sharing no code with the program."""

from __future__ import annotations

import numpy as np


def log_mel(samples: np.ndarray, rate: int = 22050, n_fft: int = 2048,
            hop: int = 256, window: int = 1024, bands: int = 80,
            stride: int = 16, floor: float = 1e-5) -> np.ndarray:
    x = np.asarray(samples, dtype=np.float64)
    if x.size < window:
        x = np.concatenate([x, np.zeros(window - x.size)])
    n_frames = 1 + (x.size - window) // hop
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window) / window)

    def to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    edges = 700.0 * (10.0 ** (np.linspace(0.0, to_mel(rate / 2.0), bands + 2)
                              / 2595.0) - 1.0)
    freqs = np.arange(n_fft // 2 + 1) * rate / n_fft
    bank = np.empty((bands, freqs.size))
    for b in range(bands):
        lo, mid, hi = edges[b:b + 3]
        bank[b] = np.clip(np.minimum((freqs - lo) / (mid - lo),
                                     (hi - freqs) / (hi - mid)), 0.0, None)
    rows = []
    for i in range(0, n_frames, stride):
        frame = np.zeros(n_fft)
        frame[:window] = x[i * hop:i * hop + window] * hann
        rows.append(np.log(np.maximum(bank @ np.abs(np.fft.rfft(frame)),
                                      floor)))
    return np.array(rows)
