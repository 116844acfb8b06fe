"""Exact conv-lfsr outputs of median, frame and kde from windowed counts.

On conv-lfsr, bit j of a stream is ring[(start + j) mod period] <= code, and
the streams of one generator group share start.  AND and OR of such streams
are the comparator at the smaller and the larger code, and XOR is the
indicator of lo < ring <= hi.  So the outputs of the apps whose operands share
one group are functions of window counts, the number of ring values at most a
code over L positions from start: whole periods add the code's count per
period, and the rest is one window of a cumulative table over two periods.
No stream is built.

The ring is walked with lfsr.lfsr_values, and each pixel's start comes from
the scalar rng.derive_state, so the oracle shares no code with the engine's
ring windows, tile loop or packing.
"""

from functools import cache

import numpy as np

from stochmem.circuits import KDE_HISTORY, AppKind
from stochmem.converters import ADC_BITS, adc_quantize
from stochmem.lfsr import LfsrSpec, lfsr_values
from stochmem.rng import derive_state

SPEC = LfsrSpec(width=ADC_BITS)
PERIOD = SPEC.period


@cache
def _ring_counts() -> tuple[dict[int, int], np.ndarray]:
    """Each state's ring position, and counts[c, p], the number of k < p with
    ring[k mod period] <= c, for codes c in 0..period and p in 0..2 * period."""
    ring = lfsr_values(SPEC, 0, PERIOD)   # raw 0 seeds state 1, where the ring starts
    position = {state: k for k, state in enumerate(ring)}
    below = np.array(ring * 2)[None, :] <= np.arange(PERIOD + 1)[:, None]
    counts = np.zeros((PERIOD + 1, 2 * PERIOD + 1), dtype=np.int64)
    np.cumsum(below, axis=1, out=counts[:, 1:])
    return position, counts


def lfsr_output(app: AppKind, planes: np.ndarray, seed: int, length: int, params) -> np.ndarray:
    """The (y, x) conv-lfsr output of median, frame or kde over operand planes
    (slot, y, x) at global seed ``seed`` and stream length ``length``."""
    position, counts = _ring_counts()
    codes = adc_quantize(planes)
    _, height, width = planes.shape
    # every operand of these apps is in generator group 0
    starts = np.array([[position[derive_state(seed, x, y, 0) % PERIOD + 1] for x in range(width)]
                       for y in range(height)])
    whole, rest = divmod(length, PERIOD)

    def ones(code):
        return whole * counts[code, PERIOD] + counts[code, starts + rest] - counts[code, starts]

    def xor_ones(a, b):
        return ones(np.maximum(a, b)) - ones(np.minimum(a, b))

    if app is AppKind.MEDIAN:
        return ones(np.sort(codes, axis=0)[4]) / length
    if app is AppKind.FRAME:
        return (xor_ones(codes[0], codes[1]) > params.theta * length).astype(np.float64)
    if app is AppKind.KDE:
        matches = sum(xor_ones(codes[0], hist) <= params.delta * length for hist in codes[1:])
        return (matches / KDE_HISTORY < params.theta).astype(np.float64)
    raise ValueError(f"{app.value} has no windowed-count form")
