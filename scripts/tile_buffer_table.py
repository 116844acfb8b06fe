"""Time the steps of a stream tile: its broadcast ufuncs against numpy's buffer
size, and the packing of its compare outputs.

A tile is `harness._TILE_CELLS` values laid out as (rows, row length): uint64
draws on the ASC designs, uint16 LFSR ring values on conv-lfsr.  For each row
length the script prints ns per cell of

* compare: np.less(tile, thresholds[:, None], out=bool tile) of uint64 draws,
* draw add: np.add(states[:, None], steps[None, :], out=tile), and
* ring compare: np.less(ring, codes[:, None], out=bool tile) of uint16 ring
  values against uint16 codes (ADC code + 1 in the engine),

once with numpy's default ufunc buffer and once with the buffer set to the row
length (rounded down to a multiple of 16), the rule `harness._window_streams`
applies to both value types from `harness._UNBUFFERED_MIN_ROW` values per row;
then of

* pack rows: np.packbits along each row of the bool tile, copied into
  zero-padded uint64 words when a row does not end on a word boundary, and
* pack flat: `bitstream.pack_bool_matrix` of the bool tile with its rows
  padded to whole words, one packbits over the whole tile, as
  `harness._window_streams` packs.

Cells are draws, so the flat pack's pad columns count in its cost, not in its
cells.  Run from the repo root:

    PYTHONPATH=src python scripts/tile_buffer_table.py [--repeats N]
"""

import argparse
import time

import numpy as np

from stochmem import harness
from stochmem.bitstream import pack_bool_matrix, words_for
from stochmem.rng import GOLDEN

ROW_LENGTHS = (32, 64, 128, 192, 256, 512, 1024, 2048, 4096, 8192)


def _ns_per_cell(fn, cells: int, repeats: int, bufsize: int | None) -> float:
    with np.errstate():
        if bufsize is not None:
            np.setbufsize(bufsize)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
    return best / cells * 1e9


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=50)
    args = ap.parse_args()

    rng = np.random.default_rng(0)
    print(f"numpy {np.__version__}, tile of {harness._TILE_CELLS} cells, "
          f"default buffer {np.getbufsize()}, best of {args.repeats}")
    print(f"{'row':>5} {'rows':>5}  {'compare default':>15} {'row-sized':>9}"
          f"  {'draw add default':>16} {'row-sized':>9}"
          f"  {'ring compare default':>20} {'row-sized':>9}  {'pack rows':>9} {'pack flat':>9}")
    for cols in ROW_LENGTHS:
        rows = harness._TILE_CELLS // cols
        tile = rng.integers(0, 2**64, (rows, cols), dtype=np.uint64, endpoint=False)
        thr = rng.integers(0, 2**64, (rows, 1), dtype=np.uint64, endpoint=False)
        bits = np.empty(tile.shape, dtype=bool)
        states = tile[:, 0].copy()
        steps = np.arange(1, cols + 1, dtype=np.uint64) * np.uint64(GOLDEN)
        into = np.empty_like(tile)
        ring = rng.integers(1, 1024, (rows, cols), dtype=np.uint16, endpoint=True)
        codes = rng.integers(1, 1024, (rows, 1), dtype=np.uint16, endpoint=True)

        def compare():
            np.less(tile, thr, out=bits)

        def draw_add():
            np.add(states[:, None], steps[None, :], out=into)

        def ring_compare():
            np.less(ring, codes, out=bits)

        np.less(tile, thr, out=bits)
        padded = np.zeros((rows, 64 * words_for(cols)), dtype=bool)
        padded[:, :cols] = bits

        def pack_rows():
            packed = np.packbits(bits, axis=1, bitorder="little")
            if packed.shape[1] % 8:
                out = np.zeros((rows, words_for(cols)), dtype="<u8")
                out.view(np.uint8)[:, :packed.shape[1]] = packed

        def pack_flat():
            pack_bool_matrix(padded)

        row_buf = cols // 16 * 16
        cells = tile.size
        cmp_d, cmp_r = (_ns_per_cell(compare, cells, args.repeats, b) for b in (None, row_buf))
        add_d, add_r = (_ns_per_cell(draw_add, cells, args.repeats, b) for b in (None, row_buf))
        ring_d, ring_r = (_ns_per_cell(ring_compare, cells, args.repeats, b)
                          for b in (None, row_buf))
        pack_r, pack_f = (_ns_per_cell(fn, cells, args.repeats, None)
                          for fn in (pack_rows, pack_flat))
        print(f"{cols:>5} {rows:>5}  {cmp_d:>15.3f} {cmp_r:>9.3f}  {add_d:>16.3f} {add_r:>9.3f}"
              f"  {ring_d:>20.3f} {ring_r:>9.3f}  {pack_r:>9.3f} {pack_f:>9.3f}")


if __name__ == "__main__":
    main()
