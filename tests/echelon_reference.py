"""The int64 prime-field echelon form that linalg._NpEchelon replaced, kept
verbatim (up to module prefixes) as the reference for its held rows, rank
and det: every clearing step gathers and scatters its rows by fancy index,
and every block is converted to int64."""

import numpy as np

from transverse import linalg


class NpEchelonReference(linalg._Echelon):
    """Each pivot row is written back into its block's array, reduced once
    the block is done, and held as a view of it.  A block given as an int64
    array is that array, eliminated in place: its caller gives it up."""

    def extend(self, rows, stop_at=None):
        p, held = self.F.p, self.held
        arr = np.asarray(rows, dtype=np.int64).reshape(len(rows), self.ncols)
        arr %= p
        k = min(len(held) + len(arr), self.ncols)
        assert p + k * (p - 1) ** 2 < 1 << 63, "int64 overflow"
        r = 0
        for col in range(self.ncols):
            if stop_at is not None and len(held) >= stop_at:
                break
            h = held.get(col)
            if h is not None:
                column = arr[:, col] % p
                nz = column.nonzero()[0]
                column = column[nz]
            elif r < len(arr):
                column = arr[r:, col] % p
                nz = column.nonzero()[0]
                if nz.size == 0:
                    continue
                piv = r + int(nz[0])
                if piv != r:
                    arr[[r, piv]] = arr[[piv, r]]
                c = int(column[nz[0]])
                self.det = self.det * (c if piv == r else p - c) % p
                # reduce the pivot row before scaling it, or the product overflows
                arr[r, col:] = arr[r, col:] % p * pow(c, p - 2, p) % p
                h = held[col] = arr[r]
                # the old row r, now at piv, has a zero in this column
                nz, column = r + nz[1:], column[nz[1:]]
                r += 1
            else:
                continue
            if nz.size:
                arr[nz, col:] += (p - column)[:, None] * h[col:]
        arr[:r] %= p  # new pivot rows that held ones cleared, for later blocks
        return len(held)
