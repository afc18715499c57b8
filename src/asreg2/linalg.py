"""Incremental exact rank computation over Q(zeta_n).

Rows are sparse dicts {column key: Cyclotomic}.  Column keys only need to
be hashable and mutually comparable (ints or tuples of ints throughout
this package).  Every pivot row is normalized so its pivot coefficient is
one and the pivot is the smallest column of the row, which lets reduction
walk columns in ascending order with a heap.  All arithmetic is exact; a
vector reduces to the empty dict iff it lies in the span.
"""

import heapq

from .cyclotomic import cyc


class Echelon:
    def __init__(self):
        self.rows = {}  # pivot column -> normalized sparse row

    @property
    def rank(self):
        return len(self.rows)

    def residue(self, vec):
        """Reduce vec against the current rows; returns the sparse remainder."""
        v = {}
        for k, c in vec.items():
            c = cyc(c)
            if not c.is_zero():
                v[k] = c
        heap = list(v.keys())
        heapq.heapify(heap)
        while heap:
            col = heapq.heappop(heap)
            coeff = v.get(col)
            if coeff is None or coeff.is_zero():
                continue
            row = self.rows.get(col)
            if row is None:
                # columns smaller than every remaining pivot stay; later
                # eliminations only touch columns > col
                continue
            del v[col]
            for k, rc in row.items():
                if k == col:
                    continue
                cur = v.get(k)
                nxt = (cur - coeff * rc) if cur is not None else -coeff * rc
                if nxt.is_zero():
                    v.pop(k, None)
                else:
                    if cur is None:
                        heapq.heappush(heap, k)
                    v[k] = nxt
        return v

    def add(self, vec):
        """Insert vec if independent.  Returns True when the rank grew."""
        v = self.residue(vec)
        if not v:
            return False
        pivot = min(v)
        inv = v[pivot].inverse()
        self.rows[pivot] = {k: c * inv for k, c in v.items()}
        return True


def linear_solve(columns, target):
    """Coefficients c with sum c_k * columns[k] = target, or None.

    Columns and target are sparse dicts over a common key space; small
    dense Gauss-Jordan over the exact field.
    """
    keys = sorted({k for col in columns for k in col} | set(target))
    zero = cyc(0)
    rows = [[cyc(col.get(k, 0)) for col in columns] + [cyc(target.get(k, 0))]
            for k in keys]
    n_cols = len(columns)
    pivot_of_col = {}
    row_idx = 0
    for col in range(n_cols):
        pivot = None
        for i in range(row_idx, len(rows)):
            if not rows[i][col].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        rows[row_idx], rows[pivot] = rows[pivot], rows[row_idx]
        inv = rows[row_idx][col].inverse()
        rows[row_idx] = [x * inv for x in rows[row_idx]]
        for i in range(len(rows)):
            if i != row_idx and not rows[i][col].is_zero():
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[row_idx])]
        pivot_of_col[col] = row_idx
        row_idx += 1
    # inconsistent system: a nonzero rhs with an all-zero coefficient row
    for i in range(row_idx, len(rows)):
        if not rows[i][-1].is_zero():
            return None
    solution = [zero] * n_cols
    for col, i in pivot_of_col.items():
        solution[col] = rows[i][-1]
    # free columns default to zero; verify in case the system was singular
    for k_i, k in enumerate(keys):
        acc = cyc(0)
        for col in range(n_cols):
            if not solution[col].is_zero():
                acc = acc + solution[col] * cyc(columns[col].get(k, 0))
        if acc != cyc(target.get(k, 0)):
            return None
    return solution
