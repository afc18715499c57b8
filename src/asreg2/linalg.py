"""Incremental exact rank computation over Q(zeta_n).

Rows are sparse dicts {column key: Cyclotomic}.  Column keys only need to
be hashable and mutually comparable (ints or tuples of ints throughout
this package).  Every pivot row is normalized so its pivot coefficient is
one and the pivot is the smallest column of the row, so reduction takes
the pivots in ascending order: eliminating a pivot touches only larger
columns, and so never brings back a pivot already passed.  All arithmetic
is exact; a vector reduces to the empty dict iff it lies in the span.
"""

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
        for col in sorted(self.rows):
            coeff = v.pop(col, None)
            if coeff is None:
                continue
            for k, rc in self.rows[col].items():
                if k == col:
                    continue
                cur = v.get(k)
                nxt = (cur - coeff * rc) if cur is not None else -coeff * rc
                if nxt.is_zero():
                    v.pop(k, None)
                else:
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

