"""Gauss-Jordan elimination on FqElem values, the oracle that the
eliminations and batched ranks over F_q are checked against."""


def reference_rref(rows, spec):
    """Reduced row echelon form of rows of F_q encodings, by FqElem
    arithmetic: (reduced nonzero rows as encodings, pivot columns)."""
    a = [[spec.from_encoding(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(a[0])):
        top = len(pivots)
        piv = next((r for r in range(top, len(a)) if a[r][c]), None)
        if piv is None:
            continue
        a[top], a[piv] = a[piv], a[top]
        lead = a[top][c]
        a[top] = [x / lead for x in a[top]]
        for r in range(len(a)):
            f = a[r][c]
            if r != top and f:
                a[r] = [x - f * y for x, y in zip(a[r], a[top])]
        pivots.append(c)
    return [[x.encoding() for x in row] for row in a[:len(pivots)]], pivots
