"""The truncated product of two jets: one numpy pass, any number of points.

Coefficients are ``(ncoef,)`` at one point or ``(ncoef, P)`` at a block of P
points.  The product gathers the operand coefficients named by the sorted
triple table, multiplies them and sums each output coefficient's terms with
``np.add.reduceat``; the product writes +0.0 at an output a restricted
table does not reach.
Every column (point) is summed in the same order, so a point's product does
not depend on the block it is evaluated in.
"""

import numpy as np


def mul_into(out, a, b, table):
    """out[k] = sum of a[i] * b[j] over the triples (i, j, k) of ``table``;
    ``out`` keeps its entry at each k the table does not reach."""
    terms = a.take(table.i, axis=0) * b.take(table.j, axis=0)
    if table.out is None:
        np.add.reduceat(terms, table.starts, axis=0, out=out)
    elif len(table.out):
        out[table.out] = np.add.reduceat(terms, table.starts, axis=0)


def backend_name() -> str:
    """Name of the product implementation: ``perfbench/run.py`` records it in
    its run reports."""
    return "numpy"
