"""The truncated product of two jets: one numpy pass, any number of points.

Coefficients are ``(ncoef,)`` at one point or ``(ncoef, P)`` at a block of P
points.  The product gathers the operand coefficients named by the sorted
triple table, multiplies them and sums each output coefficient's terms with
``np.add.reduceat``.  Every column (point) is summed in the same order, so a
point's product does not depend on the block it is evaluated in.
"""

import numpy as np


def mul_into(out, a, b, table):
    """out[k] = sum of a[i] * b[j] over the triples (i, j, k) of ``table``."""
    np.add.reduceat(a.take(table.i, axis=0) * b.take(table.j, axis=0), table.starts,
                    axis=0, out=out)


def backend_name() -> str:
    """Name of the product implementation, for run reports."""
    return "numpy"
