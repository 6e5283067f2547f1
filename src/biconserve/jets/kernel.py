"""Select the jet multiplication backend at import time.

The compiled extension is preferred; the numpy fallback is functionally
identical (same triple tables, same summation order up to float association
inside bincount).  Set BICONSERVE_PURE=1 to force the fallback, e.g. to
rule the extension out when debugging.
"""

import os

if os.environ.get("BICONSERVE_PURE"):
    from . import _jetcore_py as _impl
else:
    try:
        from . import _jetcore as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _jetcore_py as _impl

mul_into = _impl.mul_into
BACKEND = _impl.BACKEND


def backend_name() -> str:
    return BACKEND
