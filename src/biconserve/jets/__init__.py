from .jet import Jet, apply, powr
from .kernel import backend_name
from .space import MAX_ORDER, JetSpace

__all__ = [
    "Jet",
    "JetSpace",
    "MAX_ORDER",
    "backend_name",
    "apply",
    "powr",
]
