"""Exact tools for planar polynomial vector fields with factored
polynomial first integrals: field construction, critical remarkable
value detection, Christopher-Zoladek genericity checks, and verified
linearization-to-saddle certificates.

The construction layers (bipoly, field_ops, linearize) load with the
package.  The analysis names of cz_check and remarkable are resolved on
first access (PEP 562), so a process that never asks for them never
compiles those modules.  `linearize` stays eager: it names both a
function and a submodule, and the first import of the submodule binds
the module onto the package.
"""

from importlib import import_module

from .bipoly import (BiPoly, CheckResult, ExactDivisionError, ParseError,
                     parse, to_string)
from .field_ops import (FactoredIntegral, VectorField, construct_field,
                        expand, is_first_integral, lie_derivative,
                        reduce_field)
from .linearize import LinearizationCertificate, factor_split, linearize

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in (
    ("bipoly", ("BiPoly", "CheckResult", "ExactDivisionError", "ParseError",
                "parse", "to_string")),
    ("cz_check", ("CZReport", "cz_report")),
    ("field_ops", ("FactoredIntegral", "VectorField", "construct_field", "expand",
                   "is_first_integral", "lie_derivative", "reduce_field")),
    ("linearize", ("LinearizationCertificate", "factor_split", "linearize")),
    ("remarkable", ("RemarkableAnalysis", "analyze", "critical_remarkable_values")),
) for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import the defining submodule of a public name not yet bound."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
