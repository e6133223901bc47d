"""Exact-arithmetic Lie algebra contractions, expansions, and expansion groups.

The public names, the keys of ``_HOMES`` and so of ``__all__``, resolve on
first use: reading one imports its home module and keeps the value on the
package, so ``import liecontract`` alone loads no submodule.  The command line
(``liecontract.cli``) likewise imports, per command, only the modules that
command runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# every public name -> the submodule that defines it; ``__all__`` lists its keys
_HOMES = {name: module for module, names in (
    ("algebra", ("LieAlgebra", "SubalgebraSplit", "ValidationReport", "Violation",
                 "span_subalgebra", "split_with_complement")),
    ("bch", ("DEFAULT_ORDER_CAP", "local_mult", "word_coefficients")),
    ("catalog", ("builtin", "canonical_split_vectors", "subalgebra_catalog")),
    ("contraction", ("ContractionFamily", "contract", "eps_bracket", "invert_family_apply",
                     "iw_contract_closed_form", "iw_family", "transport_map")),
    ("errors", ("ConstantTermNotIdentity", "DecompositionFailed", "DimensionMismatch",
                "InternalInvariantViolation", "LieContractError", "NonzeroConstantTerm",
                "NotASubalgebra", "OrderCapExceeded", "PoleError", "SingularFamily",
                "SpecFormatError", "UnknownAlgebra")),
    ("expansion", ("ExpandedElement", "GeneralExpansion", "IWExpansion")),
    ("group", ("ExpansionGroup", "GroupElement", "HElement", "NilTuple", "so3_example")),
    ("jets", ("Jet", "MatrixJet", "bracket_poly", "jet_in_filtration")),
    ("oracle", ("Representation",)),
) for name in names}
__all__ = list(_HOMES)


def __getattr__(name):
    """Import the home module of a public name, keep the value and return it.

    Any other name raises AttributeError, so ``from liecontract import bch``
    falls through to importing the submodule.
    """
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
