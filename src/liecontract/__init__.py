"""Exact-arithmetic Lie algebra contractions, expansions, and expansion groups."""

from .algebra import (
    LieAlgebra,
    SubalgebraSplit,
    ValidationReport,
    Violation,
    span_subalgebra,
    split_with_complement,
)
from .bch import DEFAULT_ORDER_CAP, local_mult, word_coefficients
from .catalog import builtin, canonical_split_vectors, subalgebra_catalog
from .contraction import (
    ContractionFamily,
    contract,
    eps_bracket,
    invert_family_apply,
    iw_contract_closed_form,
    iw_family,
    transport_map,
)
from .errors import (
    ConstantTermNotIdentity,
    DecompositionFailed,
    DimensionMismatch,
    InternalInvariantViolation,
    LieContractError,
    NonzeroConstantTerm,
    NotASubalgebra,
    OrderCapExceeded,
    PoleError,
    SingularFamily,
    SpecFormatError,
    UnknownAlgebra,
)
from .expansion import ExpandedElement, GeneralExpansion, IWExpansion
from .group import (
    ExpansionGroup,
    GroupElement,
    HElement,
    NilTuple,
    so3_example,
)
from .jets import (
    Jet,
    MatrixJet,
    bracket_poly,
    jet_in_filtration,
)
from .oracle import Representation

__version__ = "0.1.0"

__all__ = [
    "ConstantTermNotIdentity",
    "ContractionFamily",
    "DecompositionFailed",
    "DEFAULT_ORDER_CAP",
    "DimensionMismatch",
    "ExpandedElement",
    "ExpansionGroup",
    "GeneralExpansion",
    "GroupElement",
    "HElement",
    "InternalInvariantViolation",
    "IWExpansion",
    "Jet",
    "LieAlgebra",
    "LieContractError",
    "MatrixJet",
    "NilTuple",
    "NonzeroConstantTerm",
    "NotASubalgebra",
    "OrderCapExceeded",
    "PoleError",
    "Representation",
    "SingularFamily",
    "SpecFormatError",
    "SubalgebraSplit",
    "UnknownAlgebra",
    "ValidationReport",
    "Violation",
    "bracket_poly",
    "builtin",
    "canonical_split_vectors",
    "contract",
    "eps_bracket",
    "invert_family_apply",
    "iw_contract_closed_form",
    "iw_family",
    "jet_in_filtration",
    "local_mult",
    "so3_example",
    "span_subalgebra",
    "split_with_complement",
    "subalgebra_catalog",
    "transport_map",
    "word_coefficients",
]
