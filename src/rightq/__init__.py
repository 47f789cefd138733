"""Computer algebra for the right quantum algebra via biword rewriting.

The package turns expressions in noncommuting biletter generators into
canonical normal forms supported on double-descent-free biwords, checks
the resulting basis by ranking the engine's own relations without
rewriting, transports ideal membership between q = 1 and generic q
through the q-weighting phi, and verifies the quantum MacMahon master
identity degree by degree at desk scale.
"""

from .basis_oracle import (
    DimensionReport,
    check_basis_dimension,
    count_irreducible,
    enumerate_biwords,
    rank,
    relation_matrix,
    spanning_rank,
)
from .expressions import Expression
from .laurent import Laurent
from .macmahon import (
    DegreeResult,
    QmmReport,
    bos,
    ferm,
    qmm_check,
)
from .rewrite import (
    DEFAULT_TERM_CAP,
    LEFTMOST,
    RIGHTMOST,
    ConfluenceReport,
    NotADoubleDescent,
    PreconditionViolation,
    ReductionReport,
    ReductionSystem,
    Strategy,
    SYSTEM_S,
    SYSTEM_SQ,
    TermCapExceeded,
    TraceStep,
    check_ambiguity,
    check_confluence_fuzz,
    clear_caches,
    in_ideal,
    measure_check_count,
    reduce,
    rewrite_at,
)
from .textform import (
    LengthMismatch,
    LetterOutOfRange,
    ParseError,
    parse_biword,
    parse_expression,
    print_expression,
)
from .weight import (
    NotCircular,
    check_circuit_multiplicativity,
    check_principle,
    phi,
    phi_inv,
)
from .words import (
    Biword,
    EMPTY_BIWORD,
    Word,
    imv,
    inv,
)

__version__ = "0.1.0"

__all__ = [
    "Biword",
    "ConfluenceReport",
    "DEFAULT_TERM_CAP",
    "DegreeResult",
    "DimensionReport",
    "EMPTY_BIWORD",
    "Expression",
    "Laurent",
    "LEFTMOST",
    "LengthMismatch",
    "LetterOutOfRange",
    "NotADoubleDescent",
    "NotCircular",
    "ParseError",
    "PreconditionViolation",
    "QmmReport",
    "ReductionReport",
    "ReductionSystem",
    "RIGHTMOST",
    "Strategy",
    "SYSTEM_S",
    "SYSTEM_SQ",
    "TermCapExceeded",
    "TraceStep",
    "Word",
    "bos",
    "check_ambiguity",
    "check_basis_dimension",
    "check_circuit_multiplicativity",
    "check_confluence_fuzz",
    "check_principle",
    "clear_caches",
    "count_irreducible",
    "enumerate_biwords",
    "ferm",
    "imv",
    "in_ideal",
    "inv",
    "measure_check_count",
    "parse_biword",
    "parse_expression",
    "phi",
    "phi_inv",
    "print_expression",
    "qmm_check",
    "rank",
    "reduce",
    "relation_matrix",
    "rewrite_at",
    "spanning_rank",
]
