"""Exact workbench for bigraded differential structures.

Terms over noncommuting generators carry chain and cochain indices, two
anticommuting-or-commuting differentials, vanishing ideals, condition
trees, and a pair of verification procedures for a candidate invariant
class, all over exact rational coefficients, plus small finite models
for numeric spot checks.
"""
from .conditions import (
    Condition,
    DerivationTree,
    PeriodicFamily,
    check_coherence,
    collapse_signature,
    derive_tree,
    make_condition,
    render_tree,
    signature_label,
    standard_start,
    tree_to_json,
)
from .differentials import (
    EpsilonMode,
    SignMode,
    apply_differential,
    apply_slot_differential,
    classify_push,
)
from .errors import (
    ArityError,
    AssignmentError,
    CoherenceViolation,
    GdaError,
    GdaSyntaxError,
    HeterogeneousSum,
    HypothesisError,
    IdealError,
    LayoutError,
    ModelError,
    NameClash,
    SlotError,
)
from .ideals import FactorizationResult, IdealKind, IdealRegistry, factorization_moves
from .model import (
    Model,
    build_model,
    corner_model,
    derive_element,
    evaluate,
    kernel_basis,
    raising_model,
    random_element,
    random_kernel_element,
    wedge,
)
from .dsl import (
    Session,
    build_session,
    load_session,
    parse_file,
    parse_text,
    print_session,
)
from .terms import (
    DEFAULT_LAWS,
    ZERO_INDEX,
    DiffKind,
    DiffLaws,
    Factor,
    GeneratorSymbol,
    Index,
    IndexBounds,
    Monomial,
    SymbolRegistry,
    Term,
    add,
    multiply,
    normalize,
    render_equation,
    render_term,
    scale,
)
from .verifier import (
    ClosureHypothesis,
    TraceStep,
    ClosureSet,
    VerificationReport,
    VerifierSetup,
    build_class,
    build_closure_set,
    cancel_hypotheses,
    reduce_modulo,
    verify_cocycle,
    verify_independence,
)

__version__ = "0.1.0"
