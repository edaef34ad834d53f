"""catkit: a finite-category engine.

Dense-table categories with certified skeletal completions, transfer of
chosen structure (finite limits, exponentials, subobject classifiers,
parameterized natural numbers) along weak equivalences, and factorization
of structured functors through the completion.
"""
from .core import (
    FinCat,
    Functor,
    Iso,
    NatIso,
    WeakEquivalenceCert,
    check_category_tables,
    check_functor,
    check_nat_iso,
    check_weak_equivalence_cert,
    compose_functors,
    fincat,
    find_iso,
    functor,
    functors_equal,
    identity_functor,
    is_essentially_surjective,
    is_fully_faithful,
    is_weak_equivalence,
    iso_classes,
    nat_iso,
    opposite,
    opposite_functor,
    same_tables,
    set_search_budget,
    table_isomorphic,
    tabulate,
)
from .completion import (
    CompletionResult,
    Factorization,
    check_factorization,
    factor_through,
    factorization_unique,
    full_subcategory,
    inflate,
    inflate_section,
    skeletality,
    skeletize,
)
from .limits import (
    BinCoproductW,
    BinProductW,
    ChosenInitial,
    ChosenTerminal,
    CoequalizerW,
    EqualizerW,
    PullbackW,
    find_binary_coproducts,
    find_binary_products,
    find_coequalizers,
    find_equalizers,
    find_initial,
    find_pullbacks,
    find_terminal,
    partial_table,
    preserves_binary_products,
    preserves_equalizers,
    preserves_pullbacks,
    preserves_terminal,
    transfer_binary_products,
    transfer_equalizers,
    transfer_pullbacks,
    transfer_terminal,
)
from .exponentials import (
    ExponentialW,
    find_exponentials,
    preserves_exponentials,
    transfer_exponentials,
)
from .classifier import (
    SubobjectClassifierW,
    assemble_topos,
    find_subobject_classifier,
    is_logical_functor,
    is_mono,
    monos,
    preserves_subobject_classifier,
    transfer_subobject_classifier,
)
from .nno import (
    PNNOW,
    find_pnno,
    is_pnno,
    preserves_pnno,
    reflect_pnno,
    transfer_pnno,
)
from .lifting import (
    KINDS,
    KIND_ORDER,
    StructureKind,
    StructuredCompletion,
    StructuredFactorization,
    complete_structured,
    factor_structured,
    find_bag,
    with_dependencies,
)
from .interchange import (
    category_to_json,
    functor_from_json,
    functor_to_json,
    structure_from_json,
    structure_to_json,
    validate_category,
)

__version__ = "0.1.0"
