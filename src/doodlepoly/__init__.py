"""Polynomial invariants of doodles computed from twin-group words.

The pipeline: parse a twin word, map it through the deformed geometric
representation into exact integer-polynomial matrices, take the determinant
of (image - identity), and divide by a Chebyshev-derived normalizer. The
result changes only by even powers of x under the doodle Markov moves, so
its x^2-stripped form is an invariant of the closed-up doodle.
"""
from .invariant import (
    InvariantValue,
    canonical_invariant,
    chebyshev_u,
    f_invariant,
    p_poly,
    skein_defect,
    split_union,
)
from .poly import IntPoly, NotDivisibleError, ZeroPolynomialError
from .rep import (
    PolyMatrix,
    a_matrix,
    determinant,
    fixed_row,
    generator_matrix,
    psi,
    row_times_matrix,
)
from .table import (
    TableEntry,
    VerifyReport,
    dataset,
    decode_entry,
    encode_entry,
    family_b,
    family_c,
    verify_entry,
)
from .twin import (
    EmptyWordError,
    InvalidMoveError,
    MarkovMove,
    TwinWord,
    WordSyntaxError,
    apply_markov,
    component_count,
    format_word,
    inverse_word,
    iota_left,
    iota_right,
    parse_word,
    permutation_of,
    random_markov_walk,
    random_word,
    reduce_word,
    stab_word_left,
    stab_word_right,
    word,
)

__version__ = "0.1.0"
