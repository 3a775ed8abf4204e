"""Existence toolkit for pairs (alpha, alpha^-1) of r-primitive k-normal
elements of F_{q^n} over F_q: field-tower arithmetic, the F_q[x]-module
structure, character-sum indicators, sufficient-condition and sieving
inequalities, and exhaustive desk-scale searches."""

from .bounds import (
    BoundVerdict,
    SieveReport,
    asymptotic_threshold,
    basic_inequality,
    lemma54_eval,
    rho_ratio,
    sieve_terms,
    test_sieve,
    w_xn1_bound,
)
from .characters import (
    CharSpec,
    add_char,
    add_char_fq_order,
    char_eval,
    eval_charfun,
    mult_char,
)
from .errors import KnpairError
from .ffield import (
    FieldCtx,
    FieldElement,
    dlog,
    elem_arith,
    field_for,
    find_primitive,
    format_element,
    frobenius,
    make_field,
    mult_order,
    parse_element,
    parse_field_spec,
    trace_abs,
)
from .fqpoly import (
    PolyFactorization,
    PolyQ,
    arith_poly,
    degree_k_divisors,
    divisors_of,
    factor_poly,
    format_poly,
    parse_poly,
    poly_arith,
)
from .intarith import IntFactorization, arith_int, c_nu, factor_int, is_prime
from .modstruct import (
    GDecomposition,
    RDecomposition,
    decompose_g,
    decompose_r,
    fq_order,
    in_Qrd,
    in_Sgk,
    in_TgkH,
    is_e_free,
    is_h_free,
    k_normality,
    m_poly,
    mod_action,
    xn1,
)
from .search import SearchOutcome, census, count_N, direct_search, search_pair

__version__ = "0.1.0"
