"""Exact-arithmetic toolkit for finite-stage universal-set constructions
over Cantor and Baire space."""

__version__ = "0.1.0"

from .space import (  # noqa: F401
    BairePrefix,
    BitWord,
    Clopen,
    CODING,
    Dyadic,
    Tri,
    canonicalize,
    fsigma_member,
    matrix_entry,
    max_level,
    pack_rows,
    pair,
    seq_code,
    seq_decode,
    tri_or,
    unpair,
)
from .enumerations import (  # noqa: F401
    BaireCylinder,
    basic_open,
    clopen_enum,
    clopen_rank,
    kcomb_rank,
    kcomb_unrank,
    kprime,
    lex_word,
)
from .countable import CountableParam, countable_encode, countable_member  # noqa: F401
from .meager import (  # noqa: F401
    DenseOpenParam,
    IntervalPartition,
    MeagerParam,
    dense_open_encode,
    dense_section_stage,
    fxp_eval,
    meager_encode,
    meager_eval,
    partition_from,
)
from .nullset import (  # noqa: F401
    CoverFamily,
    NullParam,
    null_encode,
    null_member,
    null_stage,
    null_term,
)
from .closed_null import (  # noqa: F401
    EParam,
    ETripleParam,
    e_fsigma_member,
    e_open_encode,
    e_open_stage,
    e_term,
)
from .domination import (  # noqa: F401
    KsigmaParam,
    LaverParam,
    dominated_from,
    ksigma_diagonal,
    ksigma_encode,
    laver_encode,
    laver_witnesses,
)
from .fubini import (  # noqa: F401
    DensityProxy,
    ProductParam,
    ProductPoint,
    SomewhereDenseProxy,
    deinterleave,
    interleave,
    product_encode,
    product_member,
    section_diagnostic,
)
