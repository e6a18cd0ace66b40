"""Exact-arithmetic toolkit for finite-stage universal-set constructions
over Cantor and Baire space.

The names re-exported here resolve on first use: ``from idealis import
null_member`` imports ``idealis.nullset`` then, and ``import idealis``
alone imports no submodule.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "space": (
        "BairePrefix", "BitWord", "Clopen", "CODING", "Tri", "canonicalize", "fsigma_member",
        "matrix_entry", "max_level", "pack_rows", "pair", "seq_code", "seq_decode", "tri_or",
        "unpair",
    ),
    "enumerations": (
        "BaireCylinder", "basic_open", "clopen_enum", "clopen_rank", "kcomb_rank",
        "kcomb_unrank", "kprime", "lex_word",
    ),
    "countable": ("CountableParam", "countable_encode", "countable_member"),
    "meager": (
        "DenseOpenParam", "IntervalPartition", "MeagerParam", "dense_open_encode",
        "dense_section_stage", "fxp_eval", "meager_encode", "meager_eval", "partition_from",
    ),
    "nullset": (
        "CoverFamily", "NullParam", "null_encode", "null_member", "null_stage", "null_term",
    ),
    "closed_null": (
        "EParam", "ETripleParam", "e_fsigma_member", "e_open_encode", "e_open_stage", "e_term",
    ),
    "domination": (
        "KsigmaParam", "LaverParam", "dominated_from", "ksigma_diagonal", "ksigma_encode",
        "laver_encode", "laver_witnesses",
    ),
    "fubini": (
        "DensityProxy", "ProductParam", "ProductPoint", "SomewhereDenseProxy", "deinterleave",
        "interleave", "product_encode", "product_member", "section_diagnostic",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    # an unknown name raises AttributeError, so that `from idealis import
    # nullset` falls through to importing the submodule
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return __all__
