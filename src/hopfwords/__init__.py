"""Free bialgebra on a partitioned alphabet, its matrix-representation
calculus, and recognizable series with Hankel-rank learning.

The public names are loaded on first access (PEP 562): importing the
package loads no layer, and a name loads only its defining layer and the
layers that one imports."""

import sys

# layer module -> the public names it defines, in the module order
_EXPORTS = {
    "errors": ("DomainError", "HopfwordsError", "InconclusiveError", "InternalInvariantError", "ParseError"),
    "freealg": (
        "Alphabet", "Letter", "LetterKind", "NCPoly", "Tensor2", "Tensor3", "Word", "antipode",
        "coassoc_lhs", "coassoc_rhs", "conc", "coproduct", "coproduct_word", "counit", "poly_mul",
        "splittings", "tensor2_mul",
    ),
    "linalg": ("Matrix",),
    "rep": (
        "LinRep", "MatRep", "conv_rep", "direct_sum", "dual_action", "eval_rep", "eval_word",
        "pairing_invariance_check", "rep_sum", "scale_rep", "tensor_rep", "trivial_rep", "zero_rep",
    ),
    "dualforms": (
        "FiniteSupportSeries", "RecognizableSeries", "Series", "coefficients_agree", "convolve",
        "dual_unit", "embed_finite", "pair",
    ),
    "sweedler": (
        "HankelSlice", "behavior_table", "dual_counit", "hankel", "hankel_rank", "learn",
        "reps_equal", "shift_left", "shift_right", "split", "transpose_antipode",
    ),
}
_SOURCE = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    layer = name if name in _EXPORTS else _SOURCE.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own machinery, so -X importtime lists the layer
    __import__(f"{__name__}.{layer}")
    module = sys.modules[f"{__name__}.{layer}"]
    if layer == name:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
