"""Symbolic and numeric hyperlogarithms on the punctured sphere.

The pieces compose in layers: exact Gaussian-rational scalars and shuffle
word combinatorics at the bottom, rational functions and differentials on
the curve above them, then numeric iterated integration along explicit
paths, and on top the derived conveniences: monodromy operators, single
valued regularized values, exact normal forms, and local log expansions.

``import curvelog`` loads no submodule. A public name is bound on first
use (PEP 562), and importing a submodule, by any route, binds all of its
public names in the package at once. The exact layer (``errors``,
``scalars``, ``shuffle_core``, ``curve_genus0`` and ``reduce``) imports
no numpy, so exact work never loads it.
"""

import importlib as _importlib
import sys as _sys
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

# the public names of each submodule, bound here when it is imported
_EXPORTS = {
    "curve_genus0": ("DeRhamClass", "Differential", "PoleSet",
                     "RationalFunction", "Section", "d", "decompose", "dlog"),
    "errors": ("AlphabetError", "BudgetError", "CurvelogError", "DomainError",
               "InputError", "NumericError", "PathError"),
    "hyperlog": ("HyperlogValue", "RegularizedWord", "eval_L", "eval_batch",
                 "mzv", "reference_point", "regularize", "word_for_exponents",
                 "zero_label"),
    "iterint": ("ArcSeg", "GroupLikeSeries", "IntegratorConfig", "LineSeg",
                "Path", "integrate_h_words", "integrate_words", "j_element",
                "label_words", "plan_path"),
    "local_expansion": ("LogLaurentExpansion", "expand_at"),
    "monodromy": ("Loop", "circle_loop", "loop_around", "monodromy_operator",
                  "pairing", "period_matrix", "unipotence_check"),
    "reduce": ("KernelWitness", "NormalForm", "d_map", "decompose_subker",
               "default_basepoint", "kernel_member", "nabla_sigma",
               "normal_form"),
    "scalars": ("QI", "parse_exact_complex"),
    "shuffle_core": ("ShuffleTensor", "antipode", "coradical_member", "r_xi",
                     "shuffle", "shuffle_words", "tensor_from_json",
                     "tensor_to_json", "word_label", "word_sort_key"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# the public names, without the submodules
__all__ = sorted(_HOME)


class _Package(_ModuleType):
    """The package module.  The import system sets each submodule here as
    an attribute once it has run, and its public names are bound with it,
    so every loaded module's names are bound before anything reads or
    patches them (the benchmark's tracer wraps every binding it finds)."""

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if isinstance(value, _ModuleType):
            for export in _EXPORTS.get(name, ()):
                super().__setattr__(export, getattr(value, export))


def __getattr__(name):
    home = _HOME.get(name, name)
    if home not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _importlib.import_module(f"{__name__}.{home}")
    return module if home == name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})


_sys.modules[__name__].__class__ = _Package
