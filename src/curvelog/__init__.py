"""Symbolic and numeric hyperlogarithms on the punctured sphere.

The pieces compose in layers: exact Gaussian-rational scalars and shuffle
word combinatorics at the bottom, rational functions and differentials on
the curve above them, then numeric iterated integration along explicit
paths, and on top the derived conveniences: monodromy operators, single
valued regularized values, exact normal forms, and local log expansions.
"""

from types import ModuleType as _ModuleType

from .curve_genus0 import (DeRhamClass, Differential, PoleSet,
                           RationalFunction, Section, d, decompose, dlog)
from .errors import (AlphabetError, BudgetError, CurvelogError, DomainError,
                     InputError, NumericError, PathError)
from .hyperlog import (HyperlogValue, RegularizedWord, eval_L, eval_batch,
                       mzv, reference_point, regularize, word_for_exponents,
                       zero_label)
from .iterint import (ArcSeg, GroupLikeSeries, IntegratorConfig, LineSeg,
                      Path, integrate_h_words, integrate_words, j_element,
                      label_words, plan_path)
from .local_expansion import LogLaurentExpansion, expand_at
from .monodromy import (Loop, circle_loop, loop_around, monodromy_operator,
                        pairing, period_matrix, unipotence_check)
from .reduce import (KernelWitness, NormalForm, d_map, decompose_subker,
                     default_basepoint, kernel_member, nabla_sigma,
                     normal_form)
from .scalars import QI, parse_exact_complex
from .shuffle_core import (ShuffleTensor, antipode, coradical_member, r_xi,
                           shuffle, shuffle_words, tensor_from_json,
                           tensor_to_json, word_label, word_sort_key)

__version__ = "0.1.0"

# the public names, without the submodules that importing them binds
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
