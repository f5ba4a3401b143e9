"""Symbolic and numeric hyperlogarithms on the punctured sphere.

The pieces compose in layers: exact Gaussian-rational scalars and shuffle
word combinatorics at the bottom, rational functions and differentials on
the curve above them, then numeric iterated integration along explicit
paths, and on top the derived conveniences: monodromy operators, single
valued regularized values, exact normal forms, and local log expansions.
"""

from .curve_genus0 import (DeRhamClass, Differential, PoleSet,
                           RationalFunction, Section, d, decompose, dlog)
from .errors import (AlphabetError, BudgetError, CurvelogError, DomainError,
                     InputError, NumericError, PathError)
from .hyperlog import (HyperlogValue, RegularizedWord, eval_L, eval_batch,
                       is_admissible, mzv, reference_point, regularize,
                       word_for_exponents, zero_label)
from .iterint import (ArcSeg, GroupLikeSeries, IntegratorConfig, LineSeg,
                      Path, chain_rule_check, integrate_h_words,
                      integrate_words, j_element, kz_specialization_check,
                      label_words, nabla_sigma, plan_path,
                      shuffle_identity_check)
from .local_expansion import (LogLaurentExpansion, expand_at,
                              monodromy_substitution)
from .monodromy import (Loop, MonodromyOperator, circle_loop, loop_around,
                        monodromy_operator, pairing, period_matrix,
                        unipotence_check)
from .reduce import (KernelWitness, NormalForm, d_map, decompose_subker,
                     default_basepoint, kernel_member, normal_form)
from .scalars import QI, parse_exact_complex
from .shuffle_core import (Letter, ShuffleTensor, antipode, coradical_member,
                           deconcat, deconcat_multi, deriv_right, r_xi,
                           shuffle, shuffle_power, shuffle_words,
                           tensor_from_json, tensor_to_json, word_label,
                           word_sort_key)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
