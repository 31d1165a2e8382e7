"""Exact stratification of the m x n complex matrix space into torus orbits
of symplectic leaves: Bruhat-cell rank conditions, the quadruple bijection,
echelon factorizations, generalized double Bruhat cells, and a seeded
cross-validation harness.  All arithmetic is exact rational."""

from .cells import B_MINUS, B_PLUS, classify, pp_rank_profile
from .double_bruhat import (DoubleCellIndex, classify_double, decompose,
                            dense_orbit, is_nonempty, nonempty_by_completion)
from .echelon import (EchelonPattern, column_pattern, in_pattern, leaf_factors,
                      parse_pattern, row_pattern, stratify_pattern)
from .exact_matrix import (RationalMatrix, from_json, from_text, load_matrix,
                           rank, rank_profile, sample_echelon_col,
                           sample_echelon_row, sample_rank)
from .harness import CAMPAIGNS, VerificationReport, replay, run
from .leaves import (LeafIndex, classify_leaf, closure_leq, enumerate_leaves,
                     hasse, hasse_dot, in_leaf, leaf_profile)
from .permutations import (PartialPerm, Perm, block_longest, bruhat_leq,
                           identity, length, longest, parse_partial, subset_leq)
from .sigma import (SigmaTuple, decompose_partial, enumerate_sigma, phi,
                    phi_inv, phi_to_leaf)

__all__ = [name for name in dir() if not name.startswith("_")]
