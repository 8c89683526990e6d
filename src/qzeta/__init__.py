"""Exact q-series toolkit.

Truncated power series over exact rings, multiple q-zeta value generators,
quasi-modular form decomposition, and Heisenberg-operator trace engines over
Hilbert-scheme Fock spaces, with a verification registry for the identities
the toolkit is built around.
"""

from .ring import (MPoly, MPolyRing, QSeries, euler_pow, geometric,
                   lambert_term, series_from_json, series_to_json)
from .zeta import (IndexPoly, LinearForm, NestedSumSpec, SumFactor, SumTerm,
                   bernoulli, bracket, builtin_sums, eisenstein, eulerian,
                   eval_named, eval_nested_sum, z_series)
from .qmforms import (NotInSpan, QMBasis, QMDecomposition, decompose,
                      decompose_mpoly, qm_basis)
from .fock import (CohClass, DecoratedOp, SurfaceModel, chern_op, commutator,
                   equiv_chern_op, equiv_trace, fock_trace_bruteforce,
                   gamma_commutation_check, gamma_trace, gamma_trace_sum,
                   trace_product, vertex_trace, vertex_trace_sum)
from .pipeline import (CheckResult, FSeriesSpec, ch1ch1_reduced, equiv_ch1ch1,
                       f111_component_check, f_series_reduced, run_checks)

__all__ = [
    "MPoly", "MPolyRing", "QSeries", "euler_pow", "geometric", "lambert_term",
    "series_from_json", "series_to_json",
    "IndexPoly", "LinearForm", "NestedSumSpec", "SumFactor", "SumTerm",
    "bernoulli", "bracket", "builtin_sums", "eisenstein", "eulerian",
    "eval_named", "eval_nested_sum", "z_series",
    "NotInSpan", "QMBasis", "QMDecomposition", "decompose", "decompose_mpoly",
    "qm_basis",
    "CohClass", "DecoratedOp", "SurfaceModel", "chern_op", "commutator",
    "equiv_chern_op", "equiv_trace", "fock_trace_bruteforce",
    "gamma_commutation_check", "gamma_trace", "gamma_trace_sum",
    "trace_product", "vertex_trace", "vertex_trace_sum",
    "CheckResult", "FSeriesSpec", "ch1ch1_reduced", "equiv_ch1ch1",
    "f111_component_check", "f_series_reduced", "run_checks",
]
