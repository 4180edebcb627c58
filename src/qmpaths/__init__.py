"""Quantum matrices by lattice paths.

Exact computation with the quantized coordinate ring of m x n matrices and
its interpolating relatives, realized inside a quantum torus via weighted
paths in the directed graph of a Cauchon diagram: generator path sums,
quantum minors by vertex-disjoint path systems, deleting/adding derivation
maps, and minor Groebner bases for the torus-invariant primes.
"""

from .coeff import LAM, ONE, Q, Q_INV, ZERO, LaurentScalar, q_power
from .torus import Coord, MonoKey, Shape, TorusElement, mono_key, t_gen
from .straighten import GradeVector, QmPoly, Threshold, grade, leading_term, swap_adjacent, term_divides
from .cauchon import (
    CauchonGraph,
    Diagram,
    build_graph,
    col_vertex,
    enumerate_cauchon_diagrams,
    enumerate_gamma,
    enumerate_vdps,
    export_dot,
    generator,
    generator_matrix,
    is_cauchon,
    path_weight,
    row_vertex,
    vdps_infimum,
    vdps_supremum,
    white_vertex,
)
from .minors import (
    HPrimeHandle,
    MinorSpec,
    dd_backward,
    dd_forward,
    kernel_member,
    lindstrom_eval,
    minor_in_kernel,
    minor_poly,
    quantum_determinant,
    sigma,
)
from .groebner import (
    GroebnerBasis,
    groebner_basis,
    groebner_check,
    hprime_minors,
    minimal_groebner,
    minimal_groebner_basis,
    reduce,
)

__version__ = "0.1.0"
