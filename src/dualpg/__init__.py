"""Dual Petrov-Galerkin spectral solver for odd-order two-point BVPs.

Solves constant-coefficient third- and fifth-order boundary value problems
on (-1, 1) with generalized Jacobi trial/test bases built to satisfy the
boundary conditions and their duals.  The discrete systems are four- and
six-band matrices solved by LU without pivoting in O(N) operations.  Both
orders run through one route, `solve(problem, N)`, parametrized by the
order's `OrderSpec`.
"""
from functools import partial

from .analysis import (
    ConditionReport,
    SpectralSolution,
    condition_diagonal,
    condition_full,
    evaluate_solution,
    max_pointwise_error,
    solve,
    solve_system,
)
from .assembly import (
    BandSystem,
    FifthOrderBC,
    FifthOrderProblem,
    LiftPolynomial,
    ThirdOrderBC,
    ThirdOrderProblem,
    assemble,
    boundary_lift,
    modified_rhs,
    operator_entry_oracle,
    rhs_projection,
)
from .banded import (
    BandedMatrix,
    OpCount,
    SingularMatrixError,
    lu_factor_banded,
    solve_diagonal,
)
from .families import ExampleFamily, make_family
from .gjp import BasisFamily, GJPIndex, eval_J, eval_phi, eval_psi, legendre_expansion_J
from .jacobi import (
    ConvergenceError,
    JacobiParams,
    QuadratureRule,
    eval_R,
    eval_R_derivative,
    gauss_jacobi_rule,
    norm_h,
    pochhammer,
)
from .orders import OrderSpec, order_spec

__version__ = "0.1.0"

# per-order names of the general route, defined here and nowhere else
solve_third = solve_fifth = solve
assemble_third = assemble_fifth = assemble
lift_third = lift_fifth = boundary_lift
rhs_projection_third = partial(rhs_projection, 3)
rhs_projection_fifth = partial(rhs_projection, 5)
solve_diagonal_third = partial(solve_diagonal, 3)
solve_diagonal_fifth = partial(solve_diagonal, 5)
