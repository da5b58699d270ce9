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
from .gjp import GJPIndex, eval_J, eval_phi, eval_psi, legendre_expansion_J
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


def _pinned(route, order, name):
    """`route` under the per-order `name`, refusing records of the other order."""

    def pinned(record, *args, **kwargs):
        if record.order != order:
            raise ValueError(f"{name} takes an order-{order} record, "
                             f"got a {type(record).__name__}")
        return route(record, *args, **kwargs)

    pinned.__name__ = pinned.__qualname__ = name
    pinned.__doc__ = route.__doc__
    return pinned


# per-order names of the general route, defined here and nowhere else
solve_third = _pinned(solve, 3, "solve_third")
solve_fifth = _pinned(solve, 5, "solve_fifth")
assemble_third = _pinned(assemble, 3, "assemble_third")
assemble_fifth = _pinned(assemble, 5, "assemble_fifth")
lift_third = _pinned(boundary_lift, 3, "lift_third")
lift_fifth = _pinned(boundary_lift, 5, "lift_fifth")
rhs_projection_third = partial(rhs_projection, 3)
rhs_projection_fifth = partial(rhs_projection, 5)
solve_diagonal_third = partial(solve_diagonal, 3)
solve_diagonal_fifth = partial(solve_diagonal, 5)
