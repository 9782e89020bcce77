"""Reference bookkeeping for the tests: the Index Sum Theorem.

The package's walks use the theorem only to place a rank probe and never
total a report.  The tests check that every report balances: the finite
and infinite elementary divisor degrees plus the minimal indices add up
to grade times normal rank (De Terán, Dopico & Mackey, LAA 459, 2014).
"""


def structural_sum(es) -> int:
    """Sum of an EigStructure's elementary divisor degrees, finite and
    infinite, and of both lists of minimal indices."""
    return (es.finite_degree_sum() + sum(es.infinite)
            + sum(es.right_indices) + sum(es.left_indices))


def index_sum_check(es) -> bool:
    """Pencil bookkeeping: all structural degrees add up to the normal
    rank."""
    return structural_sum(es) == es.nrank
