"""Toolkit for rectangular matrix polynomials: ansatz-space pencils,
their reduction and trimming into strong linearizations, exact complete
eigenstructure, and backward-error experiments."""

from .errors import (MatPencilError, PreconditionError, SchemaError,
                     StructureError, VerificationError)
from .matpoly import (FIELD_FLOAT, FIELD_RATIONAL, MatPoly, h_dual,
                      lambda_vec, rect_identity, shear_s)
from .spaces import (SIDE_L1, SIDE_L2, AnsatzPencil, ansatz_membership,
                     build_l1, build_l2, companion_g1, companion_g2,
                     shifted_sum)
from .reduction import (TrimResult, certify_linearization, full_z_rank,
                        row_reduction, trim, verify_witnesses, z_rank)
from .minimal import (MODE_GLIN_L1, MODE_GLIN_L2, MODE_TRIMMED_L1,
                      MODE_TRIMMED_L2, SIDE_LEFT, SIDE_RIGHT, MinimalBasis,
                      embed_right, minimal_basis, project_ansatz,
                      recover_minimal)
from .eigenstructure import (EigStructure, Verdict, check_g_linearization,
                             check_linearization, complete_eigenstructure,
                             smith_form)
from .backward import (PerturbReport, appendix_lambda_min,
                       backward_constants, dual_completion,
                       perturbed_polynomial, run_experiment, sigma_min_tau,
                       summarize_experiment)

__all__ = [
    "MatPencilError", "PreconditionError", "SchemaError", "StructureError",
    "VerificationError", "FIELD_FLOAT", "FIELD_RATIONAL", "MatPoly",
    "h_dual", "lambda_vec", "rect_identity",
    "shear_s", "SIDE_L1", "SIDE_L2", "AnsatzPencil", "ansatz_membership",
    "build_l1", "build_l2", "companion_g1", "companion_g2", "shifted_sum",
    "TrimResult", "certify_linearization",
    "full_z_rank", "row_reduction", "trim",
    "verify_witnesses", "z_rank", "MODE_GLIN_L1", "MODE_GLIN_L2",
    "MODE_TRIMMED_L1", "MODE_TRIMMED_L2", "SIDE_LEFT", "SIDE_RIGHT",
    "MinimalBasis", "embed_right", "minimal_basis",
    "project_ansatz",
    "recover_minimal",
    "EigStructure", "Verdict",
    "check_g_linearization", "check_linearization",
    "complete_eigenstructure", "smith_form",
    "PerturbReport", "appendix_lambda_min",
    "backward_constants", "dual_completion", "perturbed_polynomial",
    "run_experiment", "sigma_min_tau", "summarize_experiment",
]
