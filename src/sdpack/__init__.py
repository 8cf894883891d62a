"""Semidefinite packing problems: certificates, projections, low-rank
solutions, second-order cone reductions, and optimal experimental design."""

from . import analysis, conelp, linalg, model, reduce, solve
from .analysis import (BoundednessCertificate, GapBound, barvinok_pataki,
                       check_bounded, check_feasible, dual_scalar_bound,
                       nrt_bound)
from .errors import SdpackError
from .model import (CombinedProblem, CombinedSolution, Criterion,
                    DesignProblem, KktResiduals, PackingProblem,
                    ResourceBlock, Solution, Status, parse_problem,
                    parse_solution, serialize)
from .reduce import (LiftMap, ReducedProblem, ResourceSocpPair, SocCon,
                     SocpProblem, build_a_optimal, build_c_optimal,
                     build_e_optimal, build_resource_constrained,
                     combined_to_socp, lift_solution, project_packing,
                     to_socp_rank1)
from .solve import (SocpResult, SolveOptions, SolveReport, kkt_check,
                    recover_design, solve_combined_dual, solve_combined_eta,
                    solve_packing_lowrank, solve_sdp, solve_socp)

__all__ = [
    "analysis", "conelp", "linalg", "model", "reduce", "solve",
    "SdpackError",
    "BoundednessCertificate", "GapBound", "barvinok_pataki", "check_bounded",
    "check_feasible", "dual_scalar_bound", "nrt_bound",
    "CombinedProblem", "CombinedSolution", "Criterion", "DesignProblem",
    "KktResiduals", "PackingProblem", "ResourceBlock", "Solution", "Status",
    "parse_problem", "parse_solution", "serialize",
    "LiftMap", "ReducedProblem", "ResourceSocpPair", "SocCon", "SocpProblem",
    "build_a_optimal", "build_c_optimal", "build_e_optimal",
    "build_resource_constrained", "combined_to_socp", "lift_solution",
    "project_packing", "to_socp_rank1",
    "SocpResult", "SolveOptions", "SolveReport", "kkt_check",
    "recover_design", "solve_combined_dual", "solve_combined_eta",
    "solve_packing_lowrank", "solve_sdp", "solve_socp",
]

__version__ = "0.1.0"
