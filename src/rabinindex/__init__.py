"""Rabin index toolkit for parity games under the min-parity convention.

Core pieces: arena and game types with PGSolver-format I/O, the color
reduction in exact (a cycle pass, then the alpha form, iterated) and
abstract variants, static color compression, a Zielonka solver with
independent solution verification, brute-force oracles for small
instances and benchmark game generators.
The CSV benchmark harness, :mod:`rabinindex.bench`, is not imported here.
The import loads only small standard-library modules such as ``re``,
``enum`` and ``random``: the value classes derive from
:class:`rabinindex.arena.Record`, not from a class decorator that would
bring ``inspect`` and ``ast``.  No module of the package, the harness
included, imports ``dataclasses`` or ``typing``.
"""

from .arena import Arena, Coloring, NodeId, ParityGame, Solution, cycle_color, index
from .cycles import (
    CycleAnswer,
    NodeCapExceeded,
    SearchBudget,
    enumerate_simple_cycles,
    simple_cycle_with_max_color,
    strongly_connected_subsets,
)
from .generators import (
    FAMILY_NAMES,
    RandomConfig,
    gen_clique,
    gen_family,
    gen_hardness_gadget,
    gen_jurdzinski,
    gen_ladder,
    gen_model_checker_ladder,
    gen_random,
    gen_recursive_ladder,
    gen_tower_of_hanoi,
)
from .oracles import (
    brute_force_rabin_index,
    brute_force_winners,
    colorings_equivalent,
    cycle_families,
    equivalence_witness,
    fixpoint_violations,
    outcome_profile,
)
from .pgsolver import (
    PGSolverError,
    parse_pgsolver,
    parse_solution,
    write_pgsolver,
    write_solution,
)
from .reduction import (
    OracleMode,
    ReductionAborted,
    ReductionReport,
    abstract_membership,
    rabin,
    static_compress,
)
from .solver import VerificationResult, verify_solution, zielonka_solve

__version__ = "0.1.0"

__all__ = [
    "Arena",
    "Coloring",
    "CycleAnswer",
    "FAMILY_NAMES",
    "NodeCapExceeded",
    "NodeId",
    "OracleMode",
    "PGSolverError",
    "ParityGame",
    "RandomConfig",
    "ReductionAborted",
    "ReductionReport",
    "SearchBudget",
    "Solution",
    "VerificationResult",
    "abstract_membership",
    "brute_force_rabin_index",
    "brute_force_winners",
    "colorings_equivalent",
    "cycle_color",
    "cycle_families",
    "enumerate_simple_cycles",
    "equivalence_witness",
    "fixpoint_violations",
    "gen_clique",
    "gen_family",
    "gen_hardness_gadget",
    "gen_jurdzinski",
    "gen_ladder",
    "gen_model_checker_ladder",
    "gen_random",
    "gen_recursive_ladder",
    "gen_tower_of_hanoi",
    "index",
    "outcome_profile",
    "parse_pgsolver",
    "parse_solution",
    "rabin",
    "simple_cycle_with_max_color",
    "static_compress",
    "strongly_connected_subsets",
    "verify_solution",
    "write_pgsolver",
    "write_solution",
    "zielonka_solve",
]
