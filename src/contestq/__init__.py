"""Exact-arithmetic toolkit for pure Nash equilibria in review contests."""

from .errors import (
    CapExceededError,
    ContestError,
    ContigufyError,
    GameValidationError,
    PreconditionError,
)
from .game import (
    ContestGame,
    CostFunction,
    Deviation,
    Participation,
    PneResult,
    StabilityKernel,
    is_pne,
    load_of,
    utilities,
    utility,
)
from .payments import (
    Classification,
    PaymentFunction,
    PaymentKind,
    classify,
    compositions,
    equal_sharing,
    evaluate_payment,
    ktop,
    normalization_constant,
    oblivious_table,
    payment_on_loads,
    player_invariant_table,
    player_specific_table,
    proportional,
)
from .potential import (
    build_potential_cache,
    potential,
    potential_ascent,
    require_exact_potential,
)
from .dynamics import (
    GraphAnalysis,
    ImprovementGraph,
    NoSwitchReport,
    PathResult,
    PathStatus,
    Policy,
    analyze_graph,
    analyze_improvement_graph,
    build_improvement_graph,
    check_no_switch_lemma,
    improvement_steps,
    run_improvement_path,
    to_dot,
)
from .solvers import (
    BruteForceResult,
    ConcavityReport,
    ContiguousAssignment,
    SolveOutcome,
    brute_force_pne,
    contigufy,
    contiguous_assignment,
    is_three_discrete_concave_invariant,
    is_three_discrete_concave_specific,
    reduce_from_normal_form,
    skill_order,
    solve_all_at_lowest,
    solve_contiguous_invariant,
    solve_contiguous_specific,
)
from .instances import (
    CertificateReport,
    NamedInstance,
    build,
    random_game,
    verify_certificate,
)
from .gamefile import load_game, parse_game, save_game, serialize_game
from .rationals import format_rational, parse_rational

__version__ = "0.1.0"
