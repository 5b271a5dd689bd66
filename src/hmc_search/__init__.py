"""Gridworld pollution search: option-based Monte Carlo agent vs. fixed patterns.

The package splits into small layers: `env` holds the grid and cloud
mechanics, `policy` the value table and option selection, `training`
the episode loop, `baselines` the deterministic snake and spiral
sweeps, `evalharness` scoring and duels, and `sweep` parameter tuning.
"""
from .baselines import (
    PatternPath,
    ring_insets,
    snake_path,
    spiral_path,
    steps_to_find,
    sweep_rows,
)
from .env import (
    DIRECTION_NAMES,
    START,
    Cloud,
    CloudField,
    WordTape,
    make_cloud,
    make_rng,
    move,
    sense,
    spawn_clouds,
)
from .evalharness import (
    DuelOutcome,
    EvalStats,
    agent_route,
    evaluate_agent,
    population_stats,
    route_heatmap,
    run_duels,
    score_map,
)
from .policy import (
    OptionOutcome,
    execute_option,
    mc_update,
    option_stride,
    option_terminal,
    q_update,
    read_qtable_csv,
    record_visits,
    select_option,
    write_qtable_csv,
)
from .sweep import (
    SweepSpec,
    load_plan,
    run_sweep,
    tuning_loop,
)
from .training import (
    Hyperparams,
    TrainReport,
    Trajectory,
    dynamic_demo,
    run_episode,
    static_demo,
    train_agent,
)

__version__ = "0.1.0"
