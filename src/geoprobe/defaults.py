"""Run defaults shared by the config, the engine, the planner and the executor."""

DEFAULT_MAX_STEPS = 12
DEFAULT_MAX_PARALLEL = 4
DEFAULT_CONTEXT_BUDGET = 4000
