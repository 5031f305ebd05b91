"""Episode defaults, shared by ``EpisodeSettings``, the planner and the HTTP pool."""

DEFAULT_MAX_STEPS = 12
DEFAULT_MAX_PARALLEL = 4
DEFAULT_CONTEXT_BUDGET = 4000
