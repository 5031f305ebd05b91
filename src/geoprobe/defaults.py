"""Episode defaults, shared by ``EpisodeSettings``, the executor and the HTTP pool."""

DEFAULT_MAX_STEPS = 12
DEFAULT_MAX_PARALLEL = 4
DEFAULT_CONTEXT_BUDGET = 4000

#: The most tool calls one step may run at once. ``execute_batch`` starts a
#: thread per call, so a config or a replayed trace header may ask for no more.
MAX_PARALLEL_LIMIT = 32
