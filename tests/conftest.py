from hypothesis import settings

# Property tests draw the same examples on every run and have no per-example
# time limit, so a loaded machine cannot make them flake.
settings.register_profile("actionseg", derandomize=True, deadline=None)
settings.load_profile("actionseg")
