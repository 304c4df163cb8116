# Keeps the tests directory importable (the acceptance suite reuses the
# label-spec generators from test_arclabel).

from hypothesis import settings

# Property tests draw the same examples in every run, locally and in CI.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
