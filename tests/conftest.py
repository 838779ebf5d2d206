"""One hypothesis profile for the whole suite.

Property tests run a fixed, derandomized sequence of examples with no
deadline and no example database, so a run is reproducible and leaves
nothing behind; each test sets only its own `max_examples`.
"""

from hypothesis import settings

settings.register_profile("fibrecheck", deadline=None, derandomize=True, database=None)
settings.load_profile("fibrecheck")
