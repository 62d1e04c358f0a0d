"""Shared test configuration.

Property tests run a fixed, derandomized set of examples with no example
database, so the suite is deterministic.  Hypothesis still caches Unicode
tables and source constants on disk; that cache goes to the temporary
directory rather than a .hypothesis/ directory in the working tree.
"""

import os
import tempfile

from hypothesis import settings

os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "mmalg-hypothesis")
)
settings.register_profile(
    "mmalg", derandomize=True, database=None, deadline=None, max_examples=50
)
settings.load_profile("mmalg")
