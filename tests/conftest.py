"""Settings shared by the test modules."""

import tempfile
from pathlib import Path

from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis caches the constants of the source files at collection time, even
# with database=None; keep that cache out of the checkout
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "quaddyn-hypothesis")
