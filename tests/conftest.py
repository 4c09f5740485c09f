import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# CI runs with --hypothesis-profile=ci: the same examples on every run, and a
# failure prints the blob that replays it with @reproduce_failure.
settings.register_profile("ci", derandomize=True, print_blob=True)

from pivotal import BINARY, ExplicitDist

F = Fraction


@pytest.fixture
def even_parity3() -> ExplicitDist:
    """Uniform on the four even-parity strings of length 3."""
    quarter = F(1, 4)
    return ExplicitDist(BINARY, 3, [
        ((0, 0, 0), quarter),
        ((0, 1, 1), quarter),
        ((1, 0, 1), quarter),
        ((1, 1, 0), quarter),
    ])
