import pytest
from hypothesis import settings

from aspectarg.algebra import mk_algebra
from aspectarg.formulas import evaluate, parse

# Property tests draw the same examples on every run, and a slow spell of a
# shared machine cannot fail them on a deadline.
settings.register_profile("aspectarg", derandomize=True, deadline=None)
settings.load_profile("aspectarg")


@pytest.fixture
def fig1():
    """The two-proposition algebra used throughout the worked examples."""
    return mk_algebra(["x", "y"])


@pytest.fixture
def ev(fig1):
    """Evaluate a formula string in the two-proposition algebra."""

    def _ev(text, algebra=None):
        return evaluate(parse(text), algebra or fig1)

    return _ev
