import pytest
from hypothesis import settings

from aspectarg.algebra import Element, mk_algebra
from aspectarg.formulas import ElementReader

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
    """The element a formula string reads to, in the two-proposition algebra."""

    def _ev(text, algebra=None):
        algebra = algebra or fig1
        return Element(algebra, ElementReader(algebra).read(text))

    return _ev
