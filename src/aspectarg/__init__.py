"""Theme aspect argumentation models with constraint-based fallacy checking.

The package represents an argumentation as a typed statement graph plus a
finite Boolean algebra of aspects and an interpretation mapping statements
to aspect sets.  Checkers classify a model as normal or fallacious against
chosen constraint groups, and acceptability semantics turn theme sub-models
into logico-rhetorical conclusions whose inconsistency exposes logical
fallacies.
"""

from .algebra import Algebra, Element, mk_algebra
from .constraints import (
    ALPHA_GROUPS,
    NormalFormVerdict,
    check_core,
    check_das,
    check_exact_region,
    check_fresh_aspects,
    check_graphic,
    check_nwci,
    classify_normal_form,
    classify_relations,
    recheck,
)
from .formulas import parse, render_element
from .model import (
    AspectSet,
    Interpretation,
    Model,
    Relation,
    Statement,
    Violation,
    effective_aspect,
    lookup,
    validate_wellformed,
)
from .modelfile import Document, load_path
from .semantics import (
    LogicalFallacyVerdict,
    detect_logical_fallacy,
    extensions,
    logico_rhetorical_conclusion,
    sub_model,
)
from .statements_sets import contains_redundancy
from .synthesis import synthesize_core_witness

__version__ = "0.1.0"
