"""Exception types shared across the package."""


class AspectArgError(Exception):
    """Base class for all errors raised by this package."""


class AlgebraError(AspectArgError):
    """Invalid algebra construction or mixed-algebra operation."""


class ConstraintGroupError(AspectArgError, ValueError):
    """An alpha names an unknown constraint group or leaves out core."""


class CapExceeded(AspectArgError):
    """A fixed size cap (props, themes, enumeration) was exceeded."""


class FormulaError(AspectArgError):
    """Aspect formula could not be parsed or evaluated.

    ``offset`` is the byte offset of the first offending character, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (at offset {offset})")
        self.offset = offset


class ModelError(AspectArgError):
    """Structurally invalid model or interpretation."""


class UnknownIdError(ModelError):
    """A theme or statement id was referenced but never declared."""


class ModelFileError(AspectArgError):
    """A model file does not conform to the file schema."""


class UsageError(AspectArgError):
    """A command line's options ask for nothing the command can do."""


class SynthesisError(AspectArgError):
    """Witness synthesis cannot proceed on this input."""


class GraphicPreconditionError(SynthesisError):
    """Synthesis precondition failed; ``constraints`` names the violated ones."""

    def __init__(self, constraints: list[str]):
        super().__init__("graphic constraints violated: " + ", ".join(constraints))
        self.constraints = constraints


class CoreUnsatisfiableError(SynthesisError):
    """No algebra/interpretation can satisfy the core constraints on this model."""
