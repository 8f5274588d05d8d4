"""Exception types shared across the toolkit."""


class ComcatError(Exception):
    """Base class for all toolkit errors."""


class InputError(ComcatError, ValueError):
    """Input the toolkit cannot accept: a malformed file or field, an
    unknown name, a bad size or setting.  The command line reports it as
    an input error (exit 2); it stays a ValueError for library callers."""


class DimensionMismatch(ComcatError):
    pass


class NotPointed(ComcatError):
    pass


class NotGenerating(ComcatError):
    pass


class MixedKindUnsupported(ComcatError):
    pass


class KindMismatch(ComcatError):
    pass


class NotNonsignalingState(ComcatError):
    pass


class ZeroProbabilityCondition(ComcatError):
    pass


class RemoteEvalMismatch(ComcatError):
    """Both-sides evaluation disagreed; indicates an internal coordinate bug."""


class NotAMorphism(ComcatError):
    pass


class ZeroMap(ComcatError):
    pass


class UnsupportedKind(InputError):
    """A search refused its input: a quantum model given to an exact-only
    search, or a polyhedral one with more extreme rays than the ray
    matching enumerates.  The message names the search and the model."""


class InvalidStructure(ComcatError):
    pass


class DegenerateTriple(ComcatError):
    pass


class SingularMatrix(ComcatError):
    pass
