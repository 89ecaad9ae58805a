"""Exception types shared by the library and the command-line front end."""


class ObliqError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(ObliqError):
    """Operands have incompatible or invalid dimensions."""


class UnknownLabelError(ObliqError):
    """A register label does not exist in the layout."""


class DuplicateLabelError(ObliqError):
    """A register label appears twice in one layout."""


class CapacityError(ObliqError):
    """An operation would exceed the configured dense-matrix capacity."""


class StateValidationError(ObliqError):
    """A state, channel, or program state violates its defining invariants."""


class BlockEncodingError(ObliqError):
    """A matrix fails the scalar-block condition required of block encodings."""


class LocalityError(ObliqError):
    """A party touched registers it does not hold."""


class ResourceError(ObliqError):
    """An entanglement resource was reused, never distributed, or leaked."""


class BranchError(ObliqError):
    """A measurement branch has (numerically) zero probability, or branch
    path probabilities do not sum to one."""


class EstimationError(ObliqError):
    """An estimator was fed an empty or malformed record stream."""


class ScenarioParseError(ObliqError):
    """Scenario file is not parseable structured text."""


class ScenarioSchemaError(ObliqError):
    """Scenario file parses but violates the schema."""


class ScenarioSemanticError(ObliqError):
    """Scenario is well-formed but semantically inconsistent."""
