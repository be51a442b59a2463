"""Exception types shared across the package."""


class ParameterDomainError(ValueError):
    """A physical or modelling parameter is outside its admissible range."""


class IllPosedParametersError(ParameterDomainError):
    """The dispersion coefficients violate the linear well-posedness conditions."""


class UnsupportedCaseError(RuntimeError):
    """The requested operation is not defined for this coefficient case."""


class GridMismatchError(ValueError):
    """Arrays or fields do not live on the expected grid."""


class ConfigError(ValueError):
    """A run configuration file or flag set is invalid."""


class SnapshotFormatError(ValueError):
    """A file is not a well-formed BFDv1 snapshot."""
