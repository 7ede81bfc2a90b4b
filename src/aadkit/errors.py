"""Exception hierarchy shared by all aadkit modules.

Each class declares the category the command line prints for it
(``error: <category>: ...``) and the code it exits with:

- ``config`` (2): a setting, grid, protocol or band that cannot be run;
  the classes under ``ConfigError``.
- ``io`` (3 for synth and envelope, 4 for the other commands): a file
  that cannot be read or written; ``IoError``, whose ``exit_code`` is
  None because the command sets it.
- ``data`` (4): input that is read but unfit for its use; ``AadError``
  and every class that declares nothing else.
- ``numeric`` (5): a solver that fails on its input; the classes under
  ``NumericError``.
"""


class AadError(Exception):
    """Base class for all aadkit errors."""

    category = "data"
    exit_code = 4


class ConfigError(AadError):
    category = "config"
    exit_code = 2


class NumericError(AadError):
    category = "numeric"
    exit_code = 5


class DimensionMismatch(AadError):
    pass


class LengthMismatch(DimensionMismatch):
    pass


class SingularSystem(NumericError):
    pass


class NonConvergence(NumericError):
    pass


class NotSpd(NumericError):
    pass


class InvalidBand(ConfigError):
    pass


class BadChannelIndex(AadError):
    pass


class IrrationalRatio(AadError):
    pass


class BadLag(AadError):
    pass


class DegenerateClass(AadError):
    pass


class SingularScatter(NumericError):
    pass


class BadProtocolConfig(ConfigError):
    pass


class EmptyGrid(ConfigError):
    pass


class ManifestError(AadError):
    pass


class ShapeMismatch(AadError):
    pass


class UnknownTask(ConfigError):
    pass


class BadConfig(ConfigError):
    pass


class IoError(AadError):
    category = "io"
    exit_code = None
