"""The exit category and code every error class declares."""

from aadkit import errors

# class -> (category after "error:", exit code) as the command line prints
# and returns them; None is the command's own I/O code (3 for synth and
# envelope, 4 for the other commands)
EXIT_TABLE = {
    "AadError": ("data", 4),
    "ConfigError": ("config", 2),
    "NumericError": ("numeric", 5),
    "BadConfig": ("config", 2),
    "BadProtocolConfig": ("config", 2),
    "EmptyGrid": ("config", 2),
    "InvalidBand": ("config", 2),
    "UnknownTask": ("config", 2),
    "SingularSystem": ("numeric", 5),
    "NonConvergence": ("numeric", 5),
    "NotSpd": ("numeric", 5),
    "SingularScatter": ("numeric", 5),
    "IoError": ("io", None),
    "DimensionMismatch": ("data", 4),
    "LengthMismatch": ("data", 4),
    "BadChannelIndex": ("data", 4),
    "IrrationalRatio": ("data", 4),
    "BadLag": ("data", 4),
    "DegenerateClass": ("data", 4),
    "ManifestError": ("data", 4),
    "ShapeMismatch": ("data", 4),
}


def test_every_error_class_is_in_the_exit_table():
    """A new error class fails here until its category is chosen."""
    declared = {
        name: (cls.category, cls.exit_code)
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.AadError)
        and cls.__module__ == errors.__name__
    }
    assert declared == EXIT_TABLE
