"""Exception types shared across the package."""


class DplabError(Exception):
    """Base class for all errors raised by this package."""


class ArgumentError(DplabError, ValueError):
    """An argument is outside its documented domain."""


class ConfigError(DplabError, ValueError):
    """An experiment configuration failed validation.

    ``path`` locates the offending field, e.g. ``"truncation.epsilon"``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)
