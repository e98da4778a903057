"""Exception hierarchy shared across the toolkit.

The library raises one of three exit-code families, each of which the CLI
maps to its exit code: `ConfigError` (2) for configuration problems,
`DataError` (3) for data problems and `RemoteProviderError` (4) for the
remote embedding provider. The message tells one failure from another.
`DimensionMismatchError` and `MissingScoreError` are the only subclasses,
both `DataError`s.
"""


class ToolkitError(Exception):
    exit_code = 1


class ConfigError(ToolkitError):
    exit_code = 2


class DataError(ToolkitError):
    exit_code = 3


class RemoteProviderError(ToolkitError):
    exit_code = 4


class DimensionMismatchError(DataError):
    pass


class MissingScoreError(DataError):
    pass
