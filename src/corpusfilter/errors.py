"""Exception hierarchy shared across the toolkit.

Three exit-code families for the CLI: configuration problems, data
problems, and remote embedding provider problems.
"""


class ToolkitError(Exception):
    exit_code = 1


class ConfigError(ToolkitError):
    exit_code = 2


class DataError(ToolkitError):
    exit_code = 3


class RemoteProviderError(ToolkitError):
    exit_code = 4


# corpus_io
class EmptyCorpusError(DataError):
    pass


# embedding
class EmptyInputError(DataError):
    pass


class ZeroVectorError(DataError):
    pass


class DimensionMismatchError(DataError):
    pass


class RemoteUnavailableError(RemoteProviderError):
    pass


# classifier
class EmptyDataError(DataError):
    pass


class SingleClassDataError(DataError):
    pass


class ScoreOutOfRangeError(DataError):
    pass


# thresholds
class EmptyScoresError(DataError):
    pass


class PercentileOutOfRangeError(ConfigError):
    pass


class MissingScoreError(DataError):
    pass


# clustering
class TooFewPointsError(DataError):
    pass


class EmptyDatasetError(DataError):
    pass


class LengthMismatchError(DataError):
    pass


class EmptyHistogramError(DataError):
    pass


class NonFinitePointError(DataError):
    pass


class ClusterCountError(ConfigError):
    pass


class IterationCountError(ConfigError):
    pass


# planner
class MissingLanguageBudgetError(ConfigError):
    pass


class ZeroAvailabilityError(ConfigError):
    pass
