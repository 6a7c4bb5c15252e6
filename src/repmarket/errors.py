"""Exception types shared across the package."""


class RepmarketError(Exception):
    """Base class for all repmarket errors."""


class Undefined(RepmarketError):
    """The data leave this result undefined: ordinary input at the studies'
    sizes, reported as null rather than failing the run."""


def or_null(fn, *args, **kwargs):
    """fn(*args, **kwargs), or None when the data leave it undefined."""
    try:
        return fn(*args, **kwargs)
    except Undefined:
        return None


class MissingColumn(RepmarketError):
    """A column named by the column mapping is absent from the file header."""

    def __init__(self, table: str, column: str):
        super().__init__(f"table {table!r} has no column {column!r}")
        self.table = table
        self.column = column


class MissingInput(RepmarketError, FileNotFoundError):
    """An input file, one of the three tables or a column mapping, does not exist."""

    def __init__(self, what: str, path):
        super().__init__(f"{what} file {str(path)!r} does not exist")


class UnreadableInput(RepmarketError):
    """An input file, one of the three tables or a column mapping, that exists
    but cannot be read as UTF-8 text (a directory, say)."""

    def __init__(self, what: str, path, reason: str):
        super().__init__(f"{what} file {str(path)!r} cannot be read: {reason}")


class NoInputPath(RepmarketError):
    """Neither an input table's option nor the data directory gives its path."""


class InvalidMapping(RepmarketError, ValueError):
    """A column mapping names a table, or a field of a table, that the schema lacks."""


class OutputNotADirectory(RepmarketError):
    """An output path that is not, and cannot be made, a directory."""


class UnknownFinding(RepmarketError):
    """A finding_id that does not exist in the dataset."""


class EmptyMarket(Undefined):
    """A market with no usable trades."""


class OutOfRange(RepmarketError, ValueError):
    """A setting lies outside the values its rule allows (a LOESS span or
    degree, a threshold, a cutoff, a liquidity, the size of a synthetic
    fixture)."""


class ReplayUnavailable(RepmarketError, ValueError):
    """Simulated replay lacks an input it needs (liquidity or recorded quantities)."""


class NonPositiveLiquidity(OutOfRange):
    """A liquidity parameter that is not finite and strictly positive."""


class MarketSettled(RepmarketError):
    """Operation requires an open market."""


class UnknownTrader(RepmarketError):
    """Trader has no ledger in this market."""


class InsufficientTokens(RepmarketError):
    """Trade would drive the trader's token balance below zero."""


class InsufficientHoldings(RepmarketError):
    """Sell exceeds the trader's holdings (short positions are not allowed)."""


class NoSurveyResponses(Undefined):
    """Finding has no survey responses to aggregate."""


class AllWeightsZero(Undefined):
    """Every respondent for the finding carries zero weight."""


class MissingOutcome(RepmarketError):
    """Forecast references a finding with no recorded outcome."""


class DegenerateInput(Undefined):
    """Statistic is undefined for the given input (constant vector, too short)."""


class DegenerateTable(Undefined):
    """Contingency table has a zero marginal."""


class DomainError(RepmarketError):
    """Special-function argument outside its valid domain."""


class InsufficientPoints(Undefined):
    """Too few points for the requested local regression."""


class NoReduction(Undefined):
    """Error curve is flat or rising; no reduction milestone exists."""
