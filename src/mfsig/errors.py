"""The library's two exception types.

Data the chain cannot analyze raises ``AnalysisError``; a malformed input
file raises its subclass ``DataFormatError``; an argument outside its
documented range raises ``ValueError``. Where the failing input has a
location, the message names it: the file and line, the report record, or
the electrode, condition and rhythm of an analyzed window.
"""


class AnalysisError(Exception):
    """Data the analysis chain cannot analyze; the message says why.

    ``series`` is the index of the failing series in an error of
    ``mfdfa.run_mfdfa_batch``, or of the failing row in one of
    ``bands.rhythm_series``; None where no one series failed.
    """

    series: int | None = None


class DataFormatError(AnalysisError):
    """Input file is malformed; message carries the location."""
