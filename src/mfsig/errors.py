"""The library's two exception types.

Data the chain cannot analyze raises ``AnalysisError``; a malformed input
file raises its subclass ``DataFormatError``; an argument outside its
documented range raises ``ValueError``. Where the failing input has a
location, the message names it: the file and line, the report record, or
the electrode and condition of an analyzed window, and the rhythm that failed.
"""


class AnalysisError(Exception):
    """Data the analysis chain cannot analyze; the message says why."""


class DataFormatError(AnalysisError):
    """Input file is malformed; message carries the location."""
