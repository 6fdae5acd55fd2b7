"""The library's two exception types.

Data the chain cannot analyze raises ``AnalysisError``; a malformed input
file raises its subclass ``DataFormatError``; an argument outside its
documented range raises ``ValueError``. Where the failing input has a
location, the message names it: the file and line, the report record, or
the electrode, condition and rhythm of an analyzed window.
"""


class AnalysisError(Exception):
    """Data the analysis chain cannot analyze; the message says why.

    ``series`` is the flat row index of the failing series in an error of a
    step that works on rows: the row of the (series, samples) array given
    to ``mfdfa.run_mfdfa_batch``, or of the flattened (window, rhythm) grid
    that ``bands.rhythm_series`` returns; None where no one row failed.
    """

    def __init__(self, *args, series: int | None = None):
        super().__init__(*args)
        self.series = series


class DataFormatError(AnalysisError):
    """Input file is malformed; message carries the location."""
