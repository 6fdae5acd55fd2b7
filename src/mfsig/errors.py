"""Exception hierarchy for the analysis pipeline.

Every error raised by the library derives from AnalysisError, so callers
(notably the CLI) can separate data/validation failures from bugs.
"""


class AnalysisError(Exception):
    """Base class for all library errors."""


class EmptySeriesError(AnalysisError):
    """Operation requires a non-empty (or longer) series."""


class NonFiniteError(AnalysisError):
    """Input contains NaN or infinity."""


class DegenerateFitError(AnalysisError):
    """Too few points in a segment for the requested polynomial order."""


class AllSegmentsDegenerateError(AnalysisError):
    """Every segment has zero residual variance; fluctuation undefined."""


class InsufficientScalesError(AnalysisError):
    """Fewer than two usable scales for the log-log regression."""


class InsufficientDataError(AnalysisError):
    """Series too short for the configured scale range."""


class InsufficientQPointsError(AnalysisError):
    """Too few q points for finite-difference derivatives."""


class BandOutOfRangeError(AnalysisError):
    """Requested frequency band does not fit below the Nyquist frequency."""


class SampleRateTooLowError(AnalysisError):
    """Sample rate too low for the requested band split."""


class TooManyLevelsError(AnalysisError):
    """Wavelet decomposition depth exceeds what the length supports."""


class TooShortError(AnalysisError):
    """Series too short for the decomposition."""


class BadImfIndexError(AnalysisError):
    """IMF index out of range for the decomposition."""


class SilentInputError(AnalysisError):
    """Cannot normalize a silent (all-zero) signal."""


class RecordingTooShortError(AnalysisError):
    """Recording ends before the experiment timeline does."""


class NoSheetsError(AnalysisError):
    """Response aggregation needs at least one sheet."""


class EmptyCellError(AnalysisError):
    """Subject average requested for a cell with no records."""


class EmptyReportError(AnalysisError):
    """Report emission requested for an empty report."""


class IoFailureError(AnalysisError):
    """File could not be read or written."""


class DataFormatError(AnalysisError):
    """Input file is malformed; message carries the location."""
