"""Multifractal analysis of EEG rhythms and band-split audio stimuli."""

from .bands import (
    RHYTHMS,
    STIMULUS_BANDS,
    BandSpec,
    RhythmSpec,
    envelope,
    extract_rhythm,
    fft_bandpass,
    normalize,
    split_bands,
)
from .emd import ImfSet, emd, emd_denoise
from .mfdfa import (
    HurstCurve,
    MfdfaConfig,
    MfdfaResult,
    hurst_exponents,
    run_mfdfa,
    segment_count,
)
from .pipeline import RunConfig, analyze_recording, analyze_series
from .protocol import (
    Condition,
    ProtocolTimeline,
    RecognitionTable,
    ResponseSheet,
    aggregate_responses,
    build_timeline,
    part_to_band,
    segment_recording,
)
from .report import AnalysisReport, WidthRecord, average_subjects, baseline_delta, emit_report
from .series import ProfileSeries, TimeSeries, basic_stats, profile, shuffle
from .spectrum import (
    SingularitySpectrum,
    SpectrumFit,
    fit_spectrum,
    scaling_exponents,
    singularity_spectrum,
)
from .synth import binomial_cascade, cascade_hurst_oracle, fgn, tone, white_noise
from .wavelet import WaveletCoeffs, dwt, idwt

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BandSpec",
    "Condition",
    "HurstCurve",
    "ImfSet",
    "MfdfaConfig",
    "MfdfaResult",
    "ProfileSeries",
    "ProtocolTimeline",
    "RecognitionTable",
    "ResponseSheet",
    "RhythmSpec",
    "RHYTHMS",
    "RunConfig",
    "SingularitySpectrum",
    "SpectrumFit",
    "STIMULUS_BANDS",
    "TimeSeries",
    "WaveletCoeffs",
    "WidthRecord",
    "aggregate_responses",
    "analyze_recording",
    "analyze_series",
    "average_subjects",
    "baseline_delta",
    "basic_stats",
    "binomial_cascade",
    "build_timeline",
    "cascade_hurst_oracle",
    "dwt",
    "emd",
    "emd_denoise",
    "emit_report",
    "envelope",
    "extract_rhythm",
    "fft_bandpass",
    "fgn",
    "fit_spectrum",
    "hurst_exponents",
    "idwt",
    "normalize",
    "part_to_band",
    "profile",
    "run_mfdfa",
    "scaling_exponents",
    "segment_count",
    "segment_recording",
    "shuffle",
    "singularity_spectrum",
    "split_bands",
    "tone",
    "white_noise",
]
