"""Detector suite: shared featurization, three classical scorers, two one-class nets."""

from .features import SplitSpec, Windows, WindowedFeatures, build_windows, bucket_windows
from .classical import (
    TraodParams,
    monav_tt_score,
    ompad_score,
    segment_distance_components,
    traod_score,
    traod_segment_distance,
)
from .nets import NetHyper, TinyNet, TrainResult, dae_score, dsvdd_score, train_network

__all__ = [
    "SplitSpec",
    "Windows",
    "WindowedFeatures",
    "build_windows",
    "bucket_windows",
    "TraodParams",
    "ompad_score",
    "monav_tt_score",
    "traod_score",
    "traod_segment_distance",
    "segment_distance_components",
    "TinyNet",
    "NetHyper",
    "TrainResult",
    "train_network",
    "dae_score",
    "dsvdd_score",
]
