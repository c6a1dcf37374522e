"""Benchmark toolkit for outlier detection in semantic human-mobility trajectories.

Pipeline: synthesize or ingest a stay-point dataset, inject labeled outliers,
run classical / one-class / LLM-prompt detectors, and evaluate the resulting
rankings with Top-K hits, average precision, and ROC AUC.
"""

from .core import (
    Dataset,
    GeoPoint,
    LabelEntry,
    LabelSet,
    StayPoint,
    Trajectory,
    haversine_km,
    latlon_to_unit3,
    read_dataset,
    read_labels,
    write_dataset,
    write_labels,
)
from .simulator import SimConfig, SimResult, simulate
from .inject import InjectConfig, inject_imposter
from .detectors import (
    NetHyper,
    SplitSpec,
    TraodParams,
    build_windows,
    dae_score,
    dsvdd_score,
    monav_tt_score,
    ompad_score,
    traod_score,
)
from .evaluation import EvalReport, ScoreTable, average_precision, make_report, roc_auc, top_k_hits
from .llm import (
    LlmEndpointConfig,
    MockEndpoint,
    OracleMockEndpoint,
    build_bundles,
    dump_prompts,
    parse_combine_scores,
    parse_separate_score,
    run_llm_detection,
)

__version__ = "0.1.0"
