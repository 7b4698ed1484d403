"""Offline behaviour analytics for bearded-dragon enclosure detection logs."""

from .activity import (
    ActivityReport,
    activity_reports,
    coverage,
    drift_slope,
    jitter,
    mean_vertical_diff,
)
from .behaviour import (
    BehaviourKind,
    Episode,
    FrameStates,
    classify_basking,
    detect_hunting,
    resolve_frame_states,
)
from .evaluation import (
    Boxes,
    ConfusionMatrix,
    EvalReport,
    average_precision,
    confusion_matrix,
    evaluate,
    mean_ap,
    precision_recall_f1,
    records_from_timeline,
)
from .ingest import (
    InvalidValue,
    MalformedLine,
    MissingGeometry,
    OutOfRange,
    ParseError,
    RunConfig,
    UnknownClass,
    UnknownKey,
    parse_config,
    parse_detection_log,
    parse_ground_truth,
    write_detection_log,
)
from .model import (
    ClassLabel,
    Columns,
    FrameGeometry,
    Provenance,
    Timeline,
    iou,
    to_pixels,
)
from .pipeline import AnalysisResult, analyze_timeline
from .synth import GeneratedScenario, InvalidScenario, Scenario, SplitMix64, generate
from .tracks import Track, associate_crickets, continuity, fill_gaps, reduce_per_frame

__version__ = "0.1.0"
