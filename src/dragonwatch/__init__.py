"""Offline behaviour analytics for bearded-dragon enclosure detection logs.

The package imports none of its modules itself: each export below is
loaded from its module on first access (PEP 562), so a program that needs
one module, such as ``dragonwatch.cli``, pays for no other.
"""

from importlib import import_module

# module -> the names the package exports from it
_EXPORTS = {
    "activity": (
        "ActivityReport",
        "activity_reports",
        "coverage",
        "drift_slope",
        "jitter",
        "mean_vertical_diff",
    ),
    "behaviour": (
        "BehaviourKind",
        "Episode",
        "FrameStates",
        "classify_basking",
        "detect_hunting",
        "resolve_frame_states",
    ),
    "evaluation": (
        "Boxes",
        "ConfusionMatrix",
        "EvalReport",
        "average_precision",
        "confusion_matrix",
        "evaluate",
        "mean_ap",
        "precision_recall_f1",
        "records_from_timeline",
    ),
    "ingest": (
        "InvalidValue",
        "MalformedLine",
        "MissingGeometry",
        "OutOfRange",
        "ParseError",
        "RunConfig",
        "UnknownClass",
        "UnknownKey",
        "parse_config",
        "parse_detection_log",
        "parse_ground_truth",
        "write_detection_log",
    ),
    "model": ("ClassLabel", "Columns", "FrameGeometry", "Timeline", "iou", "to_pixels"),
    "pipeline": ("AnalysisResult", "analyze_timeline"),
    "synth": ("GeneratedScenario", "InvalidScenario", "Scenario", "SplitMix64", "generate"),
    "tracks": ("Track", "associate_crickets", "continuity", "fill_gaps", "reduce_per_frame"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    """The export ``name``, imported from its module on first access, then kept here."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
