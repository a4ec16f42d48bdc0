"""Exemplar-free analytic class-incremental learning.

A frozen feature extractor, a fixed random feature expansion, and a
ridge classifier updated in closed form, task by task, without ever
revisiting earlier data, plus a benchmark harness that verifies the
recursive updates coincide with joint training.
"""

from .classifier import (
    Afam,
    AnalyticClassifier,
    LabelMatrix,
    joint_solve,
    predict,
    recalibrate,
    update,
)
from .config import HarnessConfig
from .data import (
    LabeledDataset,
    SynthSpec,
    gen_synth,
    gen_synth_split,
    load_features,
    load_manifest,
    rectifier_scramble,
    save_features,
    write_manifest,
)
from .expansion import ExpansionMap, build_expansion, expand
from .extractor import ExtractorModel, extract, pretrain_extractor
from .harness import (
    AccuracyMatrix,
    ExperimentResult,
    MetricsReport,
    OracleReport,
    TaskData,
    TaskSplit,
    acc_metric,
    build_tasks,
    bwt_metric,
    oracle_check,
    read_grid_csv,
    relative_frobenius,
    results_dict,
    run_experiment,
    split_tasks,
    tasks_from_manifest,
    write_grid_csv,
)
from .snapshot import (
    SnapshotMeta,
    dump_snapshot,
    load_snapshot,
    read_snapshot,
    save_snapshot,
)

__version__ = "0.1.0"

__all__ = [
    "Afam",
    "AnalyticClassifier",
    "LabelMatrix",
    "joint_solve",
    "predict",
    "recalibrate",
    "update",
    "LabeledDataset",
    "SynthSpec",
    "gen_synth",
    "gen_synth_split",
    "load_features",
    "load_manifest",
    "rectifier_scramble",
    "save_features",
    "write_manifest",
    "ExpansionMap",
    "build_expansion",
    "expand",
    "ExtractorModel",
    "extract",
    "pretrain_extractor",
    "AccuracyMatrix",
    "ExperimentResult",
    "HarnessConfig",
    "MetricsReport",
    "OracleReport",
    "TaskData",
    "TaskSplit",
    "acc_metric",
    "build_tasks",
    "bwt_metric",
    "oracle_check",
    "read_grid_csv",
    "relative_frobenius",
    "results_dict",
    "run_experiment",
    "split_tasks",
    "tasks_from_manifest",
    "write_grid_csv",
    "SnapshotMeta",
    "dump_snapshot",
    "load_snapshot",
    "read_snapshot",
    "save_snapshot",
    "__version__",
]
