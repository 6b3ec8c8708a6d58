"""Persistent-entropy signal features with kernel-SVM classification."""

from .errors import (
    BarcodeError,
    DatasetError,
    EntropicError,
    SignalError,
    StatsError,
    TrainingError,
)
from .signal import CanonicalSignal, Signal, canonicalize, load_csv_signal, load_wav, subsample
from .persistence import (
    INFINITE,
    Barcode,
    barcode_bruteforce_oracle,
    barcode_to_csv,
    lower_star_barcode,
    persistent_entropy,
    signal_barcode,
    signal_entropy,
)
from .svm import (
    CvResult,
    GridSearchResult,
    KernelSpec,
    LabeledPoint,
    MulticlassModel,
    SvmModel,
    accuracy,
    kfold_cross_validate,
    select_best_kernel,
    train_binary,
    train_multiclass,
)
from .stats import (
    BoxplotSummary,
    EntropyMatrix,
    boxplot_by_audio,
    correlation_matrix,
    sex_grouped_correlation_means,
)
from .dataset import (
    ExperimentConfig,
    ExperimentResult,
    RecordingMeta,
    build_entropy_table,
    build_experiment1,
    build_experiment2,
    build_experiment3,
    parse_manifest,
    parse_ravdess_filename,
    run_experiment,
)

__version__ = "0.1.0"
