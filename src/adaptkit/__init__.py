"""Desk-scale test-time adaptation pipeline on synthetic shift benchmarks."""

from .adapt import AdaptConfig, AdaptReport, adapt, partition_parameters
from .data import (AugmentationPolicy, Dataset, GeneratorSpec, ShiftSpec, UnlabeledView,
                   apply_shift, augment, generate, load_dataset, save_dataset,
                   subsample_longtail)
from .distill import (CalibrateConfig, DistillConfig, PhaseSchedule, PseudoLabels,
                      calibrate_classifier, distill, pseudo_label, run_phase)
from .harness import ExperimentConfig, compare, run_experiment, run_seed
from .layers import ArchSpec, Network, build_network
from .metrics import MetricsReport, evaluate
from .optim import SGD
from .selfsup import ContrastiveConfig, make_student, pretrain
from .source import SourceConfig, train_source
from .tensor import Tensor

__version__ = "0.1.0"
