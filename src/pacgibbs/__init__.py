"""PAC-Bayes-trained Gibbs classifiers over stochastic generative-model features."""

from .bounds import (
    RiskReport,
    bound_semisupervised,
    bound_supervised,
    empirical_risks,
    grad_C,
    grad_u,
    kl_weights,
    stack_features,
    surrogate_objective,
)
from .data import (
    BinaryTask,
    Dataset,
    TaskSplit,
    aggregate,
    load_sequences,
    load_vectors,
    make_splits,
    one_vs_rest_tasks,
)
from .errors import (
    ConfigError,
    ContractViolationError,
    DataFormatError,
    InvalidArgumentError,
    InvalidFeatureError,
    InvalidSequenceError,
    PacgibbsError,
    TrainingAbort,
)
from .features import GenerativeBackend, assemble
from .gmm import GmmBackend, GmmParams
from .hmm import HmmBackend, HmmParams
from .numerics import finite_diff_gradient, gauss_pdf, phi_tail
from .predictor import Prediction, evaluate, predict
from .sampler import HiddenSampleSet, TiltConfig, rejection_sample, tilt_exponents
from .trainer import (
    TrainConfig,
    TrainedTask,
    derive_rng,
    evaluate_bounds,
    init_u0,
    multi_restart_train,
    train,
)

__version__ = "0.1.0"
