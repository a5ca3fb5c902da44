"""``repro.nn`` — a from-scratch NumPy deep-learning framework.

This package is the substrate substitution for the paper's TensorFlow stack
(see DESIGN.md §1): reverse-mode autodiff, layers, losses (including the
noise-robust ones the paper studies), optimisers, and a training loop.
"""

from .compile import CompiledStep, CompileError, ForwardPlan, compile_forward, compile_tape
from .functional import (
    KERNEL_MODES,
    avg_pool2d,
    conv2d,
    depthwise_conv2d,
    global_avg_pool2d,
    kernel_mode,
    log_softmax,
    max_pool2d,
    row_stable_enabled,
    row_stable_inference,
    softmax,
    softmax_cross_entropy,
    softmax_np,
    use_kernel_mode,
)
from .layers import (
    AvgPool2D,
    BatchNorm2D,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    Identity,
    LeakyReLU,
    MaxPool2D,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    ZeroPad2D,
)
from .losses import (
    ActivePassiveLoss,
    CrossEntropy,
    DistillationLoss,
    FocalLoss,
    GeneralizedCrossEntropy,
    LabelRelaxationLoss,
    Loss,
    MeanAbsoluteError,
    NormalizedCrossEntropy,
    NormalizedFocalLoss,
    ReverseCrossEntropy,
    SoftTargetCrossEntropy,
    get_loss,
)
from .module import Module, Parameter
from .ops import OP_REGISTRY, OpCtx, OpDef, register_op
from .optim import (
    SGD,
    Adam,
    AdamW,
    CosineAnnealingLR,
    ExponentialLR,
    LRScheduler,
    Optimizer,
    RMSProp,
    StepLR,
    get_optimizer,
)
from .serialization import StateFileError, load_into, load_state, save_model, save_state
from .tape import Tape, TapeEntry, active_tape, tape_scope
from .tensor import Tensor, is_grad_enabled, no_grad
from .workspace import Workspace, get_workspace
from .trainer import (
    DivergenceError,
    EarlyStopping,
    EpochRecord,
    Trainer,
    TrainHistory,
    evaluate_accuracy,
    predict_labels,
    predict_logits,
    predict_proba,
)

__all__ = [
    # tensor
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    # module
    "Module",
    "Parameter",
    # layers
    "Dense",
    "Conv2D",
    "DepthwiseConv2D",
    "MaxPool2D",
    "AvgPool2D",
    "GlobalAvgPool2D",
    "BatchNorm2D",
    "Dropout",
    "Flatten",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "ZeroPad2D",
    "Identity",
    "Sequential",
    # functional
    "softmax",
    "log_softmax",
    "softmax_np",
    "softmax_cross_entropy",
    "conv2d",
    "depthwise_conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "kernel_mode",
    "use_kernel_mode",
    "KERNEL_MODES",
    "row_stable_inference",
    "row_stable_enabled",
    # op registry / tape / compiled step and forward plan
    "OpCtx",
    "OpDef",
    "OP_REGISTRY",
    "register_op",
    "Tape",
    "TapeEntry",
    "active_tape",
    "tape_scope",
    "CompiledStep",
    "CompileError",
    "compile_tape",
    "ForwardPlan",
    "compile_forward",
    # workspace
    "Workspace",
    "get_workspace",
    # losses
    "Loss",
    "CrossEntropy",
    "SoftTargetCrossEntropy",
    "NormalizedCrossEntropy",
    "ReverseCrossEntropy",
    "ActivePassiveLoss",
    "MeanAbsoluteError",
    "GeneralizedCrossEntropy",
    "FocalLoss",
    "NormalizedFocalLoss",
    "LabelRelaxationLoss",
    "DistillationLoss",
    "get_loss",
    # optim
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "RMSProp",
    "LRScheduler",
    "StepLR",
    "CosineAnnealingLR",
    "ExponentialLR",
    "get_optimizer",
    # trainer
    "Trainer",
    "TrainHistory",
    "EpochRecord",
    "EarlyStopping",
    "DivergenceError",
    "predict_logits",
    "predict_proba",
    "predict_labels",
    "evaluate_accuracy",
    # serialization
    "StateFileError",
    "save_state",
    "load_state",
    "save_model",
    "load_into",
]
