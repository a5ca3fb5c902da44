"""Neural-network layers.

The layer set covers everything the paper's seven architectures (Table III)
need: dense and convolutional layers (including the depthwise-separable pair
used by MobileNet), max/average/global pooling, batch normalisation, dropout,
and the residual blocks of the ResNet family.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init as initializers
from .context import current_context
from .module import Module, Parameter
from .tensor import Tensor

__all__ = [
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
]


class Dense(Module):
    """Fully-connected layer: ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        weight_init: str = "he_normal",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        init_fn = initializers.get_initializer(weight_init)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init_fn((in_features, out_features), rng))
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        state = current_context()
        # The layer set's only batch-crossing gemm: per sample under
        # :func:`~repro.nn.functional.row_stable_inference`.
        row_stable = state.row_stable and not state.grad and x.data.ndim == 2
        return F.dense(x, self.weight, self.bias, row_stable=row_stable)


class Conv2D(Module):
    """Standard 2-D convolution over NCHW inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        weight_init: str = "he_normal",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        init_fn = initializers.get_initializer(weight_init)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init_fn((out_channels, in_channels, kernel_size, kernel_size), rng)
        )
        self.bias = Parameter(np.zeros(out_channels, dtype=np.float32)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class DepthwiseConv2D(Module):
    """Depthwise convolution — one spatial filter per channel (MobileNet)."""

    def __init__(
        self,
        channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.channels = channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            initializers.he_normal((channels, 1, kernel_size, kernel_size), rng)
        )
        self.bias = Parameter(np.zeros(channels, dtype=np.float32)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.depthwise_conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class MaxPool2D(Module):
    """Max pooling."""

    def __init__(self, kernel_size: int = 2, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = kernel_size if stride is None else stride

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)


class AvgPool2D(Module):
    """Average pooling."""

    def __init__(self, kernel_size: int = 2, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = kernel_size if stride is None else stride

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)


class GlobalAvgPool2D(Module):
    """Global average pooling: (N, C, H, W) -> (N, C)."""

    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class BatchNorm2D(Module):
    """Batch normalisation over the channel axis of NCHW inputs.

    Tracks running mean/variance for inference with an exponential moving
    average, matching standard framework semantics.
    """

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(channels, dtype=np.float32))
        self.beta = Parameter(np.zeros(channels, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(channels, dtype=np.float32))
        self.register_buffer("running_var", np.ones(channels, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2D expects NCHW input; got shape {x.shape}")
        if self.training:
            # Stats + running-buffer update + normalisation fused into one
            # stateful registry op so a compiled replay re-runs all of it
            # (see functional.batch_norm_2d_train).
            return F.batch_norm_2d_train(x, self.gamma, self.beta, self)
        # The op reads the running statistics off this module at every call,
        # so a forward plan sees buffers swapped or rewritten since recording.
        return F.batch_norm_2d_eval(x, self.gamma, self.beta, self)


class Dropout(Module):
    """Inverted dropout: active only in training mode."""

    def __init__(self, rate: float = 0.5, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1); got {rate}")
        self.rate = rate
        self.rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.rate == 0.0:
            return x
        # The rng draw lives inside the op's apply (see functional.py) so a
        # compiled replay advances the mask stream exactly like eager mode.
        return F.dropout_train(x, self)


class Flatten(Module):
    """Flatten all non-batch dimensions."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    """Leaky ReLU with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class Sigmoid(Module):
    """Logistic sigmoid activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Tanh(Module):
    """Hyperbolic-tangent activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class ZeroPad2D(Module):
    """Zero-pad the spatial axes of NCHW inputs by ``padding`` pixels."""

    def __init__(self, padding: int) -> None:
        super().__init__()
        if padding < 0:
            raise ValueError("padding must be >= 0")
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return x.pad2d(self.padding)


class Identity(Module):
    """Pass-through layer (used for residual shortcuts)."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Sequential(Module):
    """Run child modules in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)

    def append(self, layer: Module) -> None:
        self.layers.append(layer)

    def __iter__(self):
        return iter(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x
