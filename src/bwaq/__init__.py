"""1+1-bit weight / 4x1-bit activation quantization with an exact bit-count kernel."""

from .actquant import (
    ActBitplanes,
    balance_scales,
    plane_corrections,
    quantize_activations,
    reconstruct,
    rtn_dequantize,
    rtn_quantize,
)
from .bitkernel import bench_forward, counts, forward, forward_reference
from .calibration import (
    CalibrationStats,
    accumulate_hessian,
    calibrate,
    channel_permutation,
    damped_inverse_cholesky,
)
from .config import QuantConfig
from .errors import ConfigError, DataError, FormatError, InternalError
from .modelio import inspect_model, layer_nbytes, model_nbytes, read_model, write_model
from .tensorio import read_tensor, write_tensor
from .weightquant import (
    EmResult,
    QuantizedLinear,
    QuantReport,
    dequant_weights,
    em_binarize,
    gptq_compensate,
    quant_outliers_int8,
    quantize_linear,
    recover_affine,
)

__all__ = [
    "ActBitplanes",
    "CalibrationStats",
    "ConfigError",
    "DataError",
    "EmResult",
    "FormatError",
    "InternalError",
    "QuantConfig",
    "QuantReport",
    "QuantizedLinear",
    "accumulate_hessian",
    "balance_scales",
    "bench_forward",
    "calibrate",
    "channel_permutation",
    "counts",
    "damped_inverse_cholesky",
    "dequant_weights",
    "em_binarize",
    "forward",
    "forward_reference",
    "gptq_compensate",
    "inspect_model",
    "layer_nbytes",
    "model_nbytes",
    "plane_corrections",
    "quant_outliers_int8",
    "quantize_activations",
    "quantize_linear",
    "read_model",
    "read_tensor",
    "reconstruct",
    "recover_affine",
    "rtn_dequantize",
    "rtn_quantize",
    "write_model",
    "write_tensor",
]
