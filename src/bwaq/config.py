"""Quantizer configuration."""

from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class QuantConfig:
    """Knobs for the weight/activation quantization pipeline.

    group_size:   number of input channels per channel-wise group (B).
    outliers:     number of highest-activation channels kept at INT8 (K).
    em_iters:     validated (>= 1) but has no effect: the exact partition
                  is already a fixed point of e/m steps, so none run. Kept
                  because --em-iters is part of the CLI contract.
    damp:         Hessian damping as a fraction of mean(diag(H)).
    act_bits:     activation bit width before bitplane decomposition.
    clip_ratio:   RTN range clipping ratio in (0, 1].
    weight_mode:  "em" for clustered centers, "rtn" for equally spaced 2-bit
                  levels (comparison path).
    fine_grained: when False, one subgroup per group (2 centers instead of 4).
    compensate:   apply block error compensation between column blocks.
    """

    group_size: int = 128
    outliers: int = 128
    em_iters: int = 8
    damp: float = 0.01
    act_bits: int = 4
    clip_ratio: float = 1.0
    weight_mode: str = "em"
    fine_grained: bool = True
    compensate: bool = True

    def validate(self, n_cols: int | None = None) -> None:
        if self.group_size < 1:
            raise ConfigError(f"group_size must be >= 1, got {self.group_size}")
        if self.outliers < 0:
            raise ConfigError(f"outliers must be >= 0, got {self.outliers}")
        if self.em_iters < 1:
            raise ConfigError(f"em_iters must be >= 1, got {self.em_iters}")
        if self.damp < 0:
            raise ConfigError(f"damp must be >= 0, got {self.damp}")
        if self.act_bits != 4:
            # the activation format is structurally four 1-bit planes
            raise ConfigError(f"act_bits must be 4, got {self.act_bits}")
        if not 0 < self.clip_ratio <= 1:
            raise ConfigError(f"clip_ratio must be in (0, 1], got {self.clip_ratio}")
        if self.weight_mode not in ("em", "rtn"):
            raise ConfigError(f"weight_mode must be 'em' or 'rtn', got {self.weight_mode!r}")
        if n_cols is not None:
            binarized = n_cols - self.outliers
            if binarized < 0:
                raise ConfigError(
                    f"outliers={self.outliers} exceeds column count {n_cols}"
                )
            if binarized % self.group_size != 0:
                raise ConfigError(
                    f"binarized column count {binarized} is not a multiple of "
                    f"group_size {self.group_size}"
                )
