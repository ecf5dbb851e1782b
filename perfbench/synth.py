"""Synthetic linear stacks for the benchmark, drawn the way
scripts/make_synthetic.py draws them: Gaussian weights scaled by
1/sqrt(width), and activations in which 1/32 of the channels are 5-20x
louder, so the INT8 outlier tail has work to do.

The model is fixed: its loud channels and weights come from
``default_rng(MODEL_SEED)`` in make_synthetic's order. The workload seed
draws the data: calibration tokens from ``default_rng([seed, 0])`` and the
tokens served by decode and prefill from ``default_rng([seed, 1])``. With
the model drawn per seed, the stack's output error moved by +-9% from seed
to seed, more than any bound could absorb; real benchmarks likewise hold the
model and vary the requests.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Stack:
    """A square ReLU stack and the size of its calibration set."""

    layers: int
    width: int
    calib_tokens: int


@dataclass(frozen=True)
class Shape:
    """Sizes of one benchmark configuration.

    served:         the stack decode and prefill quantize untimed, then serve.
    quantized:      the stack the quantize workload quantizes, many times a
                    run. At 4x1024 with 8,192 tokens one call took 13-16 s, so
                    a run held two calls, and their time spread 16-18% from run
                    to run on a shared 2-core host; at 4x512 with 4,096 tokens
                    a run holds ~7 calls and spread 6%.
    batch:          tokens per prefill step.
    min_decode:     decode tokens per timed run; p99 needs at least 1,000.
    min_prefill:    prefill batches per timed run.
    min_quantize:   quantize calls per timed run, and in each phase of a
                    traced run.
    trace_decode:   decode tokens in each phase of a traced run.
    trace_prefill:  prefill batches in each phase of a traced run.
    """

    served: Stack
    quantized: Stack
    batch: int
    min_decode: int
    min_prefill: int
    min_quantize: int
    trace_decode: int
    trace_prefill: int


MODEL_SEED = 0

SHAPES = {
    "full": Shape(Stack(4, 1024, 8192), Stack(4, 512, 4096), 128, 1000, 5, 3, 300, 4),
    # for the benchmark's own tests: seconds, not minutes
    "tiny": Shape(Stack(2, 256, 256), Stack(2, 256, 256), 8, 20, 2, 1, 5, 2),
}


def channel_scale(rng, width: int) -> np.ndarray:
    scale = np.ones(width)
    loud = rng.choice(width, size=width // 32, replace=False)
    scale[loud] = rng.uniform(5, 20, size=loud.size)
    return scale


def make_stack(seed: int, stack: Stack):
    """(weights, calibration tokens): the fixed model and the seed's data."""
    rng = np.random.default_rng(MODEL_SEED)
    scale = channel_scale(rng, stack.width)
    weights = [
        rng.normal(size=(stack.width, stack.width)) / np.sqrt(stack.width)
        for _ in range(stack.layers)
    ]
    calib = np.random.default_rng([seed, 0]).normal(size=(stack.calib_tokens, stack.width))
    return weights, calib * scale


class TokenSource:
    """Serving-time activations with the model's loud channels."""

    def __init__(self, seed: int, stack: Stack):
        self.scale = channel_scale(np.random.default_rng(MODEL_SEED), stack.width)
        self.rng = np.random.default_rng([seed, 1])

    def next(self, tokens: int) -> np.ndarray:
        return self.rng.normal(size=(tokens, self.scale.size)) * self.scale
