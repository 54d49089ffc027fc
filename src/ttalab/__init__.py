"""ttalab: threshold-triggered, Fisher-preconditioned test-time adaptation
of a toy autoregressive generator, with the oracles and analysis tools used
to certify each moving part."""

# first: sets numpy's BLAS to one thread before the library's first matmul
from . import _blas  # noqa: F401
from .genmodel import (
    AdapterParams,
    GenerationSettings,
    NgramOneHot,
    ToyLM,
    Vocabulary,
    init_adapter,
)

__all__ = [
    "AdapterParams",
    "GenerationSettings",
    "NgramOneHot",
    "ToyLM",
    "Vocabulary",
    "init_adapter",
]

__version__ = "0.1.0"
