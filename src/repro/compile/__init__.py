"""Trace-and-compile inference for the surrogate serving hot path.

JAX-style trace -> specialize, scaled to this repo's NumPy stack:
:func:`compile_package` partially evaluates a surrogate package into a
flat :class:`CompiledPlan` (weights folded, Dense/activation and
conv/activation fused, conv gather indices and CSR sparsity patterns
baked as constants, scratch preallocated).  The serving executor
(:class:`repro.runtime.executor.ModelExecutor`) keeps one in-memory plan
per specialization key and falls back to the interpreted path on
:class:`UntraceableModelError`, counting each fallback by its
``reason``.
"""

from .plan import (
    UNTRACEABLE_KINDS,
    CompiledPlan,
    UntraceableModelError,
    compile_package,
    csr_pattern_key,
    untraceable_reason,
)

__all__ = [
    "UNTRACEABLE_KINDS",
    "CompiledPlan",
    "UntraceableModelError",
    "untraceable_reason",
    "compile_package",
    "csr_pattern_key",
]
