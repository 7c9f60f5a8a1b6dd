"""Training-sample generation by input perturbation (§3.1, Step 3).

When the user cannot supply enough distinct input problems, Auto-HPCnet
perturbs the identified input variables following a user-chosen distribution
(Gaussian by default: ``X' ~ N(mu, sigma^2)`` around the base value) and
re-runs the region to collect ground-truth outputs.
"""

from __future__ import annotations

import ast
import functools
import inspect
import textwrap
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..sparse import COOMatrix, CSCMatrix, CSRMatrix
from .features import FeatureSchema

__all__ = [
    "Perturbation",
    "perturb_value",
    "returned_names",
    "returned_names_ast",
    "SampleGenerator",
]

_SPARSE_TYPES = (COOMatrix, CSRMatrix, CSCMatrix)


@dataclass(frozen=True)
class Perturbation:
    """Distribution used to randomize input variables.

    ``kind`` is "gaussian" (additive, scaled by |value|), "uniform"
    (multiplicative in [1-scale, 1+scale]) or "scale" (one global random
    factor per sample).  ``scale`` is the paper's sigma / range knob.
    """

    kind: str = "gaussian"
    scale: float = 0.1
    mean: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "uniform", "scale"):
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        if self.scale < 0:
            raise ValueError("scale must be non-negative")


def _perturb_array(arr: np.ndarray, p: Perturbation, rng: np.random.Generator) -> np.ndarray:
    magnitude = np.abs(arr) + (np.abs(arr).mean() if arr.size else 1.0) * 0.1 + 1e-12
    if p.kind == "gaussian":
        return arr + p.mean + p.scale * magnitude * rng.standard_normal(arr.shape)
    if p.kind == "uniform":
        return arr * rng.uniform(1.0 - p.scale, 1.0 + p.scale, size=arr.shape)
    factor = 1.0 + p.scale * rng.standard_normal()
    return arr * factor


def perturb_value(value: Any, p: Perturbation, rng: np.random.Generator) -> Any:
    """Perturb one input variable, preserving its type and sparsity pattern.

    Sparse matrices keep their structure — only stored values change — which
    matches the paper's assumption that an NN model serves inputs drawn from
    one distribution (same execution path, §3.2).
    """
    if isinstance(value, _SPARSE_TYPES):
        new_data = _perturb_array(np.asarray(value.data), p, rng)
        if isinstance(value, CSRMatrix):
            return CSRMatrix(value.indptr, value.indices, new_data, value.shape)
        if isinstance(value, CSCMatrix):
            return CSCMatrix(value.indptr, value.indices, new_data, value.shape)
        return COOMatrix(value.row, value.col, new_data, value.shape)
    if isinstance(value, np.ndarray):
        return _perturb_array(value.astype(np.float64), p, rng)
    if isinstance(value, bool):
        raise TypeError("cannot perturb a boolean input")
    if isinstance(value, (int, np.integer)):
        # integer knobs (iteration counts, sizes) keep their type; changing
        # them would change the execution path, which §3.2 forbids for one
        # surrogate, so we only jitter and round
        jittered = _perturb_array(np.asarray([float(value)]), p, rng)[0]
        return max(0, int(round(jittered)))
    if isinstance(value, (float, np.generic)):
        return float(_perturb_array(np.asarray([float(value)]), p, rng)[0])
    raise TypeError(f"cannot perturb value of type {type(value).__name__}")


def returned_names_ast(func: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    """Names returned by the function's final ``return`` statement.

    ``return x`` -> ("x",); ``return x, r`` -> ("x", "r"); a dict with
    string-literal keys returns its keys; anything else returns ().
    """
    returns = [n for n in ast.walk(func) if isinstance(n, ast.Return) and n.value is not None]
    if not returns:
        return ()
    value = returns[-1].value
    if isinstance(value, ast.Name):
        return (value.id,)
    if isinstance(value, ast.Tuple) and all(isinstance(e, ast.Name) for e in value.elts):
        return tuple(e.id for e in value.elts)
    if isinstance(value, ast.Dict) and all(
        isinstance(k, ast.Constant) and isinstance(k.value, str) for k in value.keys
    ):
        return tuple(k.value for k in value.keys)
    return ()


@functools.lru_cache(maxsize=1024)
def returned_names(fn: Callable) -> tuple[str, ...]:
    """Names returned by the region function's final return statement.

    Maps the region's return value back onto output-variable names.  The
    source is parsed once per function: every exact run (including each
    guard fallback) asks again, and a parse costs far more than a region.
    """
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    func = next(n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return returned_names_ast(func)


class SampleGenerator:
    """Runs the region repeatedly on perturbed inputs to build (X, Y)."""

    def __init__(
        self,
        region_fn: Callable,
        input_schema: FeatureSchema,
        output_schema: FeatureSchema,
        *,
        output_names: Sequence[str] | None = None,
    ) -> None:
        self.region_fn = region_fn
        self.input_schema = input_schema
        self.output_schema = output_schema
        self.output_names = tuple(output_names or returned_names(region_fn))
        if not self.output_names:
            raise ValueError(
                "could not infer output names from the region's return "
                "statement; pass output_names explicitly"
            )

    def _outputs_to_dict(self, result: Any) -> dict[str, Any]:
        if isinstance(result, Mapping):
            return dict(result)
        if isinstance(result, tuple):
            if len(result) != len(self.output_names):
                raise ValueError(
                    f"region returned {len(result)} values but "
                    f"{len(self.output_names)} output names are known"
                )
            return dict(zip(self.output_names, result))
        return {self.output_names[0]: result}

    def run_once(self, inputs: Mapping[str, Any]) -> tuple[np.ndarray, np.ndarray]:
        """One (input-vector, output-vector) pair from a concrete input."""
        result = self.region_fn(**inputs)
        out = self._outputs_to_dict(result)
        x = self.input_schema.flatten(inputs)
        y = self.output_schema.flatten(out)
        return x, y

    def generate(
        self,
        base_inputs: Mapping[str, Any],
        n_samples: int,
        *,
        perturbation: Perturbation = Perturbation(),
        rng: np.random.Generator | None = None,
        perturb_names: Sequence[str] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Generate ``n_samples`` training pairs by perturbing inputs.

        ``perturb_names`` restricts which inputs are randomized (defaults to
        every field of the input schema); the remaining base inputs (e.g.
        tolerances) are passed through unchanged.
        """
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        rng = rng or np.random.default_rng(0)
        targets = tuple(perturb_names or self.input_schema.names)
        xs = np.empty((n_samples, self.input_schema.total_size))
        ys = np.empty((n_samples, self.output_schema.total_size))
        for i in range(n_samples):
            sample_inputs = dict(base_inputs)
            for name in targets:
                sample_inputs[name] = perturb_value(sample_inputs[name], perturbation, rng)
            xs[i], ys[i] = self.run_once(sample_inputs)
        return xs, ys
