"""Served models for the serve-bulk workload: seeded, shaped like the
app-inline surrogates, and their byte-exact reference outputs."""

from __future__ import annotations

import time
from typing import NamedTuple, Optional

import numpy as np

from repro.autoencoder.model import Autoencoder
from repro.nas.package import SurrogatePackage
from repro.nn import Topology, batch_invariant, build_model
from repro.registry.store import ArtifactRef, ModelRegistry


class ModelSpec(NamedTuple):
    width: int                                      # raw input features
    encoder: Optional[tuple[tuple[int, ...], str]]  # (layer widths, activation)
    topology: Topology
    outputs: int


#: The three app-inline surrogates as ``AutoHPCnet.build`` finds them at
#: build seed 0 with app_inline.BUILD_BUDGET; the app-inline per-app rows
#: print these values on every run:
#:   streamcluster  in=337 encoder 337->112->37 (relu)  mlp[8](tanh)+res  out=96
#:   AMG            in=1406 no encoder                  mlp[8](relu)      out=36
#:   miniQMC        in=144  no encoder                  mlp[8](tanh)      out=2
#: (``+res`` adds nothing with a single hidden layer.)
MODEL_SPECS = {
    "streamcluster": ModelSpec(337, ((112, 37), "relu"), Topology((8,), "tanh", residual=True), 96),
    "amg": ModelSpec(1406, None, Topology((8,), "relu"), 36),
    "miniqmc": ModelSpec(144, None, Topology((8,), "tanh"), 2),
}
POOL_ROWS = 256   # distinct input rows per model


def make_packages(seed: int) -> dict[str, SurrogatePackage]:
    """One package per spec with weights drawn from ``seed``."""
    packages = {}
    for i, (name, spec) in enumerate(MODEL_SPECS.items()):
        rng = np.random.default_rng([seed, i, 10])
        ae = None
        if spec.encoder is not None:
            widths, activation = spec.encoder
            ae = Autoencoder(spec.width, widths[-1], depth=len(widths), activation=activation, rng=rng)
            built = tuple(layer.out_features for layer in ae.encoder.layers if hasattr(layer, "out_features"))
            if built != widths:
                raise ValueError(f"{name}: encoder widths {built}, spec says {widths}")
        model = build_model(ae.latent_dim if ae else spec.width, spec.outputs, spec.topology, rng=rng)
        packages[name] = SurrogatePackage(
            model=model, topology=spec.topology, input_dim=spec.width,
            output_dim=spec.outputs, autoencoder=ae,
        )
    return packages


def make_pools(seed: int) -> dict[str, np.ndarray]:
    """Seeded ``(POOL_ROWS, width)`` input rows per model."""
    return {
        name: np.random.default_rng([seed, i, 11]).standard_normal((POOL_ROWS, spec.width))
        for i, (name, spec) in enumerate(MODEL_SPECS.items())
    }


def reference_rows(package: SurrogatePackage, pool: np.ndarray) -> list[bytes]:
    """``SurrogatePackage.predict`` of every pool row under batch invariance,
    as raw bytes: served rows must match these exactly."""
    with batch_invariant():
        out = package.predict(pool)
    return [np.ascontiguousarray(row).tobytes() for row in out]


_ACTIVATIONS = {"relu": lambda h: np.maximum(h, 0.0), "tanh": np.tanh}


class NumpyYardstick:
    """The served models' arithmetic written directly in numpy, in the caller.

    Fixed random weights of each spec's widths, ``x @ W + b`` with each
    spec's activations between layers, rows grouped and stacked per model as the bulk client
    does.  It uses no ``repro`` code, so a change to the program never
    moves it, while it slows with the machine the way the served path
    does: timing both on the same burst, back to back, gives a ratio that
    holds still when other tenants of a shared host come and go.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(7)
        self.layers = {}
        for name, spec in MODEL_SPECS.items():
            chain = []   # (fan-in, fan-out, activation after the layer)
            prev = spec.width
            if spec.encoder is not None:
                widths, activation = spec.encoder
                for j, width in enumerate(widths):   # the latent layer is linear
                    chain.append((prev, width, activation if j < len(widths) - 1 else None))
                    prev = width
            for width in spec.topology.hidden:
                chain.append((prev, width, spec.topology.activation))
                prev = width
            chain.append((prev, spec.outputs, None))
            self.layers[name] = [
                (rng.standard_normal((a, b)) / np.sqrt(a), 0.1 * rng.standard_normal(b), _ACTIVATIONS.get(act))
                for a, b, act in chain
            ]

    def __call__(self, names: list[str], inputs: list[np.ndarray]) -> list[np.ndarray]:
        groups: dict[str, list[int]] = {}
        for i, name in enumerate(names):
            groups.setdefault(name, []).append(i)
        out: list = [None] * len(names)
        for name, idxs in groups.items():
            h = np.stack([inputs[i] for i in idxs])
            for w, b, activation in self.layers[name]:
                h = h @ w + b
                if activation is not None:
                    h = activation(h)
            for j, i in enumerate(idxs):
                out[i] = h[j]
        return out


class Deployment:
    """The seeded packages published to a registry, then registered with a
    client from it: serve-bulk's set-up, with its timings."""

    def __init__(self, seed: int, registry: ModelRegistry) -> None:
        self.registry = registry
        t0 = time.perf_counter()
        packages = make_packages(seed)
        t1 = time.perf_counter()
        self.refs: dict[str, ArtifactRef] = {
            name: pkg.publish(registry, name) for name, pkg in packages.items()
        }
        t2 = time.perf_counter()
        #: seconds from seeded weights to published artifacts
        self.build_s = t2 - t0
        self.publish_s = (t2 - t1) / len(self.refs)
        self.load_s = 0.0

    def register(self, client) -> dict[str, SurrogatePackage]:
        """``set_model_from_registry`` for every model; returns the loaded
        packages, which are the objects the orchestrator serves."""
        start = time.perf_counter()
        loaded = {
            name: client.set_model_from_registry(name, self.registry, artifact_version=ref.version)
            for name, ref in self.refs.items()
        }
        self.load_s = (time.perf_counter() - start) / len(loaded)
        return loaded
