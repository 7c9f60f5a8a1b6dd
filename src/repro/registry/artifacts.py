"""High-level publish/load helpers for each artifact kind.

These functions bridge the generic :class:`~repro.registry.store.ModelRegistry`
and the concrete model types.  Each ``publish_*`` stages the payload
files through the registry's atomic publisher; each ``load_*`` accepts a
resolved :class:`~repro.registry.store.ArtifactRef`, a registry artifact
directory, or the matching legacy on-disk format, so callers migrate
without a flag day.

Artifact kinds:

=================  =========================================================
``surrogate-package``  encoder (optional) + surrogate MLP/CNN, §6.1 deployable
``nn-model``           a bare surrogate network (``save_model`` payload)
``autoencoder``        a standalone trained autoencoder
``ae-cache-entry``     NAS cache: autoencoder + σ_y + encoded training set
=================  =========================================================
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from . import formats
from .store import MANIFEST_NAME, ArtifactRef, ModelRegistry, read_manifest

__all__ = [
    "KIND_PACKAGE",
    "KIND_MODEL",
    "KIND_AUTOENCODER",
    "KIND_AE_CACHE",
    "publish_package",
    "load_package",
    "publish_model",
    "load_model_artifact",
    "publish_autoencoder",
    "load_autoencoder_artifact",
]

KIND_PACKAGE = "surrogate-package"
KIND_MODEL = "nn-model"
KIND_AUTOENCODER = "autoencoder"
KIND_AE_CACHE = "ae-cache-entry"

Source = Union[str, Path, ArtifactRef]


def _source_dir(source: Source) -> Path:
    return source.path if isinstance(source, ArtifactRef) else Path(source)


def publish_package(
    registry: ModelRegistry,
    name: str,
    package,
    *,
    metrics: Optional[dict] = None,
) -> ArtifactRef:
    """Publish a :class:`~repro.nas.package.SurrogatePackage` version."""
    return registry.publish(
        name,
        KIND_PACKAGE,
        package.write_payloads,
        input_dim=package.input_dim,
        output_dim=package.output_dim,
        metrics=metrics,
        meta=package.payload_meta(),
    )


def load_package(source: Source):
    """Load a surrogate package from a ref, artifact dir, or legacy dir."""
    from ..nas.package import SurrogatePackage

    return SurrogatePackage.load(_source_dir(source))


def publish_model(
    registry: ModelRegistry,
    name: str,
    model,
    topology,
    in_features: int,
    out_features: int,
    *,
    metrics: Optional[dict] = None,
) -> ArtifactRef:
    """Publish a bare surrogate network (the ``save_model`` payload)."""
    return registry.publish(
        name,
        KIND_MODEL,
        lambda tmp: formats.write_model_npz(
            model, topology, in_features, out_features, tmp / "model.npz"
        ),
        input_dim=in_features,
        output_dim=out_features,
        metrics=metrics,
        meta={"topology": formats.topology_to_meta(topology)},
    )


def load_model_artifact(source: Source):
    """Load a bare network from a ref/artifact dir or a legacy ``.npz`` file."""
    path = _source_dir(source)
    if path.is_dir():
        manifest = read_manifest(path)
        payloads = sorted(manifest.get("payloads", {}))
        npz = "model.npz" if "model.npz" in payloads else next(
            (p for p in payloads if p.endswith(".npz")), None
        )
        if npz is None:
            raise ValueError(f"artifact {path} holds no .npz payload")
        path = path / npz
    return formats.read_model_npz(path)


def publish_autoencoder(
    registry: ModelRegistry,
    name: str,
    autoencoder,
    *,
    sigma: Optional[float] = None,
    metrics: Optional[dict] = None,
) -> ArtifactRef:
    """Publish a standalone trained autoencoder."""
    meta = formats.autoencoder_meta(autoencoder)
    if sigma is not None:
        meta["sigma"] = float(sigma)
    return registry.publish(
        name,
        KIND_AUTOENCODER,
        lambda tmp: formats.write_autoencoder_npz(
            autoencoder, tmp / "autoencoder.npz", sigma=sigma
        ),
        input_dim=autoencoder.input_dim,
        output_dim=autoencoder.latent_dim,
        metrics=metrics,
        meta=meta,
    )


def load_autoencoder_artifact(source: Source):
    """Load an autoencoder from a ref/artifact dir or a bare ``.npz`` file.

    Returns ``(autoencoder, meta)``.
    """
    path = _source_dir(source)
    if path.is_dir():
        if (path / MANIFEST_NAME).exists():
            read_manifest(path)  # schema check
        path = path / "autoencoder.npz"
    return formats.read_autoencoder_npz(path)
