"""User-extension surface: a named stage registry + declarative plan
builder (SURVEY.md §2.10).

Mirrors the reference's two plugin mechanisms — CLI commands via
``entry_points(group='fa.commands')`` (src/cli/main.py:103-167) and
model adapters via dynamic import + ``create_adapter`` convention
(src/models/manager.py:99-137) — with one Ray-native contract:

    register_stage("my_stage", fn_or_actor_class, kind=...)
    ds = build_pipeline(source_ds, ["normalize", "my_stage", ...])

A stage is either a pure batch function (stateless ``map_batches``
task) or a callable class (actor pool; setup in ``__init__``), exactly
the two physical shapes the engine uses internally. Stage options are
per-call kwargs, mirroring the reference's per-tool config passthrough
(config.json:10-14).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

import ray.data


@dataclass
class StageSpec:
    name: str
    fn_or_cls: Callable
    is_actor: bool
    batch_format: str = "pyarrow"
    default_opts: dict[str, Any] = field(default_factory=dict)


_REGISTRY: dict[str, StageSpec] = {}


def register_stage(
    name: str,
    fn_or_cls: Callable,
    *,
    batch_format: str = "pyarrow",
    **default_opts,
) -> StageSpec:
    """Register a batch function (stateless task stage) or callable
    class (actor-pool stage) under ``name``. Re-registering a name
    replaces it (latest wins, like the reference's fallback map)."""
    spec = StageSpec(
        name=name,
        fn_or_cls=fn_or_cls,
        is_actor=inspect.isclass(fn_or_cls),
        batch_format=batch_format,
        default_opts=dict(default_opts),
    )
    _REGISTRY[name] = spec
    return spec


def get_stage(name: str) -> StageSpec:
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown stage {name!r}; registered: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[name]


def list_stages() -> list[str]:
    return sorted(_REGISTRY)


def build_pipeline(
    ds: "ray.data.Dataset",
    stages: list[str | tuple[str, dict]],
) -> "ray.data.Dataset":
    """Chain registered stages onto ``ds``. Each entry is a stage name
    or ``(name, opts)``; opts override the registered defaults and are
    passed as ``map_batches`` kwargs. An actor stage runs through
    ``query_utils.actor_map``, which sizes its pool unless the opts
    set ``concurrency`` / ``num_cpus`` themselves."""
    from .query_utils import actor_map

    for entry in stages:
        name, opts = entry if isinstance(entry, tuple) else (entry, {})
        spec = get_stage(name)
        kwargs = {**spec.default_opts, **opts}
        if spec.is_actor:
            ds = actor_map(ds, spec.fn_or_cls,
                           ctor_kwargs=kwargs.pop("fn_constructor_kwargs", None),
                           batch_size=kwargs.pop("batch_size", None),
                           batch_format=spec.batch_format, **kwargs)
        else:
            ds = ds.map_batches(
                spec.fn_or_cls, batch_format=spec.batch_format, **kwargs
            )
    return ds


PLUGIN_GROUP = "file_analyzer_ray.stages"


def load_plugins(group: str = PLUGIN_GROUP) -> list[str]:
    """Packaging-level plugin discovery (reference
    src/cli/main.py:103-167, src/cli/test/main.py:34-80: commands are
    discovered via ``entry_points``): any installed distribution
    exposing ``[project.entry-points."file_analyzer_ray.stages"]``
    gets its stages auto-registered. Each entry point must load to a
    batch function / callable class (registered directly) or to a
    zero-arg factory returning ``(fn_or_cls, default_opts)``.

    Returns the names registered. Errors in one plugin are isolated —
    a broken third-party package must not take the engine down."""
    from importlib.metadata import entry_points

    loaded: list[str] = []
    try:
        eps = entry_points(group=group)
    except TypeError:  # pre-3.10 signature
        eps = entry_points().get(group, [])  # pragma: no cover
    for ep in eps:
        try:
            obj = ep.load()
            if (
                not inspect.isclass(obj)
                and callable(obj)
                and getattr(obj, "__fa_stage_factory__", False)
            ):
                fn_or_cls, opts = obj()
                register_stage(ep.name, fn_or_cls, **opts)
            else:
                register_stage(ep.name, obj)
            loaded.append(ep.name)
        except Exception:  # noqa: BLE001 — plugin isolation
            continue
    return loaded


def _register_builtins() -> None:
    """Built-in stage names (the engine's own operators, exposed the
    same way a user extension would be)."""
    from .stages.extract import ExtractStage
    from .stages.multimodal import DecodeStage, FusedMediaStage, explode_media
    from .stages.scorer import ScorerStage

    from .stages.classifier import QualityClassifier
    from .stages.maincontent import (
        LinkExtractStage,
        MainContentStage,
        wrap_documents_html,
    )

    register_stage("extract", ExtractStage)
    register_stage("extract_scored", ExtractStage,
                   fn_constructor_kwargs={"score": True})
    register_stage("score", ScorerStage)
    register_stage("explode_media", explode_media)
    register_stage("decode_media", DecodeStage, batch_size=64)
    register_stage("fused_media", FusedMediaStage, batch_size=64)
    register_stage("wrap_html", wrap_documents_html)
    register_stage("main_content", MainContentStage)
    register_stage("extract_links", LinkExtractStage)
    register_stage("quality_classifier", QualityClassifier)

    from .stages.layout import LayoutParseStage, wrap_documents_layout

    register_stage("wrap_layout", wrap_documents_layout)
    register_stage("layout_parse", LayoutParseStage)

    from .stages.pii import PiiScrubStage

    register_stage("pii_scrub", PiiScrubStage)

    from .stages.urls import CanonicalizeStage, wrap_documents_urls

    register_stage("wrap_urls", wrap_documents_urls)
    register_stage("url_canonicalize", CanonicalizeStage)


_register_builtins()
