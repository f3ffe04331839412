"""Experiment execution: configs in, verdicts out."""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from .hypotheses import HypothesisReport
from .scenarios import LATTICE_DEPTHS, REGISTRY, RegistryEntry, ScenarioOutcome

REPORT_FORMATS = ("csv", "json")


@dataclass
class ScenarioConfig:
    """One experiment request; unset fields fall back to scenario defaults.

    Mirrors the JSON config document: ``{"scenario": ..., "depth": ...,
    "seed": ..., "trials": ..., "out": ..., "format": ...}``.  CLI flags
    override config fields.
    """

    scenario: str
    depth: int | None = None
    seed: int | None = None
    trials: int | None = None
    out: str | None = None
    format: str = "csv"

    @classmethod
    def from_json(cls, path: str) -> "ScenarioConfig":
        """Read a config document; an unreadable file or a document that is
        not a JSON object raises ValueError (field types are checked by
        :func:`resolve`)."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read config document {path!r}: {exc.strerror}") from exc
        if not isinstance(doc, dict):
            raise ValueError(f"config document must be a JSON object, got {type(doc).__name__}")
        known = {k: doc[k] for k in ("scenario", "depth", "seed", "trials", "out", "format")
                 if k in doc}
        if "scenario" not in known:
            raise ValueError("config document needs a 'scenario' field")
        return cls(**known)


@dataclass
class ComparisonVerdict:
    """Structured outcome of one scenario run."""

    scenario: str
    theorem: str
    hypotheses: HypothesisReport
    conclusion_held: bool
    worst_violation: float
    witness: str
    depth: int
    seed: int
    runtime_ms: float
    expected_holds: bool
    details: dict = field(default_factory=dict)

    @property
    def agrees_with_expectation(self) -> bool:
        return self.conclusion_held == self.expected_holds


def _check_field_types(config: ScenarioConfig) -> None:
    """Raise ValueError for a field of the wrong type (a bool is no integer)."""
    for name in ("depth", "seed", "trials"):
        val = getattr(config, name)
        if val is not None and (not isinstance(val, int) or isinstance(val, bool)):
            raise ValueError(f"{name} must be an integer, got {val!r}")
    for name, optional in (("scenario", False), ("out", True), ("format", False)):
        val = getattr(config, name)
        if not isinstance(val, str) and not (optional and val is None):
            raise ValueError(f"{name} must be a string, got {val!r}")


def _depth_error(entry: RegistryEntry, depth: int) -> str:
    """The message for a depth outside ``entry.depths``: the range, and the
    scenario with the depth asked for when the range is narrower than the lattice's."""
    r = entry.depths
    allowed = f"[{r.start}, {r[-1]}]" + (f" in steps of {r.step}" if r.step > 1 else "")
    if r == LATTICE_DEPTHS:
        return f"depth must be in {allowed}"
    return f"depth of {entry.name} must be in {allowed}, got {depth}"


def resolve(config: ScenarioConfig) -> tuple[RegistryEntry, int, int, int]:
    """The entry and the depth, seed and trials of ``config``, defaults filled in.

    ValueError for a field of the wrong type, a depth outside the entry's
    ``depths``, a negative seed, fewer than one trial or an unknown report
    format; KeyError for an unknown scenario.
    """
    _check_field_types(config)
    if config.scenario not in REGISTRY:
        raise KeyError(config.scenario)
    entry = REGISTRY[config.scenario]
    depth = config.depth if config.depth is not None else entry.default_depth
    seed = config.seed if config.seed is not None else entry.default_seed
    trials = config.trials if config.trials is not None else entry.default_trials
    if depth not in entry.depths:
        raise ValueError(_depth_error(entry, depth))
    if seed < 0:
        raise ValueError(f"seed of {entry.name} must be nonnegative, got {seed}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if config.format not in REPORT_FORMATS:
        formats = ", ".join(REPORT_FORMATS)
        raise ValueError(f"format must be one of {formats}, got {config.format!r}")
    return entry, depth, seed, trials


def run_experiment(config: ScenarioConfig) -> ComparisonVerdict:
    """Dispatch a scenario and wrap its outcome; deterministic for a fixed seed."""
    entry, depth, seed, trials = resolve(config)
    t0 = time.perf_counter()
    try:
        outcome: ScenarioOutcome = entry.build(depth, seed, trials)
    except Exception as exc:
        raise RuntimeError(f"scenario {config.scenario!r} (depth={depth}, seed={seed}): {exc}") from exc
    elapsed_ms = 1e3 * (time.perf_counter() - t0)
    return ComparisonVerdict(
        scenario=entry.name,
        theorem=entry.theorem,
        hypotheses=outcome.hypotheses,
        conclusion_held=outcome.conclusion_held,
        worst_violation=outcome.worst_violation,
        witness=outcome.witness,
        depth=depth,
        seed=seed,
        runtime_ms=elapsed_ms,
        expected_holds=entry.expected_holds,
        details={"trials": trials, **outcome.details},
    )


def run_suite(
    seed_offset: int = 0, jobs: int = 1, overrides: dict[str, ScenarioConfig] | None = None
) -> list[ComparisonVerdict]:
    """Run every registry scenario; results ordered by scenario name.

    ``seed_offset`` is added to the seed each config resolves to (an
    override's own seed if it sets one, else the scenario's default), for
    the scenarios whose default seed is nonzero; the others are
    deterministic and keep their seed.  Every config is resolved before
    the first scenario runs, so a bad one (a negative seed, say) raises
    ValueError without running anything.
    """
    configs = []
    for name in sorted(REGISTRY):
        cfg = (overrides or {}).get(name) or ScenarioConfig(scenario=name)
        if seed_offset and REGISTRY[name].default_seed:
            # a copy: the caller's config must not carry the offset into a later run
            cfg = replace(cfg, seed=resolve(cfg)[2] + seed_offset)
        resolve(cfg)
        configs.append(cfg)
    if jobs <= 1:
        verdicts = [run_experiment(c) for c in configs]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            verdicts = list(pool.map(run_experiment, configs))
    return sorted(verdicts, key=lambda v: v.scenario)
