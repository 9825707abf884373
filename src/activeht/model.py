"""Gaussian sensing environments: hypotheses, actions and divergences.

An environment is a finite set of hypotheses, a finite set of sensing
actions, and a mean matrix (actions as rows, hypotheses as columns).
Selecting action ``a`` when hypothesis ``h`` is true yields one draw from
``Normal(means[a][h], sigma**2)``.  Everything downstream (likelihoods,
pairwise divergences, allocation oracles) is determined by this matrix.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from functools import cached_property
from math import inf
from pathlib import Path

import numpy as np


class ModelError(ValueError):
    """Base class for environment construction failures."""


class MalformedDocumentError(ModelError):
    """The environment document is missing fields or has bad shapes/values."""


class IdentifiabilityError(ModelError):
    """Some hypothesis pair cannot be distinguished by any action."""


@dataclass(frozen=True)
class Environment:
    """Immutable problem instance.

    Construction checks shapes and ranges only: hypothesis pairs that no
    action separates are allowed, and ``load_environment`` rejects them.

    Attributes:
        name: human-readable label, carried into result tables as a CSV
            field, so it holds no comma or line break.
        means: per-action observation means, ``means[a][h]``; tuple of rows.
        sigma: common observation noise standard deviation (> 0).
    """

    name: str
    means: tuple[tuple[float, ...], ...]
    sigma: float = 1.0

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise MalformedDocumentError(f"environment name must be a string, got {self.name!r}")
        if any(ch in self.name for ch in ",\n\r"):
            raise MalformedDocumentError(
                f"environment name {self.name!r} must not contain a comma or line break")
        if not self.means or not self.means[0]:
            raise MalformedDocumentError("means matrix must be non-empty")
        width = len(self.means[0])
        if any(len(row) != width for row in self.means):
            raise MalformedDocumentError("means matrix rows have unequal lengths")
        if not all(np.isfinite(x) for row in self.means for x in row):
            raise MalformedDocumentError("means matrix contains non-finite entries")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise MalformedDocumentError(f"sigma must be positive, got {self.sigma}")
        # The likelihoods scale by -0.5 / sigma**2 and the divergences divide
        # by 2 sigma**2.  var is tested first: float division by 0 raises.
        var = self.sigma * self.sigma
        if not (0 < var < inf and 0 < 0.5 / var < inf):
            raise MalformedDocumentError(
                f"sigma {self.sigma} is out of range: sigma**2 or 0.5/sigma**2 is 0 or overflows")
        if not np.isfinite(self.kl_table).all():
            raise MalformedDocumentError("means gaps overflow the divergence table")

    def __reduce__(self):
        # Rebuilt from its fields, so a copy sent to a pool worker carries no
        # cached table and builds its own read-only ones.
        return Environment, (self.name, self.means, self.sigma)

    @property
    def num_actions(self) -> int:
        return len(self.means)

    @property
    def num_hypotheses(self) -> int:
        return len(self.means[0])

    @cached_property
    def means_array(self) -> np.ndarray:
        arr = np.array(self.means, dtype=float)
        arr.setflags(write=False)
        return arr

    @cached_property
    def kl_table(self) -> np.ndarray:
        """Read-only divergence tensor: ``[a, h, g]`` holds d_a(h, g) in nats
        per draw, the equal-variance Gaussian closed form
        ``(means[a][h] - means[a][g])**2 / (2 sigma**2)``.  Built once per
        environment."""
        mu = self.means_array
        with np.errstate(over="ignore"):
            gaps = mu[:, :, None] - mu[:, None, :]
            values = gaps**2 / (2.0 * self.sigma**2)
        values.setflags(write=False)
        return values

    @cached_property
    def max_divergence(self) -> np.ndarray:
        """max over actions of d_a(h, g); zero entries mark indistinct pairs."""
        out = self.kl_table.max(axis=0)
        out.setflags(write=False)
        return out

    @cached_property
    def best_action(self) -> np.ndarray:
        """argmax over actions of d_a(h, g), lowest action index on ties."""
        out = self.kl_table.argmax(axis=0)
        out.setflags(write=False)
        return out

    def sha256(self) -> str:
        """Hex SHA-256 of the name, means and sigma.

        Identifies the exact instance a run used, also when it came from a
        file that changes later.
        """
        # Imported here: numpy does not load it, and only sweeps ask.
        import hashlib

        doc = {"name": self.name, "sigma": float(self.sigma),
               "means": [[float(x) for x in row] for row in self.means]}
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()

    def indistinguishable_pairs(self) -> list[tuple[int, int]]:
        """Hypothesis pairs (h < g) with zero divergence under every action."""
        maxd = self.max_divergence
        k = self.num_hypotheses
        return [(h, g) for h in range(k) for g in range(h + 1, k) if maxd[h][g] == 0.0]


# Built-in benchmark environments.  Rows are actions, columns are hypotheses.
# "degenerate" intentionally ships with hypotheses 3 and 4 indistinguishable
# under every action (and two fully uninformative action rows): recommending
# either of them is impossible, but identifying any other hypothesis remains
# well-posed, which is exactly the stress it exists to apply.
_PRESET_TABLES: dict[str, tuple[tuple[float, ...], ...]] = {
    "skewed": (
        (0.5, 0.9, 0.5, 0.3, 0.7),
        (0.3, 0.5, 0.3, 0.5, 0.3),
        (0.5, 0.2, 0.5, 0.3, 0.8),
        (0.7, 0.3, 0.7, 0.1, 0.5),
        (0.4, 0.6, 0.6, 0.4, 0.2),
    ),
    "hard-weak": (
        (0.9, 0.8, 0.2, 0.2, 0.2),
        (0.8, 0.65, 0.2, 0.2, 0.2),
        (0.1, 0.1, 0.8, 0.1, 0.1),
        (0.2, 0.2, 0.1, 0.8, 0.2),
        (0.1, 0.2, 0.1, 0.2, 0.9),
    ),
    "degenerate": (
        (0.5, 0.9, 0.1, 0.5, 0.5),
        (0.5, 0.1, 0.9, 0.5, 0.5),
        (0.5, 0.5, 0.5, 0.5, 0.5),
        (0.5, 0.5, 0.5, 0.5, 0.5),
        (0.55, 0.45, 0.45, 0.45, 0.45),
    ),
}

PRESET_NAMES = tuple(sorted(_PRESET_TABLES))


def load_environment(source) -> Environment:
    """The Environment a preset name, file, dict or JSON text describes.

    The document format is a JSON object with fields ``name``, ``means``
    (actions as rows) and optional ``sigma`` (default 1.0).  A document in
    which no action separates some hypothesis pair is rejected.  Presets are
    trusted and load as published, and an Environment is returned as built.
    """
    if isinstance(source, Environment):
        return source
    if isinstance(source, str) and source in _PRESET_TABLES:
        return Environment(name=source, means=_PRESET_TABLES[source], sigma=1.0)
    env = _environment_from_document(_read_document(source))
    if pairs := env.indistinguishable_pairs():
        raise IdentifiabilityError(f"no action distinguishes hypothesis pairs {pairs}")
    return env


def _read_document(source) -> dict:
    if isinstance(source, dict):
        return source
    if isinstance(source, Path) or (isinstance(source, str) and not source.lstrip().startswith("{")):
        path = Path(source)
        if not path.exists():
            raise MalformedDocumentError(f"{source!r} is neither a preset name nor an existing "
                                         f"file; presets: {', '.join(PRESET_NAMES)}")
        text = path.read_text()
    else:
        text = source
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocumentError(f"invalid environment document: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocumentError("environment document must be a JSON object")
    return doc


def _environment_from_document(doc: dict) -> Environment:
    if "means" not in doc:
        raise MalformedDocumentError("environment document lacks a 'means' field")
    means = doc["means"]
    if not isinstance(means, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in means
    ):
        raise MalformedDocumentError("'means' must be a list of per-action rows")
    rows = tuple(tuple(_number(x, f"means[{a}][{h}]") for h, x in enumerate(row))
                 for a, row in enumerate(means))
    name = doc.get("name", "custom")
    sigma = _number(doc.get("sigma", 1.0), "sigma")
    env = Environment(name=name, means=rows, sigma=sigma)
    for key in ("num_actions", "num_hypotheses"):
        if key not in doc:
            continue
        if isinstance(doc[key], bool) or not isinstance(doc[key], numbers.Integral):
            raise MalformedDocumentError(f"{key} must be an integer, got {doc[key]!r}")
        if doc[key] != getattr(env, key):
            raise MalformedDocumentError(
                f"declared {key}={doc[key]} but means matrix implies {getattr(env, key)}"
            )
    return env


def _number(value, field: str) -> float:
    """A document's number as a float; any other value is malformed."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise MalformedDocumentError(f"{field} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise MalformedDocumentError(f"{field} overflows a float") from None
