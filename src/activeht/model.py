"""Gaussian sensing environments: hypotheses, actions and divergences.

An environment is a finite set of hypotheses, a finite set of sensing
actions, and a mean matrix (actions as rows, hypotheses as columns).
Selecting action ``a`` when hypothesis ``h`` is true yields one draw from
``Normal(means[a][h], sigma**2)``.  Everything downstream (likelihoods,
pairwise divergences, allocation oracles) is determined by this matrix.
Construction reads the means and sigma once and stores them as plain floats;
numpy loads with the first table asked for, so ``activeht env`` runs without it.
"""

from __future__ import annotations

import json
import numbers
from functools import cached_property
from math import inf, isfinite
from pathlib import Path


class ModelError(ValueError):
    """Base class for environment construction failures."""


class MalformedDocumentError(ModelError):
    """The environment document is missing fields or has bad shapes/values."""


class IdentifiabilityError(ModelError):
    """Some hypothesis pair cannot be distinguished by any action."""


class Environment:
    """Immutable problem instance.

    Construction checks shapes and ranges only: hypothesis pairs that no
    action separates are allowed, and ``load_environment`` rejects them.
    Equality, hashing and repr go by (name, means, sigma), as a frozen
    dataclass's do; a plain class, so ``activeht env`` loads no dataclasses.

    Attributes:
        name: human-readable label, carried into result tables as a CSV
            field, so it holds no comma or line break.
        means: per-action observation means, ``means[a][h]``; float tuples.
        sigma: common observation noise standard deviation (> 0), a float.
    """

    def __init__(self, name: str, means: tuple[tuple[float, ...], ...], sigma: float = 1.0):
        # The only reader of means and sigma; documents get the same checks.
        if not isinstance(means, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in means
        ):
            raise MalformedDocumentError("'means' must be a list of per-action rows")
        rows = tuple(tuple(_number(x, f"means[{a}][{h}]") for h, x in enumerate(row))
                     for a, row in enumerate(means))
        sigma = _number(sigma, "sigma")
        if not isinstance(name, str):
            raise MalformedDocumentError(f"environment name must be a string, got {name!r}")
        if any(ch in name for ch in ",\n\r"):
            raise MalformedDocumentError(
                f"environment name {name!r} must not contain a comma or line break")
        if not rows or not rows[0]:
            raise MalformedDocumentError("means matrix must be non-empty")
        if any(len(row) != len(rows[0]) for row in rows):
            raise MalformedDocumentError("means matrix rows have unequal lengths")
        if not all(isfinite(x) for row in rows for x in row):
            raise MalformedDocumentError("means matrix contains non-finite entries")
        if not (isfinite(sigma) and sigma > 0):
            raise MalformedDocumentError(f"sigma must be positive, got {sigma}")
        # The likelihoods scale by -0.5 / sigma**2 and the divergences divide
        # by 2 sigma**2.  var is tested first: float division by 0 raises.
        var = sigma * sigma
        if not (0 < var < inf and 0 < 0.5 / var < inf):
            raise MalformedDocumentError(
                f"sigma {sigma} is out of range: sigma**2 or 0.5/sigma**2 is 0 or overflows")
        # Rounding is monotone: a row's widest gap gives its largest divergence.
        if not all(isfinite(_divergence(max(row) - min(row), sigma)) for row in rows):
            raise MalformedDocumentError("means gaps overflow the divergence table")
        self.__dict__.update(name=name, means=rows, sigma=sigma)

    def _fields(self) -> tuple:
        return self.name, self.means, self.sigma

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "Environment(name={!r}, means={!r}, sigma={!r})".format(*self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Rebuilt from its fields, so a copy sent to a pool worker carries no
        # cached table and builds its own read-only ones.
        return Environment, self._fields()

    @property
    def num_actions(self) -> int:
        return len(self.means)

    @property
    def num_hypotheses(self) -> int:
        return len(self.means[0])

    @cached_property
    def means_array(self) -> np.ndarray:
        import numpy as np  # the first table asked for loads numpy
        return _read_only(np.array(self.means, dtype=float))

    @cached_property
    def kl_table(self) -> np.ndarray:
        """Read-only divergence tensor: ``[a, h, g]`` holds d_a(h, g) in nats
        per draw, the equal-variance Gaussian closed form
        ``(means[a][h] - means[a][g])**2 / (2 sigma**2)``.  Built on first
        use; construction has checked that no entry overflows."""
        mu = self.means_array
        return _read_only(_divergence(mu[:, :, None] - mu[:, None, :], self.sigma))

    @cached_property
    def max_divergence(self) -> np.ndarray:
        """max over actions of d_a(h, g); zero entries mark indistinct pairs."""
        return _read_only(self.kl_table.max(axis=0))

    @cached_property
    def best_action(self) -> np.ndarray:
        """argmax over actions of d_a(h, g), lowest action index on ties."""
        return _read_only(self.kl_table.argmax(axis=0))

    def sha256(self) -> str:
        """Hex SHA-256 of the name, means and sigma.

        Identifies the exact instance a run used, also when it came from a
        file that changes later.
        """
        # Imported here: numpy does not load it, and only sweeps ask.
        import hashlib

        doc = {"name": self.name, "sigma": self.sigma, "means": self.means}
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()

    def indistinguishable_pairs(self) -> list[tuple[int, int]]:
        """Hypothesis pairs (h < g) with zero divergence under every action,
        where ``max_divergence`` is 0; found without building the table."""
        k = self.num_hypotheses
        return [(h, g) for h in range(k) for g in range(h + 1, k)
                if not any(_divergence(row[h] - row[g], self.sigma) for row in self.means)]


def _divergence(gap, sigma: float):
    """Divergence of a float gap or a gap array, underflow to 0 included; gap *
    gap, since float ** raises OverflowError where numpy returns inf."""
    return gap * gap / (2.0 * sigma**2)


def _read_only(table):
    table.setflags(write=False)
    return table


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
    trusted and load as published.
    """
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
        if not path.is_file():
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
    env = Environment(name=doc.get("name", "custom"), means=doc["means"],
                      sigma=doc.get("sigma", 1.0))
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
