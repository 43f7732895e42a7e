"""Structured experiment results and persisted sweep artifacts.

Every experiment module returns an :class:`ExperimentResult`: a set of named
series (one per scheme / graph family), each mapping problem size ``n`` to a
measured quantity (usually the estimated greedy diameter), plus fitted
exponents and a free-form conclusion comparing measurement against the
paper's claim.

The sweep pipeline additionally persists every computed *cell* — one
``(experiment, family, n)`` unit of work — as a :class:`CellArtifact` JSON
file, so long sweeps are resumable (``--resume`` skips cells whose artifact
already exists with a matching configuration) and reports can be regenerated
from artifacts alone without re-running any routing.
"""

from __future__ import annotations

import json
import os
import secrets
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.analysis.scaling import PowerLawFit, fit_power_law
from repro.analysis.tables import format_markdown_table, format_table
from repro.utils.text import slugify

__all__ = [
    "SeriesResult",
    "ExperimentResult",
    "CellArtifact",
    "ARTIFACT_SCHEMA_VERSION",
    "artifact_path",
    "write_cell_artifact",
    "load_cell_artifact",
    "iter_cell_artifacts",
]


@dataclass
class SeriesResult:
    """One measured curve: quantity vs problem size."""

    name: str
    sizes: List[int] = field(default_factory=list)
    values: List[float] = field(default_factory=list)
    metadata: Dict[str, float] = field(default_factory=dict)

    def add(self, size: int, value: float) -> None:
        """Append a measurement."""
        self.sizes.append(int(size))
        self.values.append(float(value))

    def power_law(self) -> Optional[PowerLawFit]:
        """Power-law fit of the series (``None`` with fewer than two points)."""
        if len(self.sizes) < 2:
            return None
        return fit_power_law(self.sizes, self.values)

    def as_dict(self) -> dict:
        fit = self.power_law()
        return {
            "name": self.name,
            "sizes": self.sizes,
            "values": self.values,
            "exponent": fit.exponent if fit else None,
            "r_squared": fit.r_squared if fit else None,
            "metadata": self.metadata,
        }


@dataclass
class ExperimentResult:
    """Full result of one experiment (one id of the DESIGN.md index)."""

    experiment_id: str
    title: str
    paper_claim: str
    series: List[SeriesResult] = field(default_factory=list)
    conclusion: str = ""
    parameters: Dict[str, object] = field(default_factory=dict)

    def add_series(self, series: SeriesResult) -> None:
        self.series.append(series)

    def get_series(self, name: str) -> SeriesResult:
        for s in self.series:
            if s.name == name:
                return s
        raise KeyError(f"no series named {name!r}")

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #

    def summary_rows(self) -> List[List[object]]:
        rows: List[List[object]] = []
        for s in self.series:
            fit = s.power_law()
            rows.append(
                [
                    s.name,
                    ", ".join(str(n) for n in s.sizes),
                    ", ".join(f"{v:.1f}" for v in s.values),
                    f"{fit.exponent:.3f}" if fit else "n/a",
                    f"{fit.r_squared:.3f}" if fit else "n/a",
                ]
            )
        return rows

    def to_text(self) -> str:
        """Plain-text report (printed by the example scripts and the benches)."""
        headers = ["series", "sizes", "values", "exponent", "R^2"]
        lines = [
            f"[{self.experiment_id}] {self.title}",
            f"paper claim: {self.paper_claim}",
            format_table(self.summary_rows(), headers),
        ]
        if self.conclusion:
            lines.append(f"conclusion: {self.conclusion}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """Markdown report (pasted into EXPERIMENTS.md)."""
        headers = ["series", "sizes", "values", "exponent", "R^2"]
        parts = [
            f"### {self.experiment_id} — {self.title}",
            "",
            f"*Paper claim*: {self.paper_claim}",
            "",
            format_markdown_table(self.summary_rows(), headers),
        ]
        if self.conclusion:
            parts.extend(["", f"*Conclusion*: {self.conclusion}"])
        return "\n".join(parts)

    def to_json(self) -> str:
        """Machine-readable JSON dump."""
        return json.dumps(
            {
                "experiment_id": self.experiment_id,
                "title": self.title,
                "paper_claim": self.paper_claim,
                "parameters": self.parameters,
                "series": [s.as_dict() for s in self.series],
                "conclusion": self.conclusion,
            },
            indent=2,
            default=str,
        )


# --------------------------------------------------------------------------- #
# Persisted sweep artifacts
# --------------------------------------------------------------------------- #

#: Bump when the artifact layout changes; loaders reject newer/older versions.
#: Version 2: cell payloads record the per-instance seed and the graph's CSR
#: content fingerprint (GraphStore era), and graph generation / pair sampling
#: are instance-seeded rather than cell-seeded — version-1 artifacts measured
#: different pair sets, so resuming onto them would silently mix statistics.
#: Version 3: sweeps route on counter-seeded lanes (different random streams
#: from version 2) and the config fingerprint no longer carries ``engine``.
#: Version 4: the Kleinberg distance-power scheme draws a shell, then a shell
#: member (two uniforms per contact), so EXP-7 payloads differ from version 3.
ARTIFACT_SCHEMA_VERSION = 4


#: Filesystem-safe slug for artifact filenames — shared with the GraphStore's
#: spill filenames so the two naming schemes cannot drift apart.
_slugify = slugify


@dataclass
class CellArtifact:
    """Persisted result of one ``(experiment, family, n)`` sweep cell.

    Attributes
    ----------
    experiment_id, family, n:
        The cell key (exact, un-slugified strings — the filename is derived
        but the JSON body is authoritative).
    config:
        Fingerprint of the :class:`~repro.experiments.config.ExperimentConfig`
        the cell was computed under (``dataclasses.asdict``).  A resume run
        only reuses an artifact whose fingerprint matches its own config.
    payload:
        The module's JSON-safe cell payload (see
        :func:`repro.experiments.common.scaling_cell`).
    """

    experiment_id: str
    family: str
    n: int
    config: Dict[str, object]
    payload: Dict[str, object]
    schema_version: int = ARTIFACT_SCHEMA_VERSION

    def filename(self) -> str:
        return (
            f"{_slugify(self.experiment_id)}__{_slugify(self.family)}__n{int(self.n)}.json"
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema_version": self.schema_version,
                "experiment_id": self.experiment_id,
                "family": self.family,
                "n": int(self.n),
                "config": self.config,
                "payload": self.payload,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "CellArtifact":
        data = json.loads(text)
        version = data.get("schema_version")
        if version != ARTIFACT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported artifact schema version {version!r} "
                f"(this build reads version {ARTIFACT_SCHEMA_VERSION})"
            )
        return cls(
            experiment_id=data["experiment_id"],
            family=data["family"],
            n=int(data["n"]),
            config=data["config"],
            payload=data["payload"],
            schema_version=int(version),
        )


def artifact_path(directory: Union[str, Path], experiment_id: str, family: str, n: int) -> Path:
    """Canonical artifact location for a cell key."""
    stub = CellArtifact(experiment_id=experiment_id, family=family, n=n, config={}, payload={})
    return Path(directory) / stub.filename()


def write_cell_artifact(directory: Union[str, Path], artifact: CellArtifact) -> Path:
    """Write *artifact* under *directory* (created if needed); returns the path.

    The write goes through a temporary file + rename so a crashed sweep never
    leaves a half-written artifact that a later ``--resume`` would trust.
    Each write gets a temporary file of its own: two ``--shard`` workers
    write the same cell when a lease goes stale under a live holder, and a
    shared name would let one rename the other's file away mid-write.  Its
    name does not end in ``.json``, so :func:`iter_cell_artifacts` never
    reads it.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / artifact.filename()
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(artifact.to_json() + "\n")
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # failed write: do not leave temp litter behind
            tmp.unlink()
    return path


def load_cell_artifact(path: Union[str, Path]) -> CellArtifact:
    """Load one artifact file (raises on missing file / wrong schema)."""
    return CellArtifact.from_json(Path(path).read_text(encoding="utf-8"))


def iter_cell_artifacts(directory: Union[str, Path]) -> List[CellArtifact]:
    """Load every ``*.json`` artifact under *directory*, sorted by filename.

    Files that are not valid artifacts (wrong schema, foreign JSON) are
    skipped silently so the artifact directory can live alongside other
    output files.
    """
    directory = Path(directory)
    artifacts: List[CellArtifact] = []
    if not directory.is_dir():
        return artifacts
    for path in sorted(directory.glob("*.json")):
        try:
            artifacts.append(load_cell_artifact(path))
        except (ValueError, KeyError, json.JSONDecodeError):
            continue
    return artifacts
