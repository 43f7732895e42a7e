"""Unit tests for experiment result reporting and persisted cell artifacts."""

import json

import pytest

from repro.analysis.reporting import (
    ARTIFACT_SCHEMA_VERSION,
    CellArtifact,
    ExperimentResult,
    SeriesResult,
    artifact_path,
    iter_cell_artifacts,
    load_cell_artifact,
    write_cell_artifact,
)


def _sample_result() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="EXP-X",
        title="demo",
        paper_claim="claim",
        parameters={"trials": 4},
    )
    series = SeriesResult(name="uniform/ring")
    for n, v in [(128, 10.0), (256, 14.0), (512, 20.0)]:
        series.add(n, v)
    result.add_series(series)
    return result


class TestSeriesResult:
    def test_add_and_fit(self):
        s = SeriesResult(name="x")
        s.add(100, 10)
        s.add(400, 20)
        fit = s.power_law()
        assert fit is not None
        assert fit.exponent == pytest.approx(0.5, abs=1e-9)

    def test_fit_requires_two_points(self):
        s = SeriesResult(name="x")
        s.add(100, 10)
        assert s.power_law() is None

    def test_as_dict(self):
        s = SeriesResult(name="x")
        s.add(10, 1)
        s.add(100, 2)
        d = s.as_dict()
        assert d["name"] == "x"
        assert d["sizes"] == [10, 100]
        assert d["exponent"] is not None


class TestExperimentResult:
    def test_get_series(self):
        result = _sample_result()
        assert result.get_series("uniform/ring").sizes == [128, 256, 512]
        with pytest.raises(KeyError):
            result.get_series("missing")

    def test_to_text_contains_claim_and_series(self):
        text = _sample_result().to_text()
        assert "EXP-X" in text
        assert "claim" in text
        assert "uniform/ring" in text

    def test_to_markdown_contains_table(self):
        md = _sample_result().to_markdown()
        assert md.startswith("### EXP-X")
        assert "| series |" in md or "| series " in md

    def test_to_json_roundtrip(self):
        payload = json.loads(_sample_result().to_json())
        assert payload["experiment_id"] == "EXP-X"
        assert payload["series"][0]["sizes"] == [128, 256, 512]

    def test_conclusion_included(self):
        result = _sample_result()
        result.conclusion = "matches the paper"
        assert "matches the paper" in result.to_text()
        assert "matches the paper" in result.to_markdown()


def _sample_artifact() -> CellArtifact:
    return CellArtifact(
        experiment_id="EXP-7",
        family="size sweep / critical r=2",
        n=256,
        config={"sizes": [128, 256], "seed": 7},
        payload={"series": {"size sweep / critical r=2": {"n": 256, "value": 9.25}}},
    )


class TestCellArtifact:
    def test_json_roundtrip(self):
        artifact = _sample_artifact()
        assert CellArtifact.from_json(artifact.to_json()) == artifact

    def test_filename_is_filesystem_safe_and_stable(self):
        name = _sample_artifact().filename()
        assert "/" not in name and " " not in name and "=" not in name
        assert name == _sample_artifact().filename()
        assert name == artifact_path(".", "EXP-7", "size sweep / critical r=2", 256).name

    def test_write_and_load(self, tmp_path):
        artifact = _sample_artifact()
        path = write_cell_artifact(tmp_path / "nested", artifact)
        assert path.parent == tmp_path / "nested"
        assert load_cell_artifact(path) == artifact

    def test_two_writers_of_one_cell_do_not_share_a_temp_file(self, tmp_path, monkeypatch):
        # A stale-lease takeover lets a second shard write the same cell
        # while the first is between its write and its rename.
        import os

        artifact = _sample_artifact()
        real_replace = os.replace
        nested = []

        def replace(src, dst):
            if not nested:
                nested.append(src)
                write_cell_artifact(tmp_path, artifact)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        path = write_cell_artifact(tmp_path, artifact)
        assert nested and load_cell_artifact(path) == artifact
        assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temp litter

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        import os

        def replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="disk full"):
            write_cell_artifact(tmp_path, _sample_artifact())
        assert list(tmp_path.iterdir()) == []

    def test_artifact_mode_follows_umask(self, tmp_path):
        import os

        old = os.umask(0o027)
        try:
            path = write_cell_artifact(tmp_path, _sample_artifact())
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == 0o640

    def test_unknown_schema_version_rejected(self):
        data = json.loads(_sample_artifact().to_json())
        data["schema_version"] = ARTIFACT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            CellArtifact.from_json(json.dumps(data))

    def test_iter_skips_foreign_json(self, tmp_path):
        write_cell_artifact(tmp_path, _sample_artifact())
        (tmp_path / "notes.json").write_text("{\"unrelated\": true}", encoding="utf-8")
        (tmp_path / "broken.json").write_text("{not json", encoding="utf-8")
        artifacts = iter_cell_artifacts(tmp_path)
        assert len(artifacts) == 1
        assert artifacts[0].experiment_id == "EXP-7"

    def test_iter_missing_directory(self, tmp_path):
        assert iter_cell_artifacts(tmp_path / "absent") == []
