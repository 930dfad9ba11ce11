"""Every run setting reads the same from a config file, the environment and
its flag."""

from dataclasses import fields
from datetime import date

import pytest

from chartflow.cli import RunConfig, build_parser, resolve_config
from chartflow.design import ACTIVE_RULES, LagConfig, build_design
from chartflow.evaluate import SOLVERS, evaluate_city
from chartflow.preprocess import FILTER_STAGES, build_velocities

# One non-default text per setting, and the value it must resolve to.
TEXTS = {
    "corpus_path": ("charts/week.csv", "charts/week.csv"),
    "tags_path": ("tags.csv", "tags.csv"),
    "tag": ("indie rock", "indie rock"),
    "labels_path": ("labels.csv", "labels.csv"),
    "region_label": ("north", "north"),
    "cities_included": (" lead, echo ,", ("lead", "echo")),
    "lag_count": ("6", 6),
    "boundary": ("20070204", date(2007, 2, 4)),
    "solver": ("nnls", "nnls"),
    "active_set": ("union", "union"),
    "filter_stage": ("post", "post"),
    "output_dir": ("out/run", "out/run"),
}


@pytest.fixture(autouse=True)
def _no_chartflow_env(monkeypatch):
    for setting in fields(RunConfig):
        monkeypatch.delenv("CHARTFLOW_" + setting.name.upper(), raising=False)


@pytest.mark.parametrize("key", [setting.name for setting in fields(RunConfig)])
def test_each_layer_resolves_a_setting_alike(key, tmp_path, monkeypatch):
    text, expected = TEXTS[key]
    assert getattr(RunConfig(), key) != expected
    parser = build_parser()

    config_file = tmp_path / "run.cfg"
    config_file.write_text(f"{key} = {text}\n", encoding="utf-8")
    from_file = resolve_config(
        parser.parse_args(["evaluate", "--config", str(config_file)]))

    with monkeypatch.context() as env:
        env.setenv("CHARTFLOW_" + key.upper(), text)
        from_env = resolve_config(parser.parse_args(["evaluate"]))

    flag = "--" + key.replace("_", "-")
    from_flag = resolve_config(parser.parse_args(["evaluate", flag, text]))

    assert from_file == from_env == from_flag == RunConfig(**{key: expected})


def test_enumerated_settings_read_the_library_tuples(small_series,
                                                     small_velocities):
    """Each enumerated setting's allowed values are the tuple of the library
    call that checks them, which rejects any other value."""
    choices = {setting.name: setting.metadata["choices"]
               for setting in fields(RunConfig)}
    assert choices["solver"] is SOLVERS
    assert choices["active_set"] is ACTIVE_RULES
    assert choices["filter_stage"] is FILTER_STAGES
    config = LagConfig(8, small_velocities.cities)
    with pytest.raises(ValueError, match="'lasso'"):
        evaluate_city(small_velocities, "echo", config, solver_variant="lasso")
    with pytest.raises(ValueError, match="'every'"):
        build_design(small_velocities, "echo", config, "every")
    with pytest.raises(ValueError, match="'mid'"):
        build_velocities(small_series, filter_stage="mid")
