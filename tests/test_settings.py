"""The one ``REPRO_*`` knob parser (``repro.settings``).

Every knob shares one grammar: booleans take ``1/true/yes/on`` and
``0/false/no/off`` in any case and with surrounding spaces; empty or
unset means the default; anything unparseable raises ``SettingsError``
naming the variable, and so does a ``REPRO_*`` name that is no setting.  Two tooling checks keep the parser the only
reader of the environment and the README table in step with it.
"""

import dataclasses
import pathlib
import re

import pytest

from repro.experiments.cache import default_cache
from repro.settings import Settings, SettingsError, current

REPO = pathlib.Path(__file__).resolve().parents[1]

KNOBS = {spec.metadata["env"]: spec for spec in dataclasses.fields(Settings)}
BOOLEANS = sorted(env for env, spec in KNOBS.items() if spec.type == "bool")
NUMERIC = sorted(env for env, spec in KNOBS.items()
                 if spec.type in ("int", "float"))

ON = ("1", "true", "yes", "on", "TRUE", "Yes", "On", " 1 ", " on\t")
OFF = ("0", "false", "no", "off", "FALSE", "No", "OFF", "False", " 0")


@pytest.fixture
def clean_env(monkeypatch):
    for env in KNOBS:
        monkeypatch.delenv(env, raising=False)
    return monkeypatch


def value_of(env: str):
    return getattr(current(), KNOBS[env].name)


def test_every_knob_is_typed():
    """Every field is a boolean, a number or a string/path."""
    assert BOOLEANS and NUMERIC
    strings = {env for env, spec in KNOBS.items()
               if spec.type in ("str | None", "pathlib.Path")}
    assert set(BOOLEANS) | set(NUMERIC) | strings == set(KNOBS)


@pytest.mark.parametrize("env", BOOLEANS)
@pytest.mark.parametrize("spelling,expected",
                         [(raw, True) for raw in ON]
                         + [(raw, False) for raw in OFF])
def test_boolean_spellings(clean_env, env, spelling, expected):
    clean_env.setenv(env, spelling)
    assert value_of(env) is expected


@pytest.mark.parametrize("env", BOOLEANS + NUMERIC)
def test_empty_means_default(clean_env, env):
    default = value_of(env)
    clean_env.setenv(env, "  ")
    assert value_of(env) == default


@pytest.mark.parametrize("env", BOOLEANS + NUMERIC)
def test_unparseable_value_names_the_variable(clean_env, env):
    clean_env.setenv(env, "5s")
    with pytest.raises(SettingsError, match=env):
        current()


@pytest.mark.parametrize("spelling", ["off", "OFF", "False", " 0"])
def test_cache_off_spellings_disable_the_cache(clean_env, spelling):
    clean_env.setenv("REPRO_CACHE", spelling)
    assert default_cache() is None


def test_parsed_values_keep_their_meaning(clean_env):
    for env, raw in (("REPRO_SCALE", "0.25"), ("REPRO_WARMUP", "500"),
                     ("REPRO_JOBS", "3"),
                     ("REPRO_OBS_INTERVAL", "1"),
                     ("REPRO_CACHE_DIR", "/tmp/elsewhere")):
        clean_env.setenv(env, raw)
    knobs = current()
    assert (knobs.scale, knobs.warmup, knobs.jobs) == (0.25, 500, 3)
    assert knobs.obs_interval == 50_000          # bare "on" period
    assert knobs.cache_dir == pathlib.Path("/tmp/elsewhere")


@pytest.mark.parametrize("env", ["REPRO_BACKEND", "REPRO_BATCH",
                                 "REPRO_JOB", "REPRO_MANIFEST",
                                 "REPRO_MANIFEST_DIR", "REPRO_POINT_TIMEOUT",
                                 "REPRO_DEADLETTER", "REPRO_FAULTS",
                                 "REPRO_DEADLETTER_DIR", "REPRO_FSYNC",
                                 "REPRO_TRACE"])
def test_unknown_variable_is_named(clean_env, env):
    """A retired knob or a typo raises instead of being ignored; an
    empty value is as good as unset."""
    clean_env.setenv(env, "  ")
    current()
    clean_env.setenv(env, "1")
    with pytest.raises(SettingsError, match=rf"^{env}: not a REPRO_"):
        current()


# -- tooling: one reader, one documented list ---------------------------------

_READ = re.compile(r"""environ\.get\(\s*["']REPRO_|environ\[\s*["']REPRO_"""
                   r"""|getenv\(\s*["']REPRO_""")


def test_only_settings_reads_repro_variables():
    offenders = []
    for path in sorted((REPO / "src").rglob("*.py")):
        if path.relative_to(REPO / "src").as_posix() == "repro/settings.py":
            continue
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if _READ.search(line):
                offenders.append(f"{path.relative_to(REPO)}:{number}")
    assert offenders == [], "read REPRO_* through repro.settings.current()"


def test_src_names_only_real_knobs():
    """Every ``REPRO_*`` token under ``src/`` — docstrings included —
    names a setting, so no text points at a retired knob."""
    stray = sorted({f"{path.relative_to(REPO)}: {name}"
                    for path in (REPO / "src").rglob("*.py")
                    for name in re.findall(r"REPRO_[A-Z0-9_]+",
                                           path.read_text())
                    if name not in KNOBS})
    assert stray == []


def test_readme_knob_table_matches_settings():
    rows = re.findall(r"^\|\s*`(REPRO_[A-Z0-9_]+)`",
                      (REPO / "README.md").read_text(), flags=re.MULTILINE)
    assert len(rows) == len(set(rows)), "duplicate README knob rows"
    assert sorted(rows) == sorted(KNOBS)
