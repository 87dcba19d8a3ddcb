"""The one instance reader behind every ``--instance``: cyclic collector off while it reads, restored after."""

import gc
import json
import weakref

import pytest

from detmax import cli, main

_GOOD = {
    "dim": 2,
    "points": [{"id": 0, "coords": [1.0, 0.0], "group": 0}, {"id": 3, "coords": [0.0, 1.0], "group": 1}],
    "constraint": {"type": "partition", "caps": [1, 1]},
}
_MALFORMED = dict(_GOOD, points=[{"id": "x", "coords": [1.0, 0.0]}])

# argv of each command that takes --instance, on the instance file {path}
_ARGV = {
    "coreset": ["coreset", "--instance", "{path}"],
    "solve": ["solve", "--instance", "{path}"],
    "run": ["run", "--instance", "{path}", "--parts", "2"],
}


def _commands_with_instance():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    return sorted(name for name, p in sub.choices.items() if "--instance" in p._option_string_actions)


def _argv(name, path, tmp_path):
    return [str(path) if a == "{path}" else a for a in _ARGV[name]] + ["--out", str(tmp_path / "out.json")]


@pytest.fixture
def collector_on():
    """Run with the collector on, and leave it as it was found."""
    was = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("content, code", [
    (_GOOD, 0),
    (_MALFORMED, 2),
    ("{not json", 2),
    (None, 2),  # no file
], ids=["good", "malformed-instance", "not-json", "missing-file"])
@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_collector_state_is_restored(tmp_path, capsys, content, code, enabled):
    path = tmp_path / "inst.json"
    if content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(_argv("run", path, tmp_path)) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert capsys.readouterr().err.startswith("error: ") == (code == 2)


class _Doc(dict):
    """A document that a weak reference can watch."""


@pytest.mark.parametrize("content, code", [(_GOOD, 0), (_MALFORMED, 2)], ids=["good", "malformed-instance"])
def test_collector_is_off_until_the_document_is_freed(tmp_path, monkeypatch, collector_on, content, code):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(content))
    seen, docs = [], []

    def load_json(p):
        seen.append(("parse", gc.isenabled()))
        doc = _Doc(json.loads(path.read_text()))
        docs.append(weakref.ref(doc))
        return doc

    def load_instance(doc):
        seen.append(("build", gc.isenabled()))
        return build(doc)

    def enable():
        seen.append(("enable", docs[-1]() is None))
        real_enable()

    build, real_enable = cli.load_instance, gc.enable
    monkeypatch.setattr(cli, "_load_json", load_json)
    monkeypatch.setattr(cli, "load_instance", load_instance)
    monkeypatch.setattr(gc, "enable", enable)
    assert main(_argv("run", path, tmp_path)) == code
    assert seen == [("parse", False), ("build", False), ("enable", True)]


def test_every_instance_command_reads_through_the_one_reader(tmp_path, monkeypatch, collector_on):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_GOOD))
    reads, builds = [], []
    reader, build = cli._load_instance, cli.load_instance

    def counted_reader(p):
        reads.append(p)
        return reader(p)

    def load_instance(doc):
        builds.append(gc.isenabled())
        return build(doc)

    monkeypatch.setattr(cli, "_load_instance", counted_reader)
    monkeypatch.setattr(cli, "load_instance", load_instance)
    commands = _commands_with_instance()
    assert set(commands) == set(_ARGV)  # a new --instance command needs an argv here
    for name in commands:
        del reads[:], builds[:]
        assert main(_argv(name, path, tmp_path)) == 0, name
        assert (reads, builds) == ([str(path)], [False]), name
