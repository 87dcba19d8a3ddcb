"""The one instance reader behind every ``--instance``: cyclic collector off while it reads, restored after."""

import gc
import json
import sys
import weakref

import pytest

from detmax import cli, ingest, main

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


class _Text(str):
    """A file's text that a weak reference can watch."""


class _Slice(list):
    """A parsed slice that a weak reference can watch."""


@pytest.mark.parametrize("content, code", [
    (_GOOD, 0),
    (_MALFORMED, 2),
    ("{not json", 2),
    (None, 2),  # no file
], ids=["good", "malformed-instance", "not-json", "missing-file"])
def test_collector_is_off_until_the_document_is_freed(tmp_path, monkeypatch, collector_on, content, code):
    """Off while the text is read and the columns are built; on again only once the text and every slice are freed.

    A JSONDecodeError keeps the text it reports on as its ``doc``; that is the one reference allowed to outlive the read.
    """
    path = tmp_path / "inst.json"
    if content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    seen, watched, errors = [], [], []
    read, scan_once, parse_json, load_instance = ingest._read, ingest._scan_once, ingest.parse_json, ingest.load_instance

    def watch(value):
        watched.append(weakref.ref(value))
        return value

    def alive():
        held = [id(getattr(e, "doc", None)) for e in errors]
        return [r() for r in watched if r() is not None and id(r()) not in held]

    def counted_read(p):
        seen.append(("read", gc.isenabled()))
        return watch(_Text(read(p)))

    def counted_scan(text, idx):
        seen.append(("scan", gc.isenabled()))
        value, end = scan_once(text, idx)
        return (watch(_Slice(value)) if isinstance(value, list) else value), end

    def whole(text):
        try:
            return parse_json(text)
        except ValueError as exc:
            errors.append(exc)
            raise

    def build(doc, columns):
        seen.append(("build", gc.isenabled(), len(alive())))  # the text is gone before the points are validated
        return load_instance(doc, columns)

    def enable():
        seen.append(("enable", len(alive())))
        real_enable()

    real_enable = gc.enable
    monkeypatch.setattr(ingest, "SLICE_CHARS", 1)  # a slice per point
    monkeypatch.setattr(ingest, "_read", counted_read)
    monkeypatch.setattr(ingest, "_scan_once", counted_scan)
    monkeypatch.setattr(ingest, "parse_json", whole)
    monkeypatch.setattr(ingest, "load_instance", build)
    monkeypatch.setattr(gc, "enable", enable)
    assert main(_argv("run", path, tmp_path)) == code
    steps = [step for i, step in enumerate(seen) if step != seen[i - 1] or i == 0]  # one entry per run of scans
    parsed = isinstance(content, dict)
    assert steps == [("read", False)] + [("scan", False), ("build", False, 0)] * parsed + [("enable", 0)]
    assert (bool(watched), len(errors)) == (content is not None, content == "{not json")


def test_every_instance_command_reads_through_the_one_reader(tmp_path, monkeypatch, collector_on):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_GOOD))
    reads, wholes = [], []
    reader = cli.read_instance

    def counted_reader(p):
        reads.append((p, gc.isenabled()))
        return reader(p)

    monkeypatch.setattr(cli, "read_instance", counted_reader)
    monkeypatch.setattr(ingest, "parse_json", wholes.append)
    commands = _commands_with_instance()
    assert set(commands) == set(_ARGV)  # a new --instance command needs an argv here
    for name in commands:
        del reads[:]
        assert main(_argv(name, path, tmp_path)) == 0, name
        assert reads == [(str(path), False)], name
    assert wholes == []  # an instance file that scans is never parsed whole


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("argv, files", [
    (["run", "--instance", "{a}", "--parts", "2"], {"a": dict(_GOOD, meta="{deep}")}),
    (["coreset", "--instance", "{a}"], {"a": dict(_GOOD, meta="{deep}")}),
    (["solve", "--instance", "{a}"], {"a": dict(_GOOD, meta="{deep}")}),
    (["run", "--instance", "{a}"], {"a": _DEEP}),
    (["coreset", "--instance", "{a}"], {"a": _DEEP}),
    (["solve", "--instance", "{a}"], {"a": _DEEP}),
    (["run", "--instance", "{a}"], {"a": dict(_GOOD, points=[dict(_GOOD["points"][0], note="{deep}")])}),
    (["solve", "--instance", "{a}", "--coreset", "{b}"], {"a": _GOOD, "b": _DEEP}),
    (["compose", "{a}", "{b}"], {"a": _DEEP, "b": _DEEP}),
    (["gen", "--constraint", "laminar", "--laminar-sets", _DEEP], {}),
], ids=["run-meta", "coreset-meta", "solve-meta", "run-array", "coreset-array", "solve-array",
        "run-in-a-point", "solve-coreset", "compose", "gen-laminar-sets"])
def test_json_nested_too_deeply_exits_2(tmp_path, capsys, argv, files):
    """The scanner's RecursionError is an input error: exit 2, one error line, no traceback."""
    for name, content in files.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (tmp_path / name).write_text(text.replace('"{deep}"', "[" * 5_000 + "]" * 5_000))
    argv = [str(tmp_path / a[1]) if a in ("{a}", "{b}") else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err == "error: JSON nested too deeply\n"


@pytest.mark.parametrize("coord", ["1" + "0" * 400, "-1" + "0" * 400], ids=["positive", "negative"])
@pytest.mark.parametrize("command", sorted(_ARGV))
def test_an_int_coordinate_beyond_float_range_exits_2(tmp_path, capsys, command, coord):
    """JSON reads it as an int that float() refuses; it is a coordinate beyond MAX_COORD, as 1e300 is."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_GOOD).replace("[0.0, 1.0]", "[0.0, %s]" % coord))
    assert main(_argv(command, path, tmp_path)) == 2
    assert capsys.readouterr().err == "error: point 3 has a coordinate beyond 1e+100 in magnitude\n"


_LONG = "7" * 5_001  # an int literal beyond the interpreter's default limit of 4,300 digits


@pytest.fixture
def digit_limit():
    """The default limit on int literals, whatever the environment set, restored after."""
    was = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(was)


@pytest.mark.parametrize("argv, files", [
    (["run", "--instance", "{a}", "--parts", "2"], {"a": "coord"}),
    (["coreset", "--instance", "{a}"], {"a": "coord"}),
    (["solve", "--instance", "{a}"], {"a": "coord"}),
    (["run", "--instance", "{a}"], {"a": dict(_GOOD, meta="{long}")}),
    (["solve", "--instance", "{a}", "--coreset", "{b}"], {"a": _GOOD, "b": {"ids": "{long}"}}),
    (["compose", "{a}", "{b}"], {"a": {"ids": "{long}"}, "b": {"ids": "{long}"}}),
    (["gen", "--constraint", "laminar", "--laminar-sets", '[{"ids": [0], "cap": %s}]' % _LONG], {}),
], ids=["run-coord", "coreset-coord", "solve-coord", "run-meta", "solve-coreset", "compose", "gen-laminar-sets"])
def test_int_literal_beyond_the_digit_limit_exits_2(tmp_path, capsys, digit_limit, argv, files):
    """json.loads raises a plain ValueError for it, not a JSONDecodeError: exit 2, one error line, no traceback."""
    for name, content in files.items():
        text = json.dumps(_GOOD).replace("[0.0, 1.0]", "[0.0, {long}]") if content == "coord" else json.dumps(content)
        (tmp_path / name).write_text(text.replace("{long}", _LONG).replace('"%s"' % _LONG, _LONG))
    argv = [str(tmp_path / a[1]) if a in ("{a}", "{b}") else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err == "error: JSON integer longer than 4300 digits\n"
