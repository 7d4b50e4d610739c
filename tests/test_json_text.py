"""``game.json_text`` writes every indented tollkit document: its text must
be ``json.dumps(payload, indent=2)`` byte for byte, and it must refuse what
``json.dumps`` refuses."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tollkit import (BasisFunction, GameInstance, LabelCoverInstance,
                     build_tax_profile, cli, game)
from tollkit.game import json_text

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-10 ** 40, max_value=10 ** 40),
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([-0.0, 1e-7, math.nan, math.inf, -math.inf, 2 ** 64]),
    st.text(),
    # Quotes, escapes, control characters, non-ASCII text, and a string
    # spelling out an item separator.
    st.sampled_from(['"', "\\", '\\"', "\n\t\r\x00\x1f\x7f", "é漢字😀",
                     "a],\n  [b"]))
keys = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
payloads = st.recursive(
    scalars,
    lambda children: st.one_of(st.lists(children, max_size=6),
                               st.lists(children, max_size=6).map(tuple),
                               st.dictionaries(keys, children, max_size=6)),
    max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_equals_json_dumps(payload):
    assert json_text(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("payload", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[[]], {}, [{}]], ((1, ()), ("x",)),
    {"flat": [1, 2.5, "s", True, False, None]},
    [-0.0, 1e-7, math.nan, math.inf, -math.inf, 10 ** 40, -(2 ** 64)],
    {1: [1], 2.5: {"x": ()}, True: [None], None: {"n": 1}, False: 0, math.nan: [],
     -math.inf: "k"},
    {1: 1, 2.5: 2, True: 3, None: 4},
    ['"\\', "\x00\x1f", "é漢字😀", "a],\n  [b", [np.float64(2.5), np.float64(math.nan)]],
    1.5, "text", None, True, math.nan, 10 ** 40,
], ids=repr)
def test_named_cases_equal_json_dumps(payload):
    assert json_text(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("bad", [{1, 2}, b"bytes", np.int64(3), object()],
                         ids=["set", "bytes", "int64", "object"])
@pytest.mark.parametrize("place", [
    lambda x: x, lambda x: [1, x], lambda x: {"a": [1], "b": x},
    lambda x: ([{"c": x}],)], ids=["alone", "flat", "nested", "deep"])
def test_refuses_what_json_dumps_refuses(bad, place):
    payload = place(bad)
    with pytest.raises(TypeError):
        json.dumps(payload, indent=2)
    with pytest.raises(TypeError):
        json_text(payload)


@pytest.mark.parametrize("payload", [{(1, 2): 1}, {(1, 2): [1]}, [{(1, 2): {}}]],
                         ids=["flat", "nested", "deep"])
def test_refuses_keys_json_dumps_refuses(payload):
    with pytest.raises(TypeError, match="keys must be"):
        json.dumps(payload, indent=2)
    with pytest.raises(TypeError, match="keys must be"):
        json_text(payload)


class TestDocuments:
    """One real document of each kind, each payload checked against
    ``json.dumps`` as it is written."""

    @pytest.fixture
    def written(self, monkeypatch):
        payloads = []

        def checked(payload):
            text = json_text(payload)
            assert text == json.dumps(payload, indent=2)
            payloads.append(payload)
            return text

        monkeypatch.setattr(cli, "json_text", checked)
        monkeypatch.setattr(game, "json_text", checked)
        return payloads

    @staticmethod
    def run(capsys, *argv):
        code = cli.main([str(a) for a in argv])
        streams = capsys.readouterr()
        return code, streams.out, streams.err

    @staticmethod
    def two_by_two(tmp_path):
        b = BasisFunction.monomial(1)
        inst = GameInstance.build([b], [[1.0], [1.0]], [[[0], [1]], [[0], [1]]])
        inst.save(tmp_path / "game.json")
        build_tax_profile(inst, [1.0, 1.0]).save(tmp_path / "taxes.json")
        return tmp_path / "game.json", tmp_path / "taxes.json"

    @staticmethod
    def saved_documents(out_dir):
        """Each JSON file under ``out_dir`` is the indented text of what it
        parses to, with a closing newline."""
        paths = sorted(out_dir.glob("*.json"))
        for path in paths:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
        return [path.name for path in paths]

    def test_design_bundle(self, capsys, tmp_path, written):
        game_path, _ = self.two_by_two(tmp_path)
        code, out, _ = self.run(capsys, "design", game_path, "--out", tmp_path / "out")
        assert code == 0
        bundle = next(p for p in written if "stages" in p)
        assert out == json.dumps(bundle, indent=2) + "\n"
        assert (tmp_path / "out" / "design_bundle.json").read_text() == out
        assert {"config-design.json", "taxes.json", "relaxation.json"} <= set(
            self.saved_documents(tmp_path / "out"))

    def test_forge_partition(self, capsys, tmp_path, written):
        code, out, _ = self.run(capsys, "forge", "partition", "--n", 120, "--beta", 4,
                                "--h", 3, "--k", 2, "--eta", 0.9, "--monomial", 1,
                                "--out", tmp_path / "out")
        assert code == 0
        assert out == json.dumps(written[-1], indent=2) + "\n"
        assert written[-1]["blocks"]
        self.saved_documents(tmp_path / "out")

    def test_forge_reduce(self, capsys, tmp_path, written):
        lc = LabelCoverInstance(num_left=2, num_right=1, edges=((0, 0), (1, 0)),
                                h=2, alpha=1, beta=1, pi={(0, 0): (0,), (1, 0): (0,)})
        lc.save(tmp_path / "lc.json")
        code, out, _ = self.run(capsys, "forge", "reduce", "--labelcover",
                                tmp_path / "lc.json", "--n", 8, "--k", 1, "--eta", 0.5,
                                "--beta", 2, "--monomial", 1, "--out", tmp_path / "out")
        assert code == 0
        reduction = next(p for p in written if "partitioning_system" in p)
        assert out == json.dumps(reduction, indent=2) + "\n"
        assert "instance.json" in self.saved_documents(tmp_path / "out")

    def test_learn_summary(self, capsys, tmp_path, written):
        game_path, taxes_path = self.two_by_two(tmp_path)
        code, out, _ = self.run(capsys, "learn", game_path, "--taxes", taxes_path,
                                "--rounds", 20, "--seeds", "0,1", "--out", tmp_path / "runs")
        assert code == 0
        assert len(written[-1]["runs"]) == 2
        assert out == json.dumps(written[-1], indent=2) + "\n"

    def test_analyze_basis_bell_table(self, capsys, tmp_path, written):
        code, out, _ = self.run(capsys, "analyze-basis", "--monomial", 2,
                                "--bell-table", 4, "--out", tmp_path / "out")
        assert code == 0
        assert len(written[-1]["bell_table"]) == 5
        assert out == json.dumps(written[-1], indent=2) + "\n"
        assert (tmp_path / "out" / "analyze_basis.json").read_text() == out

    def test_config_snapshot(self, capsys, tmp_path, written):
        self.run(capsys, "analyze-basis", "--table", "2,3", "--out", tmp_path / "out")
        config = (tmp_path / "out" / "config-analyze-basis.json").read_text()
        assert written[0] == {"argv": ["analyze-basis", "--table", "2,3",
                                       "--out", str(tmp_path / "out")]}
        assert config == json.dumps(written[0], indent=2) + "\n"

    def test_construction_failed_report(self, capsys, written):
        code, out, err = self.run(capsys, "forge", "partition", "--n", 6, "--beta", 4,
                                  "--h", 3, "--k", 2, "--eta", 0.01, "--monomial", 1)
        assert (code, out) == (4, "")
        assert written[-1]["status"] == "construction-failed"
        assert err == json.dumps(written[-1], indent=2) + "\n"
