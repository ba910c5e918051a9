"""Command-line interface: commands, exit codes, report stability."""

import json

import pytest

import hyperinv.hypergraph as hypergraph
from hyperinv import named_instance
from hyperinv.cli import main


@pytest.fixture
def h1_file(tmp_path):
    path = tmp_path / "h1.json"
    path.write_text(named_instance("h1").to_json())
    return str(path)


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.json"
    path.write_text(named_instance("star3").to_json())
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariants:
    def test_h1_report(self, capsys, h1_file):
        code, out, err = run_cli(capsys, "invariants", h1_file)
        assert code == 0
        report = json.loads(out)
        assert report["matchings"]["c"] == 2
        assert report["matchings"]["c_prime"] == 3
        assert report["matchings"]["m"] == 4
        assert report["bouquets"]["d"] == 4
        assert report["bouquets"]["d_prime"] == 5
        assert report["homology"]["reg"] == 3
        assert report["homology"]["pd"] == 2
        assert report["codismantlable"]["order"] == ["x2", "x4"]
        assert "c=2" in err

    def test_star_report(self, capsys, star_file):
        code, out, _ = run_cli(capsys, "invariants", star_file)
        assert code == 0
        report = json.loads(out)
        assert report["matchings"]["c_prime"] == 1
        assert report["complex"]["dim"] == 2

    def test_checklist_never_fails_on_success(self, capsys, h1_file):
        _, out, _ = run_cli(capsys, "invariants", h1_file)
        report = json.loads(out)
        for name, entry in report["theorems"].items():
            if "hypotheses_hold" in entry and entry["hypotheses_hold"]:
                assert entry["conclusion_holds"] is not False, name

    def test_skip_homology(self, capsys, h1_file):
        code, out, _ = run_cli(capsys, "invariants", h1_file, "--skip-homology")
        assert code == 0
        report = json.loads(out)
        assert report["homology"] == {"omitted": "skipped by flag"}
        assert report["theorems"]["theorem-pd"] == {"omitted": "homology skipped"}

    def test_cycle_limit_option_is_gone(self, capsys, h1_file):
        with pytest.raises(SystemExit) as exc:
            main(["invariants", h1_file, "--cycle-limit", "5"])
        assert exc.value.code == 2
        assert "--cycle-limit" in capsys.readouterr().err

    def test_field_flag(self, capsys, h1_file):
        code, out, _ = run_cli(capsys, "invariants", h1_file, "--field", "f2")
        assert code == 0
        assert json.loads(out)["homology"]["field"] == "F2"

    def test_duplicate_edge_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}')
        code, _, err = run_cli(capsys, "invariants", str(path))
        assert code == 2
        assert "duplicate edge" in err

    def test_malformed_json_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, _ = run_cli(capsys, "invariants", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"vertices": ["a", "b"], "edges": "ab"}',
            '{"vertices": "ab", "edges": [["a", "b"]]}',
            '{"vertices": ["a", "b"], "edges": [["a", 1]]}',
            '{"vertices": ["a", "b"]}',
            '[["a", "b"]]',
        ],
    )
    def test_instance_of_wrong_shape_exit_two(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "invariants", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: an instance is")

    @pytest.mark.parametrize("field", ["zz", "f4", "f6"])
    def test_unknown_field_exit_two(self, capsys, h1_file, field):
        code, out, err = run_cli(capsys, "invariants", h1_file, "--field", field)
        assert code == 2 and out == ""
        assert err.startswith("error: unknown field") and "Traceback" not in err

    def test_missing_file_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, "invariants", "/does/not/exist.json")
        assert code == 2

    def test_cap_exit_three(self, capsys, h1_file):
        code, out, _ = run_cli(capsys, "invariants", h1_file, "--edge-cap", "2")
        assert code == 3
        report = json.loads(out)
        assert "omitted" in report["matchings"]

    def test_non_default_caps_are_honoured(self, capsys, tmp_path, h1_file):
        """The profile holds default-cap results only: another --edge-cap
        runs its own search."""
        _, default, _ = run_cli(capsys, "invariants", h1_file)
        code, out, _ = run_cli(capsys, "invariants", h1_file, "--edge-cap", "2")
        assert code == 3
        report = json.loads(out)
        assert "omitted" in report["matchings"] and "omitted" in report["bouquets"]
        assert report["theorems"] == json.loads(default)["theorems"]
        code, out, _ = run_cli(capsys, "invariants", h1_file, "--edge-cap", "3")
        assert (code, out) == (0, default)
        k8 = tmp_path / "k8.json"
        labels = [f"x{i + 1}" for i in range(8)]
        k8.write_text(json.dumps({"vertices": labels, "edges": [
            [a, b] for i, a in enumerate(labels) for b in labels[i + 1:]]}))
        code, out, _ = run_cli(capsys, "invariants", str(k8), "--edge-cap", "30")
        assert code == 3
        report = json.loads(out)
        assert (report["matchings"]["c"], report["matchings"]["m"]) == (1, 4)
        assert "exceed cap 12" in report["bouquets"]["omitted"]

    def test_k8_partial_report_exit_three(self, capsys, tmp_path):
        """K8 has 28 edges: past the cycle-search cap (20), so its C5
        hypothesis is omitted instead of ending the run."""
        labels = [f"x{i + 1}" for i in range(8)]
        edges = [[a, b] for i, a in enumerate(labels) for b in labels[i + 1:]]
        path = tmp_path / "k8.json"
        path.write_text(json.dumps({"vertices": labels, "edges": edges}))
        code, out, _ = run_cli(capsys, "invariants", str(path))
        assert code == 3
        report = json.loads(out)
        for key in ("matchings", "bouquets"):
            assert "exceed" in report[key]["omitted"], key
        classes = report["vertex_classification"]
        assert "exceed" in classes["hypotheses"]["c5_free"]["omitted"]
        assert [row["vertex"] for row in classes["vertices"]] == labels
        assert classes["equivalence_holds"] is True
        assert "omitted" in report["structure"]["c5_free"]
        assert "omitted" in report["theorems"]["theorem-main"]
        assert report["codismantlable"] == {"order": labels[:7]}
        assert report["homology"]["pd"] == 7
        assert report["covers"]["bigheight"] == 7

    def test_transversal_cap_partial_report_exit_three(self, capsys, tmp_path, monkeypatch):
        """18 disjoint edges have 2^18 minimal covers, past the transversal
        cap: every section that needs them is omitted, the rest is reported.
        The profile keeps the cap error, so the input is dualized once."""
        labels = [f"x{i + 1}" for i in range(36)]
        path = tmp_path / "disjoint.json"
        path.write_text(json.dumps({"vertices": labels, "edges": [
            labels[2 * k: 2 * k + 2] for k in range(18)]}))
        dualize, calls = hypergraph._minimal_transversals, []
        monkeypatch.setattr(hypergraph, "_minimal_transversals",
                            lambda edges: calls.append(edges) or dualize(edges))
        code, out, err = run_cli(capsys, "invariants", str(path), "--skip-homology")
        assert code == 3 and "Traceback" not in err
        assert len(calls) == 1
        report = json.loads(out)
        for key in ("complex", "covers", "vertex_classification"):
            assert "transversals exceed cap" in report[key]["omitted"], key
        assert report["matchings"]["c"] == 18
        assert report["codismantlable"]["order"] == labels[::2]
        assert "omitted" in report["theorems"]["corollary-codis"]

    def test_output_byte_stable(self, capsys, h1_file):
        _, out1, _ = run_cli(capsys, "invariants", h1_file)
        _, out2, _ = run_cli(capsys, "invariants", h1_file)
        assert out1 == out2


class TestCheck:
    def test_lemma_dim_h1(self, capsys, h1_file):
        code, out, err = run_cli(capsys, "check", h1_file, "--theorem", "lemma-dim")
        assert code == 0
        res = json.loads(out)
        assert res["hypotheses_hold"] and res["conclusion_holds"]
        assert "holds" in err

    def test_theorem_main_on_c5_graph(self, capsys, tmp_path):
        path = tmp_path / "c5.json"
        path.write_text(named_instance("c5").to_json())
        code, out, _ = run_cli(capsys, "check", str(path), "--theorem", "theorem-main")
        assert code == 0
        res = json.loads(out)
        assert not res["hypotheses_hold"]
        assert res["conclusion_holds"] is None

    def test_theorem_final_star(self, capsys, star_file):
        code, out, _ = run_cli(capsys, "check", star_file, "--theorem", "theorem-final")
        assert code == 0
        res = json.loads(out)
        assert res["details"]["bigheight"] == 3

    def test_unknown_theorem_exit_two(self, capsys, h1_file):
        code, _, _ = run_cli(capsys, "check", h1_file, "--theorem", "no-such")
        assert code == 2


class TestVerify:
    def test_small_family_passes(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "graph-cc",
            "--family",
            '{"kind": "all_graphs", "n": 4}',
            "--out-dir",
            str(tmp_path),
        )
        assert code == 0
        report = json.loads(out)
        assert report["instances_tested"] == 64
        assert report["counterexamples"] == []

    def test_unknown_suite_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "no-such-suite")
        assert code == 2

    def test_invalid_family_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "graph-cc", "--family", "{nope")
        assert code == 2

    def test_family_field_of_wrong_type_exit_two(self, capsys):
        family = '{"kind": "all_graphs", "n": "3"}'
        code, out, err = run_cli(capsys, "verify", "graph-cc", "--family", family)
        assert code == 2 and out == ""
        assert "family field 'n' must be a JSON int" in err

    def test_self_test_exit_one_and_rerunnable(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "graph-cc",
            "--family",
            '{"kind": "all_graphs", "n": 3}',
            "--self-test",
            "--out-dir",
            str(tmp_path),
        )
        assert code == 1
        report = json.loads(out)
        [ce] = report["counterexamples"]
        files = list(tmp_path.glob("counterexample-*.json"))
        assert len(files) == 1
        # the emitted file feeds straight back into `check`
        code2, out2, _ = run_cli(capsys, "check", str(files[0]), "--theorem", "graph-cc")
        assert code2 == 0  # the planted fault is not a real violation
        assert json.loads(out2)["hypotheses_hold"]

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        _, out, _ = run_cli(
            capsys,
            "verify",
            "graph-cc",
            "--family",
            '{"kind": "all_graphs", "n": 3}',
            "--out",
            str(out_path),
            "--out-dir",
            str(tmp_path),
        )
        assert out_path.read_text() == out

    def test_jobs_byte_identical(self, capsys, tmp_path):
        argv = [
            "verify",
            "lemma-dim",
            "--family",
            '{"kind": "all_graphs", "n": 4}',
            "--out-dir",
            str(tmp_path),
        ]
        _, out1, _ = run_cli(capsys, *argv, "--jobs", "1")
        _, out2, _ = run_cli(capsys, *argv, "--jobs", "2")
        assert out1 == out2

    def test_unwritable_out_exits_two(self, capsys, tmp_path):
        missing = tmp_path / "missing" / "r.json"
        code, _, err = run_cli(capsys, "verify", "lemma-dim", "--out", str(missing))
        assert code == 2
        assert f"error: cannot write {missing}" in err and "Traceback" not in err

    def test_unwritable_counterexample_file_exits_two(self, capsys, tmp_path):
        missing = tmp_path / "missing"
        code, out, err = run_cli(
            capsys,
            "verify",
            "graph-cc",
            "--family",
            '{"kind": "all_graphs", "n": 3}',
            "--self-test",
            "--out-dir",
            str(missing),
        )
        assert code == 2 and out == ""
        assert f"error: cannot write {missing}" in err and "Traceback" not in err

    CAPPED = ('{"kind": "random_hypergraph", "n": 13, "max_edge_size": 2, '
              '"edge_count": 12, "seed": 1, "count": 3}')

    def test_cap_inside_a_check_exits_three_with_omitted_instances(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "verify", "theorem-pd", "--family", self.CAPPED, "--out-dir", str(tmp_path)
        )
        assert code == 3 and "Traceback" not in err
        report = json.loads(out)
        assert report["exit_status"] == 3 and report["instances_tested"] == 0
        assert report["omitted"] == [
            {"family": 0, "index": i, "reason": "13 vertices exceed Betti cap 12"}
            for i in range(3)
        ]

    def test_counterexample_outranks_omitted_instances(self, capsys, tmp_path):
        families = f'[{self.CAPPED}, {{"kind": "all_graphs", "n": 3}}]'
        code, out, _ = run_cli(
            capsys, "verify", "theorem-pd", "--family", families, "--self-test",
            "--out-dir", str(tmp_path),
        )
        report = json.loads(out)
        assert code == 1 and report["exit_status"] == 1
        assert len(report["counterexamples"]) == 1 and len(report["omitted"]) == 3
        assert report["instances_tested"] == 8

    FILTER_CAPPED = ('{"kind": "random_hypergraph", "n": 8, "max_edge_size": 2, '
                     '"edge_count": 28, "seed": 1, "count": 2, "filters": ["c5_free"]}')

    def test_cap_inside_a_filter_exits_three_with_omitted_instances(self, capsys, tmp_path):
        """K8 has 28 edges, over the C5 search cap that its filter reads."""
        code, out, err = run_cli(
            capsys, "verify", "theorem-main", "--family", self.FILTER_CAPPED,
            "--out-dir", str(tmp_path),
        )
        assert code == 3 and "Traceback" not in err
        report = json.loads(out)
        assert report["exit_status"] == 3 and report["instances_tested"] == 0
        assert report["omitted"] == [
            {"family": 0, "index": i, "reason": "28 edges exceed cycle-search cap 20"}
            for i in range(2)
        ]

    def test_unknown_filter_exits_two_before_any_draw(self, capsys, monkeypatch, tmp_path):
        import hyperinv.generators as generators

        def no_draw(spec, index):
            raise AssertionError("drew an instance")

        monkeypatch.setattr(generators, "random_hypergraph", no_draw)
        family = self.FILTER_CAPPED.replace('"c5_free"', '"c5_fre"')
        code, out, err = run_cli(capsys, "verify", "theorem-main", "--family", family,
                                 "--out-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert "error: unknown filter 'c5_fre'" in err


class TestInternalError:
    def test_unexpected_exception_exits_four_with_traceback(
        self, capsys, monkeypatch, h1_file
    ):
        import hyperinv.cli as cli

        def boom(*args, **kwargs):
            raise RuntimeError("planted bug")

        monkeypatch.setattr(cli, "check_instance", boom)
        code, out, err = run_cli(capsys, "check", h1_file, "--theorem", "lemma-dim")
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert "Traceback" in err and "RuntimeError: planted bug" in err
