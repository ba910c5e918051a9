"""Suite registry behaviour, runner determinism, self-test fault."""

import json
from concurrent.futures import Future

import pytest

import hyperinv.suites as suites_module
from hyperinv import SUITES, check_instance, named_instance, run_suite
from hyperinv.errors import UnknownSuite
from hyperinv.generators import FamilySpec

EXPECTED_SUITES = {
    "theorem-main",
    "lemma-codominated",
    "graph-cc",
    "lemma-dim",
    "prop-mh",
    "prop-cd",
    "theorem-reg",
    "theorem-pd",
    "theorem-final",
    "corollary-codis",
    "lemmas-dprime",
    "recursion-pd",
    "recursion-reg",
}


def test_registry_complete():
    assert set(SUITES) == EXPECTED_SUITES


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        check_instance("nope", named_instance("p3"))


class TestSingleInstanceChecks:
    def test_lemma_dim_on_h1(self, h1):
        res = check_instance("lemma-dim", h1)
        assert res.hypotheses_hold and res.conclusion_holds
        assert res.details["c"] == 2
        assert res.details["c_prime"] == 3
        assert res.details["dim_plus_one"] == 4

    def test_theorem_main_skips_c5(self, c5):
        res = check_instance("theorem-main", c5)
        assert not res.hypotheses_hold
        assert res.conclusion_holds is None

    def test_theorem_final_star(self, star3):
        res = check_instance("theorem-final", star3)
        assert res.hypotheses_hold and res.conclusion_holds
        assert res.details["bigheight"] == res.details["pd"] == res.details["d_prime"] == 3

    def test_prop_mh_skips_nonuniform(self, h2):
        assert not check_instance("prop-mh", h2).hypotheses_hold

    def test_corollary_codis_h1(self, h1):
        res = check_instance("corollary-codis", h1)
        assert res.hypotheses_hold and res.conclusion_holds
        assert res.details["elimination_order"] == ["x2", "x4"]

    def test_every_suite_runs_on_worked_examples(self):
        for name in sorted(SUITES):
            for inst in ("h1", "p3", "star3", "c5"):
                res = check_instance(name, named_instance(inst))
                assert res.conclusion_holds is not False, (name, inst)


class TestRunner:
    FAM = [FamilySpec(kind="all_graphs", n=3)]

    def test_zero_counterexamples_exit_zero(self, tmp_path):
        rep = run_suite("graph-cc", self.FAM, out_dir=str(tmp_path))
        assert rep.exit_status == 0
        assert rep.instances_tested == 8
        assert rep.counterexamples == ()

    def test_reports_byte_identical_across_runs_and_jobs(self, tmp_path):
        fams = [FamilySpec(kind="all_graphs", n=4)]
        blobs = []
        for jobs in (1, 1, 2):
            rep = run_suite("lemma-dim", fams, jobs=jobs, out_dir=str(tmp_path))
            blobs.append(json.dumps(rep.to_json_obj(), sort_keys=True))
        assert blobs[0] == blobs[1] == blobs[2]

    def test_self_test_plants_exactly_one_fault(self, tmp_path):
        rep = run_suite("graph-cc", self.FAM, self_test=True, out_dir=str(tmp_path))
        assert rep.exit_status == 1
        assert len(rep.counterexamples) == 1
        ce = rep.counterexamples[0]
        assert ce["details"]["planted_fault"] is True
        [path] = rep.counterexample_files
        with open(path) as fh:
            obj = json.load(fh)
        assert set(obj) == {"vertices", "edges"}  # re-runnable instance file

    def test_self_test_deterministic_across_jobs(self, tmp_path):
        a = run_suite("graph-cc", self.FAM, self_test=True, jobs=1, out_dir=str(tmp_path))
        b = run_suite("graph-cc", self.FAM, self_test=True, jobs=3, out_dir=str(tmp_path))
        assert json.dumps(a.to_json_obj(), sort_keys=True) == json.dumps(
            b.to_json_obj(), sort_keys=True
        )

    @pytest.mark.parametrize("name,families", [
        ("theorem-reg", None),
        ("corollary-codis", None),
        ("theorem-pd", [FamilySpec(kind="all_graphs", n=5,
                                   filters=("c5_free", "vertex_decomposable"))]),
    ])
    def test_filtered_families_byte_identical_across_jobs(self, tmp_path, name, families):
        """Shards filter only their own draws; reports and the planted
        fault's index are the same at every worker count."""
        for self_test in (False, True):
            blobs = []
            for jobs in (1, 2, 3):
                rep = run_suite(name, families, jobs=jobs, self_test=self_test,
                                out_dir=str(tmp_path))
                assert rep.hypotheses_passed > 0
                assert len(rep.counterexamples) == self_test
                blobs.append(json.dumps(rep.to_json_obj(), sort_keys=True))
            assert blobs[0] == blobs[1] == blobs[2]

    def test_elapsed_not_serialized(self, tmp_path):
        rep = run_suite("graph-cc", self.FAM, out_dir=str(tmp_path))
        assert "elapsed" not in rep.to_json_obj()
        assert "omitted" not in rep.to_json_obj()  # written only when non-empty

    @pytest.mark.parametrize("cpus,jobs,workers", [(2, 64, 2), (None, 64, 1), (8, 3, 3)])
    def test_worker_pool_bounded_by_cpu_count(self, tmp_path, monkeypatch, cpus, jobs, workers):
        """``--jobs`` still sets the shard count; the pool never exceeds the
        CPUs.  The pool runs its tasks inline, so no process is started."""
        pools = []

        class InlinePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(suites_module, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(suites_module.os, "cpu_count", lambda: cpus)
        fams = [FamilySpec(kind="all_graphs", n=4)]
        serial = run_suite("lemma-dim", fams, out_dir=str(tmp_path))
        pooled = run_suite("lemma-dim", fams, jobs=jobs, out_dir=str(tmp_path))
        assert pools == [workers]
        assert pooled.to_json_obj() == serial.to_json_obj()

    def test_default_families_used_when_none_given(self, tmp_path):
        rep = run_suite("graph-cc", out_dir=str(tmp_path))
        assert rep.families == SUITES["graph-cc"].default_families
        assert rep.exit_status == 0
