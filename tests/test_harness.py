import errno
import hashlib
import itertools
import json
import math
import re
import shutil
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cflab import cli, evaluation, harness, memory
from cflab.bayesnet import BayesNetModel, LearnConfig, learn_network
from cflab.cluster import ClusterModel, em_fit
from cflab.evaluation import RankedScoringConfig, run_experiment
from cflab.memory import DefaultVoting, MemoryConfig
from cflab.predictors import BayesNetPredictor, ClusterPredictor
from cflab.votedata import (
    IMPLICIT_SCALE,
    Protocol,
    VoteDatabase,
    VoteScale,
    generate_active_cases,
    load_votes_csv,
)

from reference import version1_file

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"

# SHA-256 of every report file the two fixture configs write. A change that
# moves one of these changed what cflab computes, and must say why.
FIXTURE_REPORT_DIGESTS = {
    "out/reports/ranked_AllBut1.json":
        "f906055ba3273ec05ee2825fec4466a262b3164262e5ff58938846d3d0e6cb2c",
    "out/reports/ranked_Given2.json":
        "3f8f6b4d1e0daf74996221d83a3d8b7e6a19bee38e2df9a19aed2f37de84c693",
    "out/reports/summary_ranked.json":
        "a94748025bd9a2552ee5efcd73f5dcbd53264ed69083082fb00e5b4c1eedfd03",
    "out/reports/summary_ranked.txt":
        "a4d2a10595b8a5f314cdb7cdb7851265d4b8fedce941e376f5c4acf19d897144",
    "out_deviation/reports/deviation_AllBut1.json":
        "14e0c8577ca5a456f193d135027459b11d342b3e9c83fb44490488210413b2a0",
    "out_deviation/reports/summary_deviation.json":
        "2b1d67cacd6fb72df4eb1c2844f76dec61f77c5c420080d30be138f02b536baf",
    "out_deviation/reports/summary_deviation.txt":
        "de1c412f6533510010e78c1040abcccb89ebcd7182422e50f11c4e1a347dd3e0",
}

FIXTURE_ALGORITHMS = ("POP", "CR", "CR+", "VSIM", "BC", "BN")

# SHA-256 of the model files `harness.train_model` writes for the fixture
# votes, read as 0..5 votes and as visits (every vote a visit), at seed 11.
# Training changes must keep every model byte for byte, or say why not.
FIXTURE_MODEL_DIGESTS = {
    "explicit/BC": "48ddc110e4b0146c48fdea8586200e656d4a6c91aba31651340831449338b9a8",
    "explicit/BC3": "313fbe153b9f37748639fb004f093b44f5e3470e3e71cae25ea4e5e234f4915b",
    "explicit/BN": "065754243cb6dcf13e5a48c3ee6a392f08049b4eae1d1b60451cca1db18ecc2e",
    "implicit/BC": "a77b069c73153eb8011c6dfaf9af6dbcaebdad1d8b10ff369cc2c543dc8f8424",
    "implicit/BC3": "6e695d650b62a112f6ff9b6e35c9f01cd0b0ec9d87c0c42f90599579715e9139",
    "implicit/BN": "776e6cef48a0e392f8b6a00222a5bf788f76e13797ec1504a583a9d7599973ec",
}

# SHA-256 of the BN models above in the nested version-1 file form
# (`reference.version1_file`), the files that cflab wrote before its model
# files held node arrays
FIXTURE_BN_VERSION1_DIGESTS = {
    "explicit/BN": "214f197a02842ff2419c34e3108ae1d539c9f47733c806480236a3e86745c49c",
    "implicit/BN": "96fa6c60752db069edea502dd3388bd0f622b212458bbfa543c0a9d6d48d17ff",
}


@pytest.fixture
def workdir(tmp_path):
    for name in ("fixture_votes.csv", "fixture_config.json", "fixture_config_deviation.json"):
        shutil.copy(FIXDIR / name, tmp_path / name)
    return tmp_path


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def set_path(doc, path, value):
    """Set the value at a config key path such as "algorithms[2].config.iuf"."""
    *parents, last = [int(k) if k.isdigit() else k for k in re.findall(r"[^.[\]]+", path)]
    for key in parents:
        doc = doc[key]
    doc[last] = value


def _reordered_model(doc, kind, edit):
    """A model file's document with its first two items swapped ("order"),
    or with one item dropped ("subset"), every other number kept."""
    items = doc["items"]
    if edit == "order":
        cols = [1, 0] + list(range(2, len(items)))
    elif kind == "cluster":
        cols = list(range(len(items) - 1))
    else:
        # a network can drop an item no tree splits on, which a DAG has
        drop = min(set(range(len(items))) - set(doc["var"]))
        cols = [j for j in range(len(items)) if j != drop]
    if kind == "cluster":
        return dict(doc, items=[items[j] for j in cols],
                    cond=[[c[j] for j in cols] for c in doc["cond"]])
    # the kept trees' nodes, their roots first in their new order, renumbered
    tree = BayesNetModel.from_json(doc).tree
    kept = np.flatnonzero(np.isin(tree, cols))
    old = np.concatenate([cols, kept[kept >= len(items)]])
    new, pos = np.zeros(len(tree), dtype=int), np.full(len(items) + 1, -1)
    new[old], pos[cols] = np.arange(len(old)), np.arange(len(cols))
    arrays = {key: np.array(doc[key])[old] for key in BayesNetModel.ARRAYS}
    arrays["var"], arrays["first"] = pos[arrays["var"]], new[arrays["first"]]
    return dict(doc, items=[items[j] for j in cols],
                **{key: value.tolist() for key, value in arrays.items()})


class TestConfigValidation:
    def test_missing_file_names_key(self, workdir, capsys):
        doc = json.loads((workdir / "fixture_config.json").read_text())
        doc["dataset"]["train"] = "nope.csv"
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("run", bad) == 2
        assert "dataset.train" in capsys.readouterr().err

    def test_duplicate_algorithm_name(self, workdir, capsys):
        doc = json.loads((workdir / "fixture_config.json").read_text())
        doc["algorithms"].append(dict(doc["algorithms"][0]))
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("run", bad) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_popularity_with_deviation_rejected(self, workdir, capsys):
        doc = json.loads((workdir / "fixture_config.json").read_text())
        doc["metrics"] = ["deviation"]
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("run", bad) == 2

    def test_unknown_metric(self, workdir):
        doc = json.loads((workdir / "fixture_config.json").read_text())
        doc["metrics"] = ["precision"]
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("run", bad) == 2

    @pytest.mark.parametrize("where, misspell", [
        ("config: unknown key 'sed'", lambda doc: doc.update(sed=3)),
        ("dataset: unknown key 'min_vote'", lambda doc: doc["dataset"].update(min_vote=5)),
        ("dataset.scale: unknown key 'nuetral'",
         lambda doc: doc["dataset"]["scale"].update(nuetral=2.0)),
        ("ranked: unknown key 'half_live'", lambda doc: doc["ranked"].update(half_live=4.0)),
        ("algorithms[1]: unknown key 'confg'",
         lambda doc: doc["algorithms"][1].update(confg={})),
        ("algorithms[0].config: unknown key 'k'",
         lambda doc: doc["algorithms"][0].update(config={"k": 1})),
        ("algorithms[2].config: unknown key 'case_amplification'",
         lambda doc: doc["algorithms"][2]["config"].update(case_amplification={"p": 2.5})),
        ("algorithms[2].config.default_voting: unknown key 'kk'",
         lambda doc: doc["algorithms"][2]["config"]["default_voting"].update(kk=5)),
        ("algorithms[4].config: unknown key 'clases'",
         lambda doc: doc["algorithms"][4]["config"].update(clases=3)),
        ("algorithms[5].config: unknown key 'max_parent'",
         lambda doc: doc["algorithms"][5]["config"].update(max_parent=1)),
        ("dataset: unknown key 'top_items'", lambda doc: doc["dataset"].update(top_items=3)),
        ("algorithms[5].config: unknown key 'max_parents'",
         lambda doc: doc["algorithms"][5]["config"].update(max_parents=1)),
    ], ids=["top", "dataset", "scale", "ranked", "algorithm", "popularity", "memory",
            "default_voting", "cluster", "bayesnet", "top_items", "max_parents"])
    def test_unknown_key_is_named(self, workdir, capsys, where, misspell):
        # a misspelt key would otherwise leave its setting at the default
        doc = json.loads((workdir / "fixture_config.json").read_text())
        misspell(doc)
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("run", bad) == 2
        err = capsys.readouterr().err
        assert where in err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("alg, key, value", [
        (4, "classes", 0), (4, "classes", "two"), (4, "classes", 1.5), (4, "classes", True),
        (4, "max_classes", 0), (4, "restarts", -1), (4, "max_iter", 0),
        (4, "prior_strength", 0), (4, "prior_strength", "1"), (4, "prior_strength", float("inf")),
        (5, "structure_penalty", 1.5), (5, "structure_penalty", 0), (5, "structure_penalty", 1),
        (5, "ess", 0), (5, "ess", -2.0), (5, "ess", None),
    ])
    def test_bad_model_value_is_named_before_loading(self, workdir, capsys, monkeypatch,
                                                     alg, key, value):
        doc = json.loads((workdir / "fixture_config.json").read_text())
        doc["algorithms"][alg]["config"] = {key: value}
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(doc))
        monkeypatch.setattr(harness, "load_datasets", None)  # fails if data loads
        assert run_cli("run", bad) == 2
        assert f"algorithms[{alg}].config.{key}: must be" in capsys.readouterr().err
        assert run_cli("train", bad) == 2

    @pytest.mark.parametrize("where, value", [
        ("dataset.min_votes", "two"), ("dataset.min_votes", 0), ("dataset.min_votes", 2.0),
        ("dataset.train_users", "x"), ("dataset.train_users", 0), ("dataset.train_users", True),
        ("dataset.test_fraction", 1.5), ("dataset.test_fraction", 0), ("dataset.test_fraction", "0.4"),
        ("dataset.split_seed", 1.5), ("dataset.split_seed", -1), ("dataset.split_seed", False),
        ("confidence", "high"), ("confidence", 1.5), ("confidence", True), ("confidence", None),
        ("seed", "s"), ("seed", 2.0), ("seed", -3),
        # memory, scale and ranked values: each was once cast, not checked
        ("algorithms[2].config.iuf", "false"), ("algorithms[3].config.iuf", 1),
        ("algorithms[2].config.default_voting.k", 2.7),
        ("algorithms[2].config.default_voting.k", -1),
        ("algorithms[2].config.default_voting.d", float("nan")),
        ("algorithms[2].config.default_voting.d", "0"),
        ("algorithms[2].config.case_amp.p", float("nan")),
        ("algorithms[2].config.case_amp.p", "2"), ("algorithms[2].config.case_amp.p", 0),
        ("algorithms[2].config.weight", "cosine"),
        ("dataset.scale.max_vote", 5.7), ("dataset.scale.min_vote", "0"),
        ("dataset.scale.neutral", float("nan")), ("dataset.scale.implicit", "false"),
        ("ranked.half_life", float("nan")), ("ranked.half_life", "5"), ("ranked.half_life", 1),
        ("ranked.neutral", float("inf")),
        ("dataset.format", "xml"),
        # malformed shapes
        ("protocols", 5), ("protocols", "allbut1"), ("protocols", []),
        ("algorithms", {}), ("algorithms[0].name", ["x"]), ("algorithms[0].name", 3),
        ("algorithms[0].kind", ["memory"]), ("algorithms[1].config", [1]),
        ("output_dir", 5), ("dataset.train", 5), ("dataset.test", 5), ("dataset", "votes.csv"),
        ("ranked", [5.0]), ("metrics[0]", "precision"), ("protocols[1]", 2),
    ])
    def test_bad_dataset_or_top_value_is_named_before_loading(self, workdir, capsys, monkeypatch,
                                                              where, value):
        doc = json.loads((workdir / "fixture_config.json").read_text())
        set_path(doc, where, value)
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(doc))
        monkeypatch.setattr(harness, "load_datasets", None)  # fails if data loads
        assert run_cli("run", bad) == 2
        assert f"{where}: must be" in capsys.readouterr().err
        assert not (workdir / "out").exists()
        assert run_cli("train", bad) == 2

    @pytest.mark.parametrize("key, value, where", [
        ("protocols", ["allbut1", "AllBut1"], "protocols[1]: duplicate protocol AllBut1"),
        ("protocols", ["Given2", "AllBut1", {"given": 2}],
         "protocols[2]: duplicate protocol Given2"),
        ("metrics", [], "metrics: must be a non-empty list"),
        ("metrics", "ranked", "metrics: must be a non-empty list"),
        ("metrics", ["ranked", "ranked"], "metrics: duplicate metric 'ranked'"),
        # a {"given": n} protocol takes the integer rule
        ("protocols", ["allbut1", {"given": 2.7}], "protocols[1].given: must be an integer"),
        ("protocols", ["allbut1", {"given": True}], "protocols[1].given: must be an integer"),
        ("protocols", ["allbut1", {"given": 0}], "protocols[1].given: must be an integer"),
        ("protocols", ["allbut1", {"given": 2, "n": 4}], "protocols[1]: unknown key 'n'"),
        ("protocols", ["allbut1", {}], "protocols[1].given: missing required key"),
        ("protocols", ["allbut1", "given0"], "protocols[1]: cannot parse protocol 'given0'"),
        ("algorithms[1].kind", "knn", "algorithms[1].kind: must be one of"),
        ("algorithms[2].config.case_amp", {}, "algorithms[2].config.case_amp.p: missing"),
        # keys that nothing reads for this dataset
        ("dataset.format", "msweb", "dataset.scale: csv datasets need one; msweb data"),
        ("dataset.test", "fixture_votes.csv", "dataset.test_fraction: a dataset takes"),
        ("dataset.test_fraction", None, "dataset.test_fraction: a dataset takes"),
        ("dataset.scale", None, "dataset.scale: csv datasets need one"),
        ("dataset.scale.min_vote", 6, "dataset.scale: min_vote must not exceed max_vote"),
        # a neutral vote off the scale would exclude every case from ranked scoring
        ("ranked.neutral", 99, "ranked.neutral: must lie within the vote scale [0, 5], not 99"),
        ("ranked.neutral", -0.5, "ranked.neutral: must lie within the vote scale [0, 5]"),
    ])
    def test_bad_protocols_or_metrics_are_named_before_loading(self, workdir, capsys, monkeypatch,
                                                               key, value, where):
        doc = json.loads((workdir / "fixture_config.json").read_text())
        set_path(doc, key, value)
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(doc))
        monkeypatch.setattr(harness, "load_datasets", None)  # fails if data loads
        assert run_cli("run", bad) == 2
        assert where in capsys.readouterr().err
        assert not (workdir / "out").exists()
        assert run_cli("train", bad) == 2

    @pytest.mark.parametrize("sweep", [{"max_classes": 4}, {"restarts": 2}])
    def test_fixed_classes_take_no_sweep_keys(self, workdir, capsys, sweep):
        # the fixed count would otherwise silently win
        doc = json.loads((workdir / "fixture_config.json").read_text())
        doc["algorithms"][4]["config"].update(sweep)
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("run", bad) == 2
        assert "algorithms[4].config: a fixed classes count" in capsys.readouterr().err

    def test_vsim_default_voting_on_explicit_scale_is_named_before_loading(
            self, workdir, capsys, monkeypatch):
        # under vector similarity default voting completes implicit votes only
        doc = json.loads((workdir / "fixture_config_deviation.json").read_text())
        doc["algorithms"].append({"name": "VSIM", "kind": "memory", "config": {
            "weight": "vector_similarity", "default_voting": {}}})
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(doc))
        monkeypatch.setattr(harness, "load_datasets", None)  # fails if data loads
        assert run_cli("run", bad) == 2
        assert "algorithms[3].config: default voting with vector similarity" in \
            capsys.readouterr().err
        assert run_cli("train", bad) == 2

    def test_memory_json_form_parses(self):
        def parse(doc):
            return harness.algorithm_config(harness.AlgorithmSpec("M", "memory", doc))

        doc = {"weight": "correlation", "iuf": True, "default_voting": {"d": 0.0, "k": 10000},
               "case_amp": {"p": 2.5}}
        want = MemoryConfig("correlation", DefaultVoting(d=0.0, k=10000), True, 2.5)
        assert parse(doc) == want
        assert parse({}) == MemoryConfig()
        assert parse({"weight": "vector_similarity", "default_voting": {}}) == \
            MemoryConfig("vector_similarity", DefaultVoting())
        # the repo's configs: a null d is left to the scale, and an integer d
        # is the float default vote
        fixture = harness.load_config(FIXDIR / "fixture_config.json")
        assert harness.algorithm_config(fixture.algorithms[2]) == \
            MemoryConfig("correlation", DefaultVoting(d=None, k=10000), True, 2.5)
        msweb = json.loads((FIXDIR.parent / "configs" / "msweb.json").read_text())
        crplus, vsim = (harness.AlgorithmSpec(a["name"], a["kind"], a["config"])
                        for a in msweb["algorithms"][1:3])
        assert (crplus.name, vsim.name) == ("CR+", "VSIM")
        for spec, want in ((crplus, MemoryConfig("correlation", DefaultVoting(0.0, 10000),
                                                 True, 2.5)),
                           (vsim, MemoryConfig("vector_similarity", DefaultVoting(0.0, 0), True))):
            got = harness.algorithm_config(spec)
            assert got == want
            assert type(got.default_voting.d) is float and type(got.default_voting.k) is int

    def test_benchmark_configs_load(self, tmp_path, monkeypatch):
        # every valid config in the repo parses to these pinned values, so a
        # stricter rule cannot change what a benchmark or fixture run computes
        monkeypatch.syspath_prepend(str(FIXDIR.parent))
        from cfbench.workloads import EM_MAX_ITER, WORKLOADS

        csv, a1, given = VoteScale(0, 5, 3.0, False), Protocol.all_but_1(), Protocol.given
        cr_plus = MemoryConfig("correlation", DefaultVoting(None, 10000), True, 2.5)
        bn = ("BN", "bayesnet", {"structure_penalty": 0.1, "ess": 10.0})

        def bc(classes=None, max_classes=25, restarts=3, max_iter=200):
            return ("BC", "cluster", {"classes": classes, "max_classes": max_classes,
                                      "restarts": restarts, "prior_strength": 1.0,
                                      "max_iter": max_iter})

        def msweb(train, test, protocols, max_iter):
            return harness.ExperimentConfig(
                harness.DatasetSpec("msweb", train, test, IMPLICIT_SCALE, None, 0, 2),
                protocols, [
                    ("POP", "popularity", {}),
                    ("CR+", "memory", MemoryConfig("correlation", DefaultVoting(0.0, 10000),
                                                   True, 2.5)),
                    ("VSIM", "memory", MemoryConfig("vector_similarity",
                                                    DefaultVoting(0.0, 0), True)),
                    bc(max_classes=12, restarts=2, max_iter=max_iter), bn,
                ], ["ranked"], RankedScoringConfig(5.0, 0.0), 0.9, 1998, None)

        fixture_dataset = harness.DatasetSpec("csv", "fixture_votes.csv", None, csv, 0.4, 7, 2)
        all_given = [a1, given(2), given(5), given(10)]
        want = {
            "fixture_config.json": harness.ExperimentConfig(
                fixture_dataset, [a1, given(2)], [
                    ("POP", "popularity", {}), ("CR", "memory", MemoryConfig("correlation")),
                    ("CR+", "memory", cr_plus),
                    ("VSIM", "memory", MemoryConfig("vector_similarity", None, True)),
                    bc(classes=2), bn,
                ], ["ranked"], RankedScoringConfig(5.0, 0.0), 0.9, 11, None),
            "fixture_config_deviation.json": harness.ExperimentConfig(
                fixture_dataset, [a1], [
                    ("CR", "memory", MemoryConfig("correlation", None, True)), bc(classes=2), bn,
                ], ["deviation"], RankedScoringConfig(5.0, 3.0), 0.9, 11, None),
            "msweb.json": msweb("anonymous-msweb.data", "anonymous-msweb.test", all_given, 200),
            "msweb-cold": msweb("train.data", "test.data", [a1], EM_MAX_ITER),
            "msweb-warm": msweb("train.data", "test.data", all_given, EM_MAX_ITER),
            "explicit-dev": harness.ExperimentConfig(
                harness.DatasetSpec("csv", "train.csv", "test.csv", csv, None, 0, 2),
                [a1, given(2)], [
                    ("CR", "memory", MemoryConfig("correlation")), ("CR+", "memory", cr_plus),
                    ("VSIM", "memory", MemoryConfig("vector_similarity", None, True)),
                    bc(max_classes=10, restarts=2, max_iter=EM_MAX_ITER), bn,
                ], ["ranked", "deviation"], RankedScoringConfig(5.0, 3.0), 0.9, 1998, None),
        }
        docs = {name: workload.config_doc() for name, workload in WORKLOADS.items()}
        for path in (FIXDIR / "fixture_config.json", FIXDIR / "fixture_config_deviation.json",
                     FIXDIR.parent / "configs" / "msweb.json"):
            docs[path.name] = json.loads(path.read_text())
        assert set(docs) == set(want)
        for name, doc in docs.items():
            dataset = doc["dataset"]
            for key in ("train", "test"):
                if key in dataset:
                    dataset[key] = Path(dataset[key]).name
                    (tmp_path / dataset[key]).touch()
            config = harness.parse_config(doc, tmp_path)
            # params stay the raw JSON, which model cache keys hash
            assert [a.params for a in config.algorithms] == \
                [a.get("config", {}) for a in doc["algorithms"]]
            got = replace(
                config,
                dataset=replace(config.dataset, train=config.dataset.train.name,
                                test=config.dataset.test and config.dataset.test.name),
                algorithms=[(a.name, a.kind, harness.algorithm_config(a))
                            for a in config.algorithms],
                output_dir=None,
            )
            assert repr(got) == repr(want[name]), name  # repr tells 0 from 0.0

    def test_invalid_json_config(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text("{not json")
        assert run_cli("run", bad) == 2

    def test_malformed_data_file_exits_three(self, workdir, capsys):
        (workdir / "fixture_votes.csv").write_text("u1,i1,99\n")
        assert run_cli("run", workdir / "fixture_config.json") == 3
        assert "data error" in capsys.readouterr().err


class TestRun:
    def test_fixture_smoke_emits_reports(self, workdir):
        assert run_cli("run", workdir / "fixture_config.json") == 0
        reports = sorted((workdir / "out" / "reports").glob("ranked_*.json"))
        assert [p.name for p in reports] == ["ranked_AllBut1.json", "ranked_Given2.json"]
        assert (workdir / "out" / "reports" / "summary_ranked.json").exists()
        assert (workdir / "out" / "splits" / "AllBut1.json").exists()
        assert (workdir / "out" / "run_meta.json").exists()

    def test_traced_run_keeps_its_reports(self, workdir, monkeypatch):
        # the benchmark's traced mode swaps cflab callables by name: one that
        # is renamed or deleted breaks it
        monkeypatch.syspath_prepend(str(FIXDIR.parent))
        from cfbench.tracing import Tracer, installed

        config = workdir / "fixture_config.json"
        assert run_cli("run", config) == 0
        reports = workdir / "out" / "reports"
        want = {p.name: p.read_bytes() for p in reports.iterdir()}
        shutil.rmtree(workdir / "out")
        with installed(Tracer()) as tracer:
            assert run_cli("train", config) == 0
            assert run_cli("run", config) == 0
        assert {p.name: p.read_bytes() for p in reports.iterdir()} == want
        names = {s.name for s in tracer.spans}
        assert {"harness.load_datasets", "harness.train_model", "harness.build_predictor",
                "bayesnet.learn_network", "cluster.em_fit", "memory.MemoryScorer",
                "votedata.generate_active_cases", "votedata.save_split_manifest",
                "evaluation.run_experiment", "evaluation.max_ranked_utility",
                "evaluation.bonferroni_required_difference"} <= names, sorted(names)

    def test_fixture_reports_keep_their_digests(self, workdir, monkeypatch):
        # the runner's blocks and the memory scorer's, each at a case per
        # block, at the default blocks, and with every case of a protocol in
        # one block
        budgets = (1, evaluation.BLOCK_CELLS, 2**40), (1, memory.BLOCK_WEIGHTS, 2**40)
        for cells, weights in itertools.product(*budgets):
            monkeypatch.setattr(evaluation, "BLOCK_CELLS", cells)
            monkeypatch.setattr(memory, "BLOCK_WEIGHTS", weights)
            for out in workdir.glob("out*"):
                shutil.rmtree(out)
            assert run_cli("run", workdir / "fixture_config.json") == 0
            assert run_cli("run", workdir / "fixture_config_deviation.json") == 0
            digests = {
                p.relative_to(workdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(workdir.glob("out*/reports/*"))
            }
            assert digests == FIXTURE_REPORT_DIGESTS, (cells, weights)
            meta = json.loads((workdir / "out" / "run_meta.json").read_text())
            block = max(1, cells // meta["train_items"])
            assert meta["block_cases"] == block
            assert meta["memory_block_cases"] == max(1, weights // meta["train_users"])
            for key, per_algorithm in meta["blocks"].items():
                cases = meta["cases"][key]
                assert set(per_algorithm) == set(FIXTURE_ALGORITHMS)
                for name, blocks in per_algorithm.items():
                    # the config scores one metric: its blocks walk its kept
                    # and failed cases, whatever the memory scorer's blocks
                    want = math.ceil((cases["kept"] + cases["failed"]) / block)
                    assert blocks["count"] == want, (key, name)
                    assert 0 < blocks["median_ms"] <= 1e3 * meta["timing"][key][name]

    def test_rerun_is_byte_identical(self, workdir):
        cfg = workdir / "fixture_config.json"
        assert run_cli("run", cfg) == 0
        first = {
            p.name: p.read_bytes()
            for p in (workdir / "out" / "reports").glob("*.json")
        }
        assert run_cli("run", cfg) == 0
        second = {
            p.name: p.read_bytes()
            for p in (workdir / "out" / "reports").glob("*.json")
        }
        assert first == second

    def test_deviation_config_runs(self, workdir):
        assert run_cli("run", workdir / "fixture_config_deviation.json") == 0
        doc = json.loads(
            (workdir / "out_deviation" / "reports" / "deviation_AllBut1.json").read_text()
        )
        assert doc["metric"] == "deviation"
        assert set(doc["aggregate"]) == {"CR", "BC", "BN"}

    def test_one_experiment_per_protocol_and_counts_reported(self, workdir, monkeypatch, capsys):
        doc = json.loads((workdir / "fixture_config.json").read_text())
        doc["algorithms"] = [a for a in doc["algorithms"] if a["kind"] != "popularity"]
        doc["metrics"] = ["ranked", "deviation"]
        cfg = workdir / "both.json"
        cfg.write_text(json.dumps(doc))
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[3])
            return run_experiment(*args, **kwargs)

        monkeypatch.setattr(harness, "run_experiment", counting)
        assert run_cli("run", cfg) == 0
        assert calls == [["ranked", "deviation"]] * 2
        out = capsys.readouterr().out
        meta = json.loads((workdir / "out" / "run_meta.json").read_text())
        assert set(meta["cases"]) == {f"{m}/{p}" for m in ("ranked", "deviation")
                                      for p in ("AllBut1", "Given2")}
        for key, counts in meta["cases"].items():
            metric, label = key.split("/")
            report = json.loads(
                (workdir / "out" / "reports" / f"{metric}_{label}.json").read_text())
            assert counts == {"kept": report["case_count"],
                              "zero_max_utility": len(report["excluded"]["zero_max_utility"]),
                              "failed": len(report["excluded"]["failed"])}
            assert (f"{metric} {label}: {counts['kept']} cases kept, "
                    f"{counts['zero_max_utility']} excluded for zero maximum utility, "
                    f"{counts['failed']} excluded as failed") in out.splitlines()
        assert meta["cases"]["ranked/AllBut1"]["zero_max_utility"] > 0
        assert meta["cases"]["deviation/AllBut1"]["zero_max_utility"] == 0

    def test_run_meta_records_stages_and_peak_rss(self, workdir):
        assert run_cli("run", workdir / "fixture_config.json") == 0
        meta = json.loads((workdir / "out" / "run_meta.json").read_text())
        stages = meta["stages"]
        assert set(stages) == {"load_datasets", "build_predictors", "protocols", "summaries"}
        assert set(stages["build_predictors"]) == set(FIXTURE_ALGORITHMS)
        assert set(stages["protocols"]) == {"AllBut1", "Given2"}
        for times in stages["protocols"].values():
            assert set(times) == {"cases", "manifest", "experiment", "reports"}
        seconds = [stages["load_datasets"], stages["summaries"],
                   *stages["build_predictors"].values(),
                   *(t for times in stages["protocols"].values() for t in times.values())]
        assert all(t > 0 for t in seconds)
        assert sum(seconds) <= meta["wall_seconds"]
        # the fixture run's own arrays alone take more than a MiB; a whole
        # Python process with numpy stays under a few GiB
        assert 1 < meta["peak_rss_mb"] < 4096

    @pytest.mark.parametrize("platform, maxrss", [("linux", 3 * 2**10), ("darwin", 3 * 2**20)])
    def test_peak_rss_units(self, monkeypatch, platform, maxrss):
        # ru_maxrss counts KiB on Linux and bytes on macOS
        fake = SimpleNamespace(RUSAGE_SELF=0,
                               getrusage=lambda _: SimpleNamespace(ru_maxrss=maxrss))
        monkeypatch.setattr(harness, "resource", fake)
        monkeypatch.setattr(harness.sys, "platform", platform)
        assert harness.peak_rss_mb() == 3.0

    def test_peak_rss_is_null_without_resource(self, workdir, monkeypatch):
        monkeypatch.setattr(harness, "resource", None)
        assert run_cli("run", workdir / "fixture_config.json") == 0
        meta = json.loads((workdir / "out" / "run_meta.json").read_text())
        assert meta["peak_rss_mb"] is None

    def test_train_users_subsample(self, workdir):
        doc = json.loads((workdir / "fixture_config.json").read_text())
        doc["dataset"]["train_users"] = 5
        cfg_path = workdir / "small.json"
        cfg_path.write_text(json.dumps(doc))
        config = harness.load_config(cfg_path)
        train, _ = harness.load_datasets(config.dataset)
        assert len(train.users) == 5
        # same seed, same subsample
        train2, _ = harness.load_datasets(config.dataset)
        assert train.users == train2.users

    def test_cached_model_predictions_match_fresh(self, workdir):
        config = harness.load_config(workdir / "fixture_config.json")
        train, test = harness.load_datasets(config.dataset)
        spec = next(s for s in config.algorithms if s.kind == "cluster")
        cache = workdir / "cache"
        fresh, path = harness.train_model(train, spec, config.seed, cache)
        cached, path2 = harness.train_model(train, spec, config.seed, cache)
        assert path == path2
        np.testing.assert_array_equal(fresh.class_prior, cached.class_prior)
        np.testing.assert_array_equal(fresh.cond, cached.cond)

    def test_unreadable_cached_model_is_retrained(self, workdir, caplog):
        cfg = workdir / "fixture_config.json"
        out = workdir / "out"
        assert run_cli("run", cfg) == 0
        clean = {p.name: p.read_bytes() for p in (out / "reports").iterdir()}
        models = {p: p.read_bytes() for p in (out / "models").iterdir()}
        assert len(models) == 2
        garbage = [
            lambda text: text[: len(text) // 2],  # truncated mid-write
            lambda text: b"\x00\xff not a model",  # not even UTF-8
            lambda text: b'{"items": 3}',  # JSON, but not a model
        ]
        for corrupt in (garbage[:2], garbage[2:] * 2):
            for (path, text), bad in zip(models.items(), corrupt):
                path.write_bytes(bad(text))
            shutil.rmtree(out / "reports")
            caplog.clear()
            assert run_cli("run", cfg) == 0
            assert {p.name: p.read_bytes() for p in (out / "reports").iterdir()} == clean
            assert {p: p.read_bytes() for p in models} == models  # replaced
            assert sum("retraining" in r.getMessage() for r in caplog.records) == 2

    @pytest.mark.parametrize("kind", ["cluster", "bayesnet"])
    @pytest.mark.parametrize("edit", ["scale", "items", "shape", "order", "subset"])
    def test_mismatched_cached_model_is_retrained(self, workdir, caplog, kind, edit):
        config = harness.load_config(workdir / "fixture_config.json")
        train, _ = harness.load_datasets(config.dataset)
        spec = next(s for s in config.algorithms if s.kind == kind)
        cache = workdir / "cache"
        _, path = harness.train_model(train, spec, config.seed, cache)
        good = path.read_bytes()
        caplog.clear()
        harness.train_model(train, spec, config.seed, cache)
        assert not any("retraining" in r.getMessage() for r in caplog.records)
        doc = json.loads(good)
        if edit == "scale":
            doc["scale"]["neutral"] = 2.0  # still a loadable model
        elif edit == "items":
            doc["items"][0] = "not-a-training-item"
        elif edit in ("order", "subset"):
            # a loadable model over the training items in another order, or
            # over all but one of them
            doc = _reordered_model(doc, kind, edit)
            model_class = ClusterModel if kind == "cluster" else BayesNetModel
            assert set(model_class.from_json(doc).items) <= set(train.items)
        elif kind == "cluster":
            doc["cond"] = [[row[:-1] for row in c] for c in doc["cond"]]  # a state short
        else:
            # root 0 splits on item 1 into one node: routing would read past
            # the arrays
            doc["var"][0], doc["first"][0] = 1, len(doc["var"]) - 1
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        model, again = harness.train_model(train, spec, config.seed, cache)
        assert again == path and path.read_bytes() == good  # retrained and replaced
        assert model.scale == train.scale and model.items == train.items
        assert sum("retraining" in r.getMessage() for r in caplog.records) == 1

    @pytest.mark.parametrize("counts, alpha", [
        ([-5.0, 1.0], [-1.0, 2.0]),  # would load and score -1.0
        ([0.0, 0.0], [0.0, 0.0]),  # would load and score NaN
    ])
    def test_invalid_bayesnet_leaf_is_retrained(self, workdir, caplog, counts, alpha):
        config = harness.load_config(workdir / "fixture_config.json")
        train, _ = harness.load_datasets(config.dataset)
        spec = next(s for s in config.algorithms if s.kind == "bayesnet")
        cache = workdir / "cache"
        _, path = harness.train_model(train, spec, config.seed, cache)
        good = path.read_bytes()
        doc = json.loads(good)
        leaf = doc["var"].index(-1)
        pad = [1.0] * (len(doc["counts"][leaf]) - 2)  # the other states keep valid values
        doc["counts"][leaf], doc["alpha"][leaf] = counts + pad, alpha + pad
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        caplog.clear()
        model, again = harness.train_model(train, spec, config.seed, cache)
        assert again == path and path.read_bytes() == good  # retrained and replaced
        assert np.isfinite(model.score[model.var < 0]).all()
        assert sum("retraining" in r.getMessage() for r in caplog.records) == 1

    @pytest.mark.parametrize("edit, reason", [
        ("first shorter than var", "a model needs"), ("counts short", "a model needs"),
        ("alpha short", "a model needs"), ("order short", "a model needs"),
        ("a state short", "a model needs"), ("var below -1", "a node must be"),
        ("var past the items", "a node must be"), ("leaf first elsewhere", "a node must be"),
        ("split first not after it", "a node must be"),
        ("first far past the arrays", "a node must be"),
        ("child of two splits", "a node must be"), ("child of no split", "a node must be"),
        ("root a child", "a node must be"), ("version 1", "of version 1, not 2"),
        ("first a float", "must be integers"), ("order a half", "must be integers"),
    ])
    def test_malformed_bayesnet_file_is_retrained(self, workdir, caplog, edit, reason):
        # each is a ValueError naming its reason, never an IndexError that
        # train_model lets through
        config = harness.load_config(workdir / "fixture_config.json")
        train, _ = harness.load_datasets(config.dataset)
        spec = harness.AlgorithmSpec("BN", "bayesnet", {"structure_penalty": 0.99})  # splits
        cache = workdir / "cache"
        model, path = harness.train_model(train, spec, config.seed, cache)
        good = path.read_bytes()
        doc = json.loads(good)
        var, first, t, r = doc["var"], doc["first"], len(train.items), train.scale.num_states
        leaf, (s1, s2) = var.index(-1), np.flatnonzero(model.var >= 0)[:2].tolist()
        assert s2 < first[s1] and leaf < t  # splits and leaf are roots
        if edit == "first shorter than var":
            first.pop()
        elif edit == "a state short":
            doc["counts"] = [row[:-1] for row in doc["counts"]]
        elif edit.endswith(" short"):
            doc[edit.split()[0]].pop()
        elif edit == "var below -1":
            var[leaf] = -2
        elif edit == "var past the items":
            var[s1] = t
        elif edit == "leaf first elsewhere":
            first[leaf] = leaf + 1
        elif edit == "split first not after it":
            # a split below a root swaps children with its parent: every node
            # still has one parent, but the split is its own child
            q = next(n for n in range(t, len(var)) if var[n] >= 0)
            p = next(n for n in range(q) if var[n] >= 0 and first[n] <= q < first[n] + r)
            first[p], first[q] = first[q], first[p]
        elif edit == "first far past the arrays":
            first[s1] = 2**40  # rejected before any count of children is allocated
        elif edit == "child of two splits":
            first[s2] = first[s1]
        elif edit == "child of no split":
            for key in BayesNetModel.ARRAYS:
                doc[key].append(doc[key][leaf])
            first[-1] = len(first) - 1
        elif edit == "root a child":
            first[s1] = s1 + 1
        elif edit == "first a float":
            first[s1] = float(first[s1])
        elif edit == "order a half":
            doc["order"][leaf] += 0.5  # numpy would truncate it back
        else:
            doc = version1_file(model)
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        caplog.clear()
        model, again = harness.train_model(train, spec, config.seed, cache)
        assert again == path and path.read_bytes() == good  # retrained and replaced
        [warning] = [r.getMessage() for r in caplog.records if "retraining" in r.getMessage()]
        assert "(ValueError(" in warning and reason in warning

    @pytest.mark.parametrize("where", ["class_prior", "cond"])
    def test_nan_cluster_model_is_retrained(self, workdir, caplog, where):
        # NaN passes the sum checks; the positivity check must catch it
        config = harness.load_config(workdir / "fixture_config.json")
        train, _ = harness.load_datasets(config.dataset)
        spec = next(s for s in config.algorithms if s.kind == "cluster")
        cache = workdir / "cache"
        _, path = harness.train_model(train, spec, config.seed, cache)
        good = path.read_bytes()
        doc = json.loads(good)
        if where == "class_prior":
            doc["class_prior"][-1] = math.nan
        else:
            doc["cond"][0][0][-1] = math.nan
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")  # loads as NaN
        caplog.clear()
        model, again = harness.train_model(train, spec, config.seed, cache)
        assert again == path and path.read_bytes() == good  # retrained and replaced
        assert np.isfinite(model.class_prior).all() and np.isfinite(model.cond).all()
        assert sum("retraining" in r.getMessage() for r in caplog.records) == 1

    def test_cache_key_names_the_model_format(self, workdir, monkeypatch):
        config = harness.load_config(workdir / "fixture_config.json")
        train, _ = harness.load_datasets(config.dataset)
        spec = next(s for s in config.algorithms if s.kind == "cluster")
        key = harness._model_cache_key(train, spec, config.seed)
        monkeypatch.setattr(harness, "MODEL_FORMAT_VERSION", harness.MODEL_FORMAT_VERSION + 1)
        assert harness._model_cache_key(train, spec, config.seed) != key

    def test_training_set_is_hashed_once(self, workdir, monkeypatch):
        db = load_votes_csv(workdir / "fixture_votes.csv", VoteScale(0, 5, 3.0, False))
        assert db.content_hash == (
            "0635402bfb2ccd1e22e9c2fea325a410c050e59d7ab5fad0730ea487da2a6141"
        )
        # the hash walks every vote; BC's and BN's cache keys share one walk
        walks = []
        iter_votes = VoteDatabase.iter_votes

        def counting(self):
            walks.append(self)
            return iter_votes(self)

        monkeypatch.setattr(VoteDatabase, "iter_votes", counting)
        assert run_cli("run", workdir / "fixture_config.json") == 0
        assert len(walks) == 1

    def test_failed_cache_write_leaves_no_model(self, workdir, monkeypatch):
        config = harness.load_config(workdir / "fixture_config.json")
        train, _ = harness.load_datasets(config.dataset)
        spec = next(s for s in config.algorithms if s.kind == "bayesnet")
        cache = workdir / "cache"

        class DiskFull:
            """Keeps half of the first write, then fails as a full disk does."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        real_open = open

        def failing_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return DiskFull(fh) if "w" in mode else fh

        monkeypatch.setattr(harness, "open", failing_open, raising=False)
        with pytest.raises(OSError):
            harness.train_model(train, spec, config.seed, cache)
        assert list(cache.iterdir()) == []
        monkeypatch.undo()
        model, path = harness.train_model(train, spec, config.seed, cache)
        assert [p.name for p in cache.iterdir()] == [path.name]
        assert json.loads(path.read_text()) == model.to_json()


class TestReportCommand:
    def test_text_table_has_rd_last_row(self, workdir, capsys):
        run_cli("run", workdir / "fixture_config.json")
        capsys.readouterr()
        code = run_cli("report", workdir / "out" / "reports" / "summary_ranked.json")
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.strip().splitlines() if l]
        assert lines[-1].startswith("RD")

    def test_csv_numbers_match_text(self, workdir, capsys):
        run_cli("run", workdir / "fixture_config.json")
        capsys.readouterr()
        path = workdir / "out" / "reports" / "summary_ranked.json"
        run_cli("report", path, "--format", "csv")
        csv_out = capsys.readouterr().out
        run_cli("report", path, "--format", "text")
        text_out = capsys.readouterr().out
        csv_rd = csv_out.strip().splitlines()[-1].split(",")[1:]
        text_rd = text_out.strip().splitlines()[-1].split()[1:]
        assert csv_rd == text_rd

    def test_markdown_renders(self, workdir, capsys):
        run_cli("run", workdir / "fixture_config.json")
        capsys.readouterr()
        path = workdir / "out" / "reports" / "ranked_Given2.json"
        assert run_cli("report", path, "--format", "md") == 0
        out = capsys.readouterr().out
        assert out.startswith("| Algorithm |")

    def test_truncated_json_exits_one(self, workdir, capsys):
        bad = workdir / "trunc.json"
        bad.write_text('{"kind": "experiment_summary", "metric"')
        assert run_cli("report", bad) == 1
        assert "parse" in capsys.readouterr().err

    def test_unknown_format_exits_two(self, workdir):
        with pytest.raises(SystemExit) as exc:
            run_cli("report", workdir / "fixture_config.json", "--format", "yaml")
        assert exc.value.code == 2


class TestIngest:
    def test_msweb_to_csv(self, tmp_path, capsys):
        data = tmp_path / "web.data"
        data.write_text(
            'A,1000,1,"Home","/home"\nA,1001,1,"Support","/s"\n'
            'C,"10001",10001\nV,1000,1\nV,1001,1\nC,"10002",10002\nV,1001,1\n'
        )
        out = tmp_path / "votes.csv"
        assert run_cli("ingest", "msweb", data, "--out", out) == 0
        db = load_votes_csv(out, IMPLICIT_SCALE)
        assert len(db.users) == 2 and db.num_votes == 3

    def test_bad_data_exits_three(self, tmp_path, capsys):
        data = tmp_path / "web.data"
        data.write_text("V,1000,1\n")
        assert run_cli("ingest", "msweb", data, "--out", tmp_path / "x.csv") == 3

    @pytest.mark.parametrize("flags", [
        ["--implicit", "--max-vote", "5"], ["--min-vote", "5", "--max-vote", "1"],
        ["--max-vote", "5", "--neutral", "6"], ["--max-vote", "5", "--neutral", "nan"],
    ])
    def test_bad_scale_flags_are_a_usage_error(self, tmp_path, capsys, monkeypatch, flags):
        monkeypatch.setattr(cli, "load_votes_csv", None)  # fails if data loads
        out = tmp_path / "x.csv"
        assert run_cli("ingest", "csv", tmp_path / "votes.csv", "--out", out, *flags) == 2
        assert "usage error: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--max-vote", "5", "--neutral", "9"], ["--min-vote", "0"], ["--max-vote", "1"],
        ["--neutral", "0"], ["--implicit"],
    ])
    def test_scale_flags_on_msweb_are_a_usage_error(self, tmp_path, capsys, monkeypatch, flags):
        # msweb data is implicit: a scale flag would be silently dropped
        monkeypatch.setattr(cli, "load_msweb", None)  # fails if data loads
        out = tmp_path / "x.csv"
        assert run_cli("ingest", "msweb", tmp_path / "web.data", "--out", out, *flags) == 2
        assert "usage error: msweb data is implicit and takes no scale flags" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_csv_scale_flags_default_to_zero_one(self, tmp_path, monkeypatch):
        scales = []
        monkeypatch.setattr(cli, "load_votes_csv",
                            lambda path, scale: scales.append(scale) or VoteDatabase.from_votes(
                                [("u", "a", 1.0)], scale))
        out = tmp_path / "x.csv"
        assert run_cli("ingest", "csv", tmp_path / "votes.csv", "--out", out) == 0
        assert run_cli("ingest", "csv", tmp_path / "votes.csv", "--out", out,
                       "--max-vote", "5") == 0
        assert scales == [VoteScale(0, 1, 0.0, False), VoteScale(0, 5, 0.0, False)]


class TestTrainCommand:
    def test_train_only_bn(self, workdir, capsys):
        code = run_cli("train", workdir / "fixture_config.json", "--only", "bn")
        assert code == 0
        out = capsys.readouterr().out
        assert "BN" in out and "BC" not in out
        models = list((workdir / "out" / "models").glob("bayesnet_*.json"))
        assert len(models) == 1

    def test_train_both_kinds(self, workdir, capsys):
        assert run_cli("train", workdir / "fixture_config.json") == 0
        out = capsys.readouterr().out
        assert "BN" in out and "BC" in out

    def test_only_names_come_from_the_trained_kinds(self, workdir):
        assert {kind: t.only for kind, t in harness.TRAINED_KINDS.items()} == {
            "cluster": "bc", "bayesnet": "bn"}
        for kind in harness.TRAINED_KINDS.values():
            args = cli.build_parser().parse_args(["train", "c.json", "--only", kind.only])
            assert args.only == kind.only
        config = harness.load_config(workdir / "fixture_config.json")
        with pytest.raises(ValueError, match="'xx'"):
            harness.train_models(config, only="xx")
        with pytest.raises(SystemExit):
            run_cli("train", workdir / "fixture_config.json", "--only", "xx")

    @pytest.mark.parametrize("kind", ["popularity", "memory"])
    def test_untrained_kind_is_refused_before_the_cache(self, workdir, caplog, kind):
        # a file under the kind's cache key is not read as a corrupt model
        config = harness.load_config(workdir / "fixture_config.json")
        train, _ = harness.load_datasets(config.dataset)
        spec = harness.AlgorithmSpec("X", kind)
        cache = workdir / "cache"
        cache.mkdir()
        key = harness._model_cache_key(train, spec, config.seed)
        (cache / f"{kind}_{key}.json").write_text("{}", encoding="utf-8")
        with pytest.raises(ValueError, match="has no trained model"):
            harness.train_model(train, spec, config.seed, cache)
        assert not any("retraining" in r.getMessage() for r in caplog.records)

    def test_fixture_models_keep_their_digests(self, tmp_path):
        explicit = load_votes_csv(FIXDIR / "fixture_votes.csv", VoteScale(0, 5, 3.0, False))
        implicit = VoteDatabase.from_votes(
            [(u, it, 1.0) for u, it, _ in explicit.iter_votes()], IMPLICIT_SCALE,
            items=explicit.items,
        )
        specs = [
            harness.AlgorithmSpec("BC", "cluster", {"max_classes": 4, "restarts": 2}),
            harness.AlgorithmSpec("BC3", "cluster", {"classes": 3}),
            harness.AlgorithmSpec("BN", "bayesnet", {"structure_penalty": 0.99, "ess": 10}),
        ]
        digests, version1 = {}, {}
        for name, db in (("explicit", explicit), ("implicit", implicit)):
            for spec in specs:
                model, path = harness.train_model(db, spec, 11, tmp_path / name)
                digests[f"{name}/{spec.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
                if spec.kind == "bayesnet":
                    doc = json.dumps(version1_file(model), sort_keys=True)
                    version1[f"{name}/{spec.name}"] = hashlib.sha256(doc.encode()).hexdigest()
        assert digests == FIXTURE_MODEL_DIGESTS
        assert version1 == FIXTURE_BN_VERSION1_DIGESTS


class TestSummaryRendering:
    def test_single_report_renders_one_column(self, workdir, capsys):
        run_cli("run", workdir / "fixture_config.json")
        capsys.readouterr()
        path = workdir / "out" / "reports" / "ranked_AllBut1.json"
        assert run_cli("report", path) == 0
        out = capsys.readouterr().out
        assert "AllBut1" in out.splitlines()[0]


class TestEnvironmentOverrides:
    def test_output_dir_override(self, workdir, monkeypatch, tmp_path):
        other = tmp_path / "elsewhere"
        monkeypatch.setenv("CFLAB_OUTPUT_DIR", str(other))
        assert run_cli("run", workdir / "fixture_config.json") == 0
        assert (other / "reports" / "summary_ranked.json").exists()
        assert not (workdir / "out").exists()

    def test_no_scoring_thread_option(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", workdir / "fixture_config.json", "--jobs", "2")
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err


class TestModelScoring:
    def test_model_predictors_score_alike_with_fresh_models(self):
        config = harness.load_config(FIXDIR / "fixture_config.json")
        train, test = harness.load_datasets(config.dataset)

        def reports():
            # fresh models, so that each run's predictors build their own
            # scoring tables
            bc = em_fit(train, 2, seed=1)[0]
            bn = learn_network(train, LearnConfig(structure_penalty=0.99))
            algs = [ClusterPredictor(train, bc), BayesNetPredictor(train, bn)]
            out = []
            for protocol in config.protocols:
                cases = generate_active_cases(test, protocol, config.seed)
                out.extend(r.dumps() for r in run_experiment(
                    train, cases, algs, ["ranked", "deviation"], ranked_cfg=config.ranked,
                    seed=config.seed, protocol_label=protocol.label,
                ))
            return out

        one, two = reports(), reports()
        assert one == two
        extras = json.loads(two[0])["extras"]["BN"]
        assert extras["lookups"] > 0 and extras["influenced"] > 0

    def test_each_case_is_evaluated_once_for_both_metrics(self, tmp_path):
        config = harness.load_config(FIXDIR / "fixture_config.json")
        train, test = harness.load_datasets(config.dataset)
        algs = [
            harness.build_predictor(spec, train, config.seed, tmp_path)
            for spec in config.algorithms if spec.kind != harness.POPULARITY
        ]
        evaluated = {alg.name: [] for alg in algs}
        for alg in algs:
            def counting(block, alg=alg, evaluate=alg.evaluate):
                evaluated[alg.name].extend(id(case) for case in block)
                return evaluate(block)

            alg.evaluate = counting
        for protocol in config.protocols:
            cases = generate_active_cases(test, protocol, config.seed)
            reports = run_experiment(train, cases, algs, ["ranked", "deviation"],
                                     ranked_cfg=config.ranked, seed=config.seed)
            assert reports[0].excluded["zero_max_utility"] or protocol.label != "AllBut1"
            assert not any(r.excluded["failed"] for r in reports)
            # every case is in a block, as deviation scores them all
            for alg in algs:
                assert sorted(evaluated[alg.name]) == sorted(id(case) for case in cases)
                evaluated[alg.name].clear()
