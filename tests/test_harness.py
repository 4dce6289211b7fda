import errno
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from cflab import cli, harness, predictors
from cflab.bayesnet import BayesNetModel, LearnConfig, learn_network
from cflab.cluster import ClusterModel, em_fit
from cflab.evaluation import run_experiment
from cflab.predictors import BayesNetPredictor, ClusterPredictor
from cflab.votedata import (
    IMPLICIT_SCALE,
    VoteDatabase,
    VoteScale,
    generate_active_cases,
    load_votes_csv,
)

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
    "explicit/BN": "214f197a02842ff2419c34e3108ae1d539c9f47733c806480236a3e86745c49c",
    "implicit/BC": "a77b069c73153eb8011c6dfaf9af6dbcaebdad1d8b10ff369cc2c543dc8f8424",
    "implicit/BC3": "6e695d650b62a112f6ff9b6e35c9f01cd0b0ec9d87c0c42f90599579715e9139",
    "implicit/BN": "96fa6c60752db069edea502dd3388bd0f622b212458bbfa543c0a9d6d48d17ff",
}


@pytest.fixture
def workdir(tmp_path):
    for name in ("fixture_votes.csv", "fixture_config.json", "fixture_config_deviation.json"):
        shutil.copy(FIXDIR / name, tmp_path / name)
    return tmp_path


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


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

        def splits(node):
            if "split" in node:
                yield node["split"]
                for child in node["children"]:
                    yield from splits(child)

        used = {it for tree in doc["trees"].values() for it in splits(tree)}
        drop = next(j for j, it in enumerate(items) if it not in used)
        cols = [j for j in range(len(items)) if j != drop]
    if kind == "cluster":
        return dict(doc, items=[items[j] for j in cols],
                    cond=[[c[j] for j in cols] for c in doc["cond"]])
    return dict(doc, items=[items[j] for j in cols],
                trees={str(k): doc["trees"][str(j)] for k, j in enumerate(cols)})


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
        ("algorithms[2].config: unknown key 'default_voting.kk'",
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

    @pytest.mark.parametrize("sweep", [{"max_classes": 4}, {"restarts": 2}])
    def test_fixed_classes_take_no_sweep_keys(self, workdir, capsys, sweep):
        # the fixed count would otherwise silently win
        doc = json.loads((workdir / "fixture_config.json").read_text())
        doc["algorithms"][4]["config"].update(sweep)
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("run", bad) == 2
        assert "algorithms[4].config: a fixed classes count" in capsys.readouterr().err

    def test_benchmark_configs_load(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(FIXDIR.parent))
        from cfbench.workloads import WORKLOADS

        for name, workload in WORKLOADS.items():
            doc = workload.config_doc()
            for key in ("train", "test"):
                (tmp_path / doc["dataset"][key]).touch()
            config = harness.parse_config(doc, tmp_path)
            assert [a.name for a in config.algorithms] == [a["name"] for a in doc["algorithms"]]

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

    def test_fixture_reports_keep_their_digests(self, workdir, monkeypatch):
        # at a case per block, at the default blocks, and with every case of
        # a protocol in one block
        for budget in (1, predictors.BLOCK_WEIGHTS, 2**40):
            monkeypatch.setattr(predictors, "BLOCK_WEIGHTS", budget)
            for out in workdir.glob("out*"):
                shutil.rmtree(out)
            assert run_cli("run", workdir / "fixture_config.json") == 0
            assert run_cli("run", workdir / "fixture_config_deviation.json") == 0
            digests = {
                p.relative_to(workdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(workdir.glob("out*/reports/*"))
            }
            assert digests == FIXTURE_REPORT_DIGESTS, budget
            meta = json.loads((workdir / "out" / "run_meta.json").read_text())
            block = max(1, budget // meta["train_users"])
            assert meta["block_cases"] == {name: block for name in FIXTURE_ALGORITHMS}

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
            # a split with one child: routing would read another tree's nodes
            doc["trees"]["0"] = {"split": doc["items"][1], "children": [doc["trees"]["0"]]}
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        model, again = harness.train_model(train, spec, config.seed, cache)
        assert again == path and path.read_bytes() == good  # retrained and replaced
        assert model.scale == train.scale and model.items == train.items
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
        digests = {}
        for name, db in (("explicit", explicit), ("implicit", implicit)):
            for spec in specs:
                _, path = harness.train_model(db, spec, 11, tmp_path / name)
                digests[f"{name}/{spec.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digests == FIXTURE_MODEL_DIGESTS


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
            def counting(block, alg=alg, evaluate=alg._evaluate_block):
                evaluated[alg.name].extend(id(case) for case in block)
                return evaluate(block)

            alg._evaluate_block = counting
        for protocol in config.protocols:
            cases = generate_active_cases(test, protocol, config.seed)
            reports = run_experiment(train, cases, algs, ["ranked", "deviation"],
                                     ranked_cfg=config.ranked, seed=config.seed)
            assert reports[0].excluded["zero_max_utility"] or protocol.label != "AllBut1"
            assert not any(r.excluded["failed"] for r in reports)
            # every case is scheduled, as deviation scores them all
            for alg in algs:
                assert sorted(evaluated[alg.name]) == sorted(id(case) for case in cases)
                evaluated[alg.name].clear()
