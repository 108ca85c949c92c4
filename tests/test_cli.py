import hashlib
import json
from dataclasses import replace

import pytest

from qer import corpus, evalkit, expansion, rcer, synthgen
from qer.cli import DEFAULT_CFG, SWEEP, main

from conftest import CORPUS_RECORDS, GOLD_ASSIGNMENTS


@pytest.fixture
def records_file(tmp_path):
    path = tmp_path / "records.jsonl"
    with open(path, "w") as f:
        for rec in CORPUS_RECORDS:
            f.write(json.dumps(rec) + "\n")
    return str(path)


@pytest.fixture
def gold_file(tmp_path):
    path = tmp_path / "gold.txt"
    corpus.save_gold(corpus.GoldLabeling(dict(GOLD_ASSIGNMENTS)), str(path))
    return str(path)


def test_ingest_writes_snapshot(records_file, tmp_path, capsys):
    snap = str(tmp_path / "ds.json")
    assert main(["ingest", records_file, "--dataset", snap]) == 0
    out = capsys.readouterr().out
    assert "references: 10" in out
    assert "hyperedges: 4" in out
    ds = corpus.load_snapshot(snap)
    assert set(ds.references) == set(GOLD_ASSIGNMENTS)


def test_ingest_bad_records(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    assert main(["ingest", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_query_by_ref_id(records_file, capsys):
    rc = main(["query", "--ref-id", "r1", "--records", records_file,
               "--threshold", "0.5"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert "r1" in lines[0].split()


def test_query_by_value_structured(records_file, capsys):
    rc = main(["--output", "structured", "query", "W. Wang",
               "--records", records_file, "--threshold", "0.99"])
    assert rc == 0
    rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    groups = [set(r) for r in rows if isinstance(r, list)]
    # nothing merges above the maximum similarity: exact/δ matches stay apart
    assert groups == [{"r1"}, {"r4"}, {"r8"}, {"r9"}]
    extra = rows[-1]
    assert extra["levels"][0] == 4
    assert extra["threshold"] == 0.99
    assert extra["extraction_seconds"] >= 0


def test_query_sweep_reports_f1(records_file, gold_file, capsys):
    rc = main(["query", "W. Wang", "--records", records_file,
               "--sweep", "--gold", gold_file])
    assert rc == 0
    err = capsys.readouterr().err
    assert "# f1:" in err


def test_query_sweep_requires_gold(records_file, capsys):
    assert main(["query", "W. Wang", "--records", records_file,
                 "--sweep"]) == 2
    captured = capsys.readouterr()
    assert "error: --sweep requires --gold" in captured.err
    assert not captured.out


def test_query_no_match(records_file, capsys):
    assert main(["query", "Z. Zobrist", "--records", records_file]) == 0
    assert "empty answer" in capsys.readouterr().out


def test_synth_roundtrip(tmp_path, capsys):
    records = str(tmp_path / "synth.jsonl")
    gold = str(tmp_path / "synth_gold.txt")
    rc = main(["synth", "--entities", "20", "--relationships", "40",
               "--hyperedges", "50", "--seed", "3",
               "--records-out", records, "--gold-out", gold])
    assert rc == 0
    ds = corpus.ingest_file(records, name_mode="numeric")
    labeling = corpus.load_gold(gold)
    assert set(labeling.assignments) == set(ds.references)
    assert len(ds.hyperedges) == 50


def test_synth_bytes_pinned(tmp_path, capsys):
    """``qer synth`` writes the records and gold lines it wrote when the
    generator also kept a list of its records, byte for byte."""
    records, gold = tmp_path / "synth.jsonl", tmp_path / "synth_gold.txt"
    assert main(["synth", "--entities", "100", "--relationships", "200",
                 "--hyperedges", "500", "--p-a", "0.5", "--p-r-a", "0.3",
                 "--p-c", "0.5", "--p-r", "0.5", "--seed", "4",
                 "--records-out", str(records),
                 "--gold-out", str(gold)]) == 0
    assert capsys.readouterr().out == "hyperedges: 500\nreferences: 655\n"
    assert hashlib.sha256(records.read_bytes()).hexdigest() == (
        "a22f6cdc2c3475040c41db3e1eeb3603be752e0af24bb3bf8536edc13618d9c4")
    assert hashlib.sha256(gold.read_bytes()).hexdigest() == (
        "9ada643462c60b99622ec44a1982ca84bb58a0d43c5b33b42ae0f14e40b5f6a4")


def test_synth_seed_is_the_subcommand_option(tmp_path, capsys):
    def synth(*argv):
        records = tmp_path / "synth.jsonl"
        rc = main([*argv, "--entities", "20", "--relationships", "40",
                   "--hyperedges", "50", "--records-out", str(records),
                   "--gold-out", str(tmp_path / "gold.txt")])
        return rc, records.read_text()

    assert synth("synth", "--seed", "5")[1] != synth("synth", "--seed", "0")[1]
    with pytest.raises(SystemExit) as exc:
        synth("--seed", "5", "synth")
    assert exc.value.code == 2


@pytest.mark.parametrize("line", ["merge_treshold = 0.9",
                                  "multiset_neighborhood = yes please"])
def test_config_with_an_unread_line_exits_2(records_file, gold_file,
                                            tmp_path, capsys, line):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("alpha = 0.5\nepsilon = 0.98\ndelta = 0.9\n"
                   "merge_threshold = 0.5\nattr_weights = name:1.0\n"
                   + line + "\n")
    rc = main(["--config", str(cfg), "eval", "--records", records_file,
               "--gold", gold_file])
    assert rc == 2
    assert line.split(" =")[0] in capsys.readouterr().err


@pytest.mark.parametrize("weights, entry", [
    ("name", "'name'"), ("name:x", "'name:x'"), ("name:0.0, name:1.0", "'name'")])
def test_config_with_a_bad_attr_weights_entry_exits_2(records_file, tmp_path,
                                                      capsys, weights, entry):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha = 0.5\nepsilon = 0.98\ndelta = 0.9\n"
                   f"merge_threshold = 0.5\nattr_weights = {weights}\n")
    rc = main(["--config", str(cfg), "query", "W. Wang",
               "--records", records_file])
    assert rc == 2
    err = capsys.readouterr().err
    assert "attr_weights" in err and entry in err, err


def test_eval_row_format(records_file, gold_file, capsys):
    rc = main(["eval", "--records", records_file, "--gold", gold_file,
               "--baseline", "A", "--sweep"])
    assert rc == 0
    row = capsys.readouterr().out.strip()
    fields = dict(kv.split("=") for kv in row.split("\t"))
    assert fields["baseline"] == "A"
    assert 0.0 <= float(fields["f1"]) <= 1.0


def test_eval_rcer_alias(records_file, gold_file, capsys):
    rc = main(["eval", "--records", records_file, "--gold", gold_file,
               "--baseline", "RC-ER", "--threshold", "0.5"])
    assert rc == 0
    assert "baseline=RC-ER" in capsys.readouterr().out


def test_eval_defaults_to_rcer(records_file, gold_file, capsys):
    assert main(["eval", "--records", records_file, "--gold", gold_file,
                 "--threshold", "0.5"]) == 0
    assert capsys.readouterr().out.startswith("baseline=RC-ER\t")


@pytest.mark.parametrize("baseline", ["A_star", "NR_star", "RCER"])
def test_eval_refuses_internal_kind_names(records_file, gold_file, baseline,
                                          capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--records", records_file, "--gold", gold_file,
              "--baseline", baseline])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["W. Wang"], "either --dataset or --records is required"),
    (["--ref-id", "r99", "--records", "RECORDS"],
     "unknown reference id: r99"),
    (["--records", "RECORDS"], "a query value or --ref-id is required"),
])
def test_query_usage_errors_exit_2(records_file, argv, message, capsys):
    argv = [records_file if a == "RECORDS" else a for a in argv]
    assert main(["query", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert not captured.out


@pytest.mark.parametrize("h_max", ["inf", "nan"])
def test_query_rejects_non_finite_h_max(records_file, h_max, capsys):
    assert main(["query", "W. Wang", "--records", records_file,
                 "--h-max", h_max]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: h_max must be finite and at least 1, " \
        f"not {h_max}\n"
    assert not captured.out


@pytest.mark.parametrize("baseline", ["A", "A*", "NR", "NR*", "RC-ER"])
@pytest.mark.parametrize("threshold", ["1.5", "nan", "-0.2"])
def test_eval_rejects_threshold_out_of_range(records_file, gold_file,
                                             baseline, threshold, capsys):
    assert main(["eval", "--records", records_file, "--gold", gold_file,
                 "--baseline", baseline, "--threshold", threshold]) == 2
    captured = capsys.readouterr()
    assert f"error: threshold {float(threshold)!r}" in captured.err
    assert not captured.out


def test_query_sweep_picks_the_best_replayed_threshold(records_file,
                                                       gold_file, capsys):
    assert main(["--output", "structured", "query", "W. Wang", "--records",
                 records_file, "--sweep", "--gold", gold_file]) == 0
    extra = json.loads(capsys.readouterr().out.splitlines()[-1])
    ds = corpus.ingest_file(records_file)
    gold = corpus.load_gold(gold_file)
    answer = rcer.resolve(ds, corpus.Query("W. Wang"),
                          expansion.ExpansionParams(delta=DEFAULT_CFG.delta),
                          replace(DEFAULT_CFG, merge_threshold=0.0))
    t, m = evalkit.best_f1_over_thresholds(
        lambda t: evalkit.pairwise_metrics(answer.groups(t), gold,
                                           answer.rset.levels[0]), SWEEP)
    assert (extra["threshold"], extra["f1"]) == (t, round(m.f1, 4))


def test_analyze_closed_form(capsys):
    rc = main(["analyze", "--closed-form", "--a", "0.33", "--r", "1.0",
               "--n", "2"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0.69924"


def test_analyze_table(records_file, gold_file, capsys):
    rc = main(["analyze", "--records", records_file, "--gold", gold_file,
               "--depth", "2"])
    assert rc == 0
    assert capsys.readouterr().out.strip()


def test_analyze_without_gold_exits_2(records_file, capsys):
    assert main(["analyze", "--records", records_file]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: analyze requires --gold, or --closed-form\n"


@pytest.mark.parametrize("command", [
    ["ingest", "{dir}"], ["query", "W. Wang", "--records", "{dir}"],
    ["query", "W. Wang", "--dataset", "{dir}"],
    ["ingest", "{records}", "--dataset", "{dir}"]])
def test_directory_for_a_file_exits_2(records_file, tmp_path, command,
                                      capsys):
    argv = [a.format(dir=tmp_path, records=records_file) for a in command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 21] Is a "
                                              "directory")


def test_missing_records_file(capsys):
    assert main(["ingest", "/nonexistent/records.jsonl"]) == 2


def test_ingest_numeric_rejects_non_numeric_name(tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps({"pub_id": "p", "authors": [
        {"id": "x1", "name": "1.5"}, {"id": "x2", "name": "nan"}]}) + "\n")
    assert main(["ingest", str(path), "--name-mode", "numeric"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "x2" in err


def test_query_malformed_snapshot(tmp_path, capsys):
    snap = tmp_path / "ds.json"
    snap.write_text(corpus.SNAPSHOT_HEADER + " text\n{}")
    assert main(["query", "W. Wang", "--dataset", str(snap)]) == 2
    assert "error: record 0: missing pub_id" in capsys.readouterr().err


@pytest.fixture
def synth_files(tmp_path):
    out = synthgen.generate(synthgen.GenParams(
        n_entities=40, n_relationships=80, n_hyperedges=150, seed=3))
    records = tmp_path / "synth.jsonl"
    records.write_text("".join(json.dumps(r) + "\n" for r in out.records))
    gold = tmp_path / "synth_gold.txt"
    corpus.save_gold(out.gold, str(gold))
    return str(records), str(gold)


@pytest.mark.parametrize("mode", ["text", "numeric"])
def test_query_snapshot_answers_as_its_records(records_file, synth_files,
                                               tmp_path, capsys, mode):
    # the snapshot's header carries the name mode: no --name-mode on load
    # ("499.0", the name of p0:0, gets another answer in text mode)
    records, value = ((records_file, "W. Wang") if mode == "text"
                      else (synth_files[0], "499.0"))
    snap = str(tmp_path / "ds.snap")
    assert main(["ingest", records, "--dataset", snap,
                 "--name-mode", mode]) == 0
    capsys.readouterr()
    assert main(["query", value, "--dataset", snap]) == 0
    from_snapshot = capsys.readouterr().out
    assert main(["query", value, "--records", records,
                 "--name-mode", mode]) == 0
    assert capsys.readouterr().out == from_snapshot
    assert from_snapshot.strip()


@pytest.mark.parametrize("value", ["nan", "inf", "bob"])
def test_query_numeric_rejects_non_finite_value(synth_files, value, capsys):
    records, _ = synth_files
    assert main(["query", value, "--records", records,
                 "--name-mode", "numeric"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and value in captured.err
    assert not captured.out


def test_eval_rcer_sweep_clusters_once(synth_files, monkeypatch, capsys):
    records, gold = synth_files
    calls = []
    run_rcer = evalkit.run_rcer
    monkeypatch.setattr(evalkit, "run_rcer",
                        lambda *a, **k: calls.append(1) or run_rcer(*a, **k))
    assert main(["eval", "--records", records, "--name-mode", "numeric",
                 "--gold", gold, "--baseline", "RC-ER", "--sweep"]) == 0
    assert len(calls) == 1
    fields = dict(kv.split("=")
                  for kv in capsys.readouterr().out.strip().split("\t"))
    # the same pick as clustering afresh at every threshold
    ds = corpus.ingest_file(records, name_mode="numeric")
    t, m = evalkit.best_f1_over_thresholds(
        lambda t: evalkit.evaluate_baseline(
            "RC-ER", ds, set(ds.references), DEFAULT_CFG, t,
            corpus.load_gold(gold)), SWEEP)
    assert (fields["threshold"], fields["f1"]) == (f"{t:.3f}", f"{m.f1:.4f}")


@pytest.mark.parametrize("baseline", ["A", "A*", "NR", "NR*"])
def test_eval_baseline_sweep_scores_once(synth_files, baseline, monkeypatch,
                                         capsys):
    records, gold = synth_files
    calls = []
    block = evalkit.block_candidates
    monkeypatch.setattr(evalkit, "block_candidates",
                        lambda *a, **k: calls.append(1) or block(*a, **k))
    assert main(["eval", "--records", records, "--name-mode", "numeric",
                 "--gold", gold, "--baseline", baseline, "--sweep"]) == 0
    assert len(calls) == 1
    fields = dict(kv.split("=")
                  for kv in capsys.readouterr().out.strip().split("\t"))
    # the same pick as blocking and scoring afresh at every threshold
    ds = corpus.ingest_file(records, name_mode="numeric")
    t, m = evalkit.best_f1_over_thresholds(
        lambda t: evalkit.evaluate_baseline(
            baseline, ds, set(ds.references), DEFAULT_CFG, t,
            corpus.load_gold(gold)), SWEEP)
    assert (fields["threshold"], fields["f1"]) == (f"{t:.3f}", f"{m.f1:.4f}")
