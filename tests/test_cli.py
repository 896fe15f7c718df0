"""End-to-end runs of the command line driver, in-process via main()."""

import argparse
import warnings

import pytest

from conftest import HYPERLINK_FACTS, TABLE_PROGRAM
from pprlog.cli import build_parser, main
from pprlog.weights import load_params


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "rules.pl").write_text(TABLE_PROGRAM)
    (tmp_path / "facts.tsv").write_text(HYPERLINK_FACTS)
    (tmp_path / "queries.txt").write_text("about(a,Z)\nabout(b,Z)\n")
    (tmp_path / "train.tsv").write_text(
        "about(a,X)\t+about(a,fashion)\t-about(a,sport)\n"
        "about(b,X)\t+about(b,fashion)\t-about(b,sport)\n")
    return tmp_path


def run(args):
    return main([str(a) for a in args])


def common(ws):
    return ["--rules", ws / "rules.pl", "--facts", ws / "facts.tsv"]


def read_answer_blocks(path):
    blocks = {}
    for line in path.read_text().splitlines():
        kind, _, rest = line.partition("\t")
        if kind == "query":
            current = rest
            blocks[current] = []
        else:
            blocks[current].append(line.split("\t"))
    return blocks


def test_answer_ranks_solutions(workspace):
    out = workspace / "answers.tsv"
    assert run(["answer", *common(workspace),
                "--queries", workspace / "queries.txt", "--out", out]) == 0
    blocks = read_answer_blocks(out)
    assert set(blocks) == {"about(a,Z)", "about(b,Z)"}
    rows = blocks["about(a,Z)"]
    answers = [r[2] for r in rows]
    assert set(answers) == {"about(a,fashion)", "about(a,sport)"}
    probs = [float(r[1]) for r in rows]
    assert probs == sorted(probs, reverse=True)
    assert sum(probs) == pytest.approx(1.0)


def test_answer_exact_agrees_with_approximate(workspace):
    approx, exact = workspace / "approx.tsv", workspace / "exact.tsv"
    run(["answer", *common(workspace), "--queries",
         workspace / "queries.txt", "--epsilon", "1e-6", "--out", approx])
    run(["answer", *common(workspace), "--queries",
         workspace / "queries.txt", "--exact", "--out", exact])
    a, e = read_answer_blocks(approx), read_answer_blocks(exact)
    for q in a:
        pa = {r[2]: float(r[1]) for r in a[q]}
        pe = {r[2]: float(r[1]) for r in e[q]}
        for answer in pe:
            assert pa.get(answer, 0.0) == pytest.approx(pe[answer], abs=5e-3)


def test_ground_then_train_round_trip(workspace):
    groundings = workspace / "graphs.tsv"
    assert run(["ground", *common(workspace), "--train",
                workspace / "train.tsv", "--out", groundings]) == 0
    assert groundings.read_text().startswith("about(a,X)\t")

    direct = workspace / "direct.tsv"
    reused = workspace / "reused.tsv"
    base = ["train", *common(workspace), "--train", workspace / "train.tsv",
            "--epochs", "2", "--seed", "5"]
    assert run(base + ["--params-out", direct]) == 0
    assert run(base + ["--groundings", groundings,
                       "--params-out", reused]) == 0
    w1 = load_params(direct.read_text())
    w2 = load_params(reused.read_text())
    assert set(w1) == set(w2)
    for name in w1:
        assert w1[name] == pytest.approx(w2[name], abs=1e-9)


def test_train_from_groundings_reads_no_rules_or_facts(workspace):
    groundings = workspace / "graphs.tsv"
    assert run(["ground", *common(workspace), "--train",
                workspace / "train.tsv", "--out", groundings]) == 0
    broken = ["--rules", workspace / "broken.pl",
              "--facts", workspace / "broken.tsv"]
    (workspace / "broken.pl").write_text("about(X :- .\n")
    (workspace / "broken.tsv").write_text("one column\n")
    assert run(["ground", *broken, "--train", workspace / "train.tsv"]) == 1
    base = ["train", "--train", workspace / "train.tsv", "--groundings",
            groundings, "--epochs", "2"]
    good, bad = workspace / "good.tsv", workspace / "bad.tsv"
    assert run(base + [*common(workspace), "--params-out", good]) == 0
    assert run(base + [*broken, "--params-out", bad]) == 0
    assert bad.read_text() == good.read_text()


def test_train_from_groundings_refuses_params_in(workspace, capsys):
    # the records already hold their groundings, and SGD starts from its
    # own initial weights, so the weights would change nothing
    groundings, weights = workspace / "graphs.tsv", workspace / "w.tsv"
    assert run(["ground", *common(workspace), "--train",
                workspace / "train.tsv", "--out", groundings]) == 0
    weights.write_text("base\t5.0\n")
    out = workspace / "out.tsv"
    capsys.readouterr()
    assert run(["train", *common(workspace), "--train",
                workspace / "train.tsv", "--groundings", groundings,
                "--params-in", weights, "--params-out", out]) == 2
    err = one_error_line(capsys)
    assert "--params-in" in err and "--groundings" in err
    assert not out.exists()


def test_train_from_groundings_needs_no_rules_or_facts(workspace):
    groundings, out = workspace / "graphs.tsv", workspace / "w.tsv"
    assert run(["ground", *common(workspace), "--train",
                workspace / "train.tsv", "--out", groundings]) == 0
    assert run(["train", "--train", workspace / "train.tsv", "--groundings",
                groundings, "--epochs", "1", "--params-out", out]) == 0
    assert load_params(out.read_text())


@pytest.mark.parametrize("given,missing", [
    ([], "--rules, --facts"), (["--rules", "r.pl"], "--facts"),
    (["--facts", "f.tsv"], "--rules")])
def test_train_without_groundings_needs_rules_and_facts(workspace, capsys,
                                                        given, missing):
    assert run(["train", "--train", workspace / "train.tsv", *given]) == 2
    assert one_error_line(capsys) == (
        f"error\tpprlog train: the following arguments are required "
        f"without --groundings: {missing} (see --help)\n")


@pytest.mark.parametrize("options,named", [
    (["--alpha", "0.5"], "--alpha"),
    (["--alpha", "5"], "--alpha"),
    (["--epsilon", "0.1"], "--epsilon"),
    (["--epsilon", "1e-4", "--params-in", "w.tsv", "--alpha", "0.2"],
     "--params-in, --alpha, --epsilon")])
def test_train_from_groundings_refuses_grounding_options(workspace, capsys,
                                                         options, named):
    # --alpha and --epsilon, like --params-in, shape only the grounding,
    # and the records hold it: given, even at their defaults, they would
    # change nothing
    groundings, out = workspace / "graphs.tsv", workspace / "out.tsv"
    assert run(["ground", *common(workspace), "--train",
                workspace / "train.tsv", "--out", groundings]) == 0
    capsys.readouterr()
    assert run(["train", "--train", workspace / "train.tsv", "--groundings",
                groundings, *options, "--params-out", out]) == 2
    assert one_error_line(capsys) == (
        f"error\tpprlog train: the following arguments are not read with "
        f"--groundings: {named} (see --help)\n")
    assert not out.exists()


def test_answer_refuses_horizon_without_exact(workspace, capsys):
    # --max-t bounds only --exact; the push loop has no horizon
    out = workspace / "answers.tsv"
    assert run(["answer", *common(workspace), "--queries",
                workspace / "queries.txt", "--max-t", "1", "--out", out]) == 2
    assert one_error_line(capsys) == (
        "error\tpprlog answer: the following arguments are not read "
        "without --exact: --max-t (see --help)\n")
    assert not out.exists()
    assert run(["answer", *common(workspace), "--queries",
                workspace / "queries.txt", "--max-t", "1", "--exact",
                "--out", out]) == 0


def test_train_refuses_groundings_of_other_queries(workspace, capsys):
    # records pair with examples by position, so each must hold its
    # example's query
    groundings = workspace / "graphs.tsv"
    assert run(["ground", *common(workspace), "--train",
                workspace / "train.tsv", "--out", groundings]) == 0
    first, second = (workspace / "train.tsv").read_text().splitlines()
    swapped = workspace / "swapped.tsv"
    swapped.write_text(f"\n{second}\n{first}\n")
    capsys.readouterr()
    assert run(["train", *common(workspace), "--train", swapped,
                "--groundings", groundings]) == 2
    assert capsys.readouterr().err == (
        f"error\t{groundings} record 1: query about(a,X) does not match "
        f"{swapped} line 2 about(b,X)\n")


def test_train_names_both_files_when_the_record_count_differs(workspace,
                                                              capsys):
    groundings = workspace / "graphs.tsv"
    assert run(["ground", *common(workspace), "--train",
                workspace / "train.tsv", "--out", groundings]) == 0
    first = workspace / "first.tsv"
    first.write_text((workspace / "train.tsv").read_text().splitlines()[0])
    capsys.readouterr()
    assert run(["train", *common(workspace), "--train", first,
                "--groundings", groundings]) == 2
    assert capsys.readouterr().err == (
        f"error\t{groundings} holds 2 groundings but {first} holds "
        f"1 examples\n")


@pytest.mark.parametrize("command", [
    ["answer", "--queries", "queries.txt"], ["ground", "--train", "train.tsv"],
    ["train", "--train", "train.tsv"]])
def test_rules_and_facts_conflict_ends_the_run_once(workspace, capsys,
                                                    command):
    # a predicate defined by rules and by facts is refused before any query
    (workspace / "rules.pl").write_text("p(X) :- q(X).\n")
    (workspace / "facts.tsv").write_text("p\ta\n")
    name, flag, path = command
    assert run([name, *common(workspace), flag, workspace / path]) == 1
    assert capsys.readouterr() == ("", (
        f"error\t{workspace / 'rules.pl'} and {workspace / 'facts.tsv'}: "
        f"predicate p/1 is defined both by rules and by database facts\n"))


def test_train_then_answer_with_learned_params(workspace):
    params = workspace / "params.tsv"
    run(["train", *common(workspace), "--train", workspace / "train.tsv",
         "--params-out", params])
    out = workspace / "answers.tsv"
    assert run(["answer", *common(workspace), "--params-in", params,
                "--queries", workspace / "queries.txt", "--out", out]) == 0
    rows = read_answer_blocks(out)["about(a,Z)"]
    assert rows[0][2] == "about(a,fashion)"  # the trained-up label wins


def test_eval_known_metrics(tmp_path):
    (tmp_path / "answers.tsv").write_text(
        "query\tq(a,X)\n"
        "1\t0.4\tq(a,p1)\n2\t0.3\tq(a,n1)\n"
        "3\t0.2\tq(a,p2)\n4\t0.1\tq(a,n2)\n")
    (tmp_path / "labels.tsv").write_text(
        "q(a,X)\t+q(a,p1)\t+q(a,p2)\t-q(a,n1)\t-q(a,n2)\n")
    out = tmp_path / "scores.tsv"
    assert run(["eval", "--answers", tmp_path / "answers.tsv",
                "--labels", tmp_path / "labels.tsv", "--out", out]) == 0
    lines = dict(l.rsplit("\t", 1) for l in out.read_text().splitlines())
    # ranking [+,-,+,-]: AP = (1 + 2/3)/2, AUC = 3 of 4 pairs
    assert float(lines["summary\tMAP"]) == pytest.approx(5 / 6, abs=1e-6)
    assert float(lines["summary\tAUC"]) == pytest.approx(0.75, abs=1e-6)


def test_synth_hyperlink_is_usable(tmp_path):
    outdir = tmp_path / "data"
    assert run(["synth", "--task", "hyperlink", "--entities", "32",
                "--out-dir", outdir]) == 0
    out = tmp_path / "answers.tsv"
    assert run(["answer", "--rules", outdir / "rules.pl",
                "--facts", outdir / "facts.tsv",
                "--queries", outdir / "queries.txt", "--out", out]) == 0
    assert "query\t" in out.read_text()


def test_synth_citation_is_trainable(tmp_path):
    outdir = tmp_path / "data"
    assert run(["synth", "--task", "citation", "--papers", "4",
                "--out-dir", outdir]) == 0
    params = tmp_path / "params.tsv"
    assert run(["train", "--rules", outdir / "rules.pl",
                "--facts", outdir / "facts.tsv",
                "--train", outdir / "train.tsv",
                "--epochs", "1", "--epsilon", "1e-3",
                "--params-out", params]) == 0
    assert len(load_params(params.read_text())) > 0


PAPERS = "num_papers must be even and >= 4"


@pytest.mark.parametrize("options,message", [
    (["--task", "citation", "--papers", "2"], PAPERS),
    (["--task", "citation", "--papers", "0"], PAPERS),
    (["--task", "citation", "--papers", "-2"], PAPERS),
    (["--task", "citation", "--papers", "5"], PAPERS),
    (["--task", "hyperlink", "--vocab", "-1"], "vocab_size must be >= 0"),
    (["--task", "hyperlink", "--queries", "-1"], "num_queries must be >= 0"),
], ids=["papers-2", "papers-0", "papers-negative", "papers-odd",
        "vocab-negative", "queries-negative"])
def test_synth_refuses_what_it_cannot_honour(tmp_path, capsys, options,
                                              message):
    # two papers would put their one pair in the test split and leave
    # train.tsv empty; a negative count has no meaning
    assert run(["synth", *options, "--out-dir", tmp_path / "d"]) == 1
    assert one_error_line(capsys).startswith(f"error\t{message}")
    assert not (tmp_path / "d" / "facts.tsv").exists()


@pytest.mark.parametrize("task,options,named", [
    ("citation", ["--vocab", "-1", "--entities", "1"], "--entities, --vocab"),
    ("citation", ["--entities", "8", "--degree", "2", "--vocab", "5",
                  "--queries", "3"], "--entities, --degree, --vocab, --queries"),
    ("hyperlink", ["--papers", "3"], "--papers"),
    ("hyperlink", ["--papers", "12"], "--papers"),
], ids=["citation-two", "citation-all", "hyperlink-bad", "hyperlink-default"])
def test_synth_refuses_the_other_tasks_options(tmp_path, capsys, task,
                                              options, named):
    # each generator reads its own task's options only; given, even at
    # their defaults, the other task's would change nothing
    assert run(["synth", "--task", task, *options,
                "--out-dir", tmp_path / "d"]) == 2
    assert one_error_line(capsys) == (
        f"error\tpprlog synth: the following arguments are not read with "
        f"--task {task}: {named} (see --help)\n")
    assert not (tmp_path / "d").exists()


def test_synth_smallest_accepted_inputs(tmp_path):
    assert run(["synth", "--task", "citation", "--papers", "4",
                "--out-dir", tmp_path / "c"]) == 0
    assert (tmp_path / "c" / "train.tsv").read_text().strip()
    assert (tmp_path / "c" / "test.tsv").read_text().strip()
    assert run(["synth", "--task", "hyperlink", "--vocab", "0",
                "--queries", "0", "--out-dir", tmp_path / "h"]) == 0
    assert "hasWord" not in (tmp_path / "h" / "facts.tsv").read_text()


def test_bad_rules_file_exits_nonzero(tmp_path, capsys):
    (tmp_path / "rules.pl").write_text("about(X :- broken")
    (tmp_path / "facts.tsv").write_text("links\ta\tb\n")
    (tmp_path / "q.txt").write_text("about(a,Z)\n")
    code = run(["answer", "--rules", tmp_path / "rules.pl",
                "--facts", tmp_path / "facts.tsv",
                "--queries", tmp_path / "q.txt"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error\t")


def test_bad_rules_line_names_the_file(workspace, capsys):
    (workspace / "rules.pl").write_text("p(X) :- q(X).\nabout(X :- broken")
    assert run(["answer", *common(workspace),
                "--queries", workspace / "queries.txt"]) == 1
    assert capsys.readouterr().err == (
        f"error\t{workspace / 'rules.pl'} line 2, column 9: "
        f"expected ')', found ':-'\n")


def test_arity_conflict_names_the_rules_file_and_atom(workspace, capsys):
    (workspace / "rules.pl").write_text("p(X) :- q(X).\n  p(X,Y) :- q(X).")
    assert run(["answer", *common(workspace),
                "--queries", workspace / "queries.txt"]) == 1
    assert capsys.readouterr().err == (
        f"error\t{workspace / 'rules.pl'} line 2, column 3: arity conflict "
        f"for p: used with 2 args but previously 1\n")


def test_bad_facts_line_names_the_file(workspace, capsys):
    (workspace / "facts.tsv").write_text("links\ta\tb\nlinks\ta\n")
    assert run(["answer", *common(workspace),
                "--queries", workspace / "queries.txt"]) == 1
    assert capsys.readouterr().err == (
        f"error\t{workspace / 'facts.tsv'} line 2: ragged arity for links: "
        f"got 1 args, expected 2\n")


def test_answer_reports_time_per_phase(workspace, capsys):
    assert run(["answer", *common(workspace),
                "--queries", workspace / "queries.txt"]) == 0
    times = {}
    for line in capsys.readouterr().err.splitlines():
        kind, phase, seconds = line.split("\t")
        assert kind == "time"
        times[phase] = float(seconds)
    assert set(times) == {"load", "grounding", "ppr"}
    assert all(t >= 0.0 for t in times.values())


def test_train_rejects_unlabelable_examples(workspace, capsys):
    (workspace / "bad.tsv").write_text("about(a,X)\t+about(a,nosuch)\n")
    code = run(["train", *common(workspace), "--train", workspace / "bad.tsv"])
    assert code == 2
    assert "usable" in capsys.readouterr().err


def test_ground_writes_quoted_feature_name(tmp_path):
    # the fact constant a)b makes the feature by('a)b'), whose quotes keep
    # a record from splitting it
    (tmp_path / "rules.pl").write_text("p(X,Y) :- q(X,Z), s(Z,Y).\n"
                                       "s(Z,Y) :- t(Z,Y) # by(Z), sim.")
    (tmp_path / "facts.tsv").write_text("q\tc\ta)b\nt\ta)b\td\n"
                                        "t\ta)b\te\n")
    (tmp_path / "train.tsv").write_text("p(c,Y)\t+p(c,d)\t-p(c,e)\n")
    ws = ["--rules", tmp_path / "rules.pl", "--facts", tmp_path / "facts.tsv",
          "--train", tmp_path / "train.tsv"]
    graphs, weights = tmp_path / "graphs.tsv", tmp_path / "w.tsv"
    assert run(["ground", *ws, "--out", graphs]) == 0
    assert "by('a)b')=" in graphs.read_text()
    assert run(["train", *ws, "--groundings", graphs,
                "--params-out", weights]) == 0
    assert "by('a)b')" in load_params(weights.read_text())


def test_ground_refuses_a_quoted_name_with_a_line_break(tmp_path, capsys):
    # the name would reach a record's sol line and split it in two
    rules = tmp_path / "rules.pl"
    rules.write_text("p(X,Y) :- q(X,Z), r(Z,Y).\nr(Z,'a\nb') :- true # f.\n")
    (tmp_path / "facts.tsv").write_text("q\tx\tz1\n")
    (tmp_path / "train.tsv").write_text("p(x,Y)\t+p(x,y)\n")
    out = tmp_path / "graphs.tsv"
    assert run(["ground", "--rules", rules, "--facts", tmp_path / "facts.tsv",
                "--train", tmp_path / "train.tsv", "--out", out]) == 1
    assert capsys.readouterr().err == (
        f"error\t{rules} line 2, column 5: a quoted name may not hold a tab "
        f"or a line break\n")
    assert not out.exists()


def test_ground_names_the_example_that_fails(tmp_path, capsys):
    # a record cannot stand for a failed grounding, so the run ends at
    # the failing example and writes none
    (tmp_path / "rules.pl").write_text("p(X,Y) :- q(X,Y) # f(Z).")
    (tmp_path / "facts.tsv").write_text("q\ta\tb\n")
    train = tmp_path / "train.tsv"
    train.write_text("r(a,Y)\t+r(a,b)\n\np(a,Y)\t+p(a,b)\n")
    out = tmp_path / "graphs.tsv"
    assert run(["ground", "--rules", tmp_path / "rules.pl", "--facts",
                tmp_path / "facts.tsv", "--train", train, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error\t{train} line 3: p(a,Y): non-ground "
                          f"feature f(")
    assert err.count("\n") == 1 and not out.exists()


def test_train_names_the_example_that_fails_to_ground(tmp_path, capsys):
    (tmp_path / "rules.pl").write_text("p(X,Y) :- q(X,Y) # f(Z).")
    (tmp_path / "facts.tsv").write_text("q\ta\tb\n")
    train = tmp_path / "train.tsv"
    train.write_text("r(a,Y)\t+r(a,b)\n\np(a,Y)\t+p(a,b)\n")
    out = tmp_path / "w.tsv"
    assert run(["train", "--rules", tmp_path / "rules.pl", "--facts",
                tmp_path / "facts.tsv", "--train", train,
                "--params-out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error\t{train} line 3: p(a,Y): non-ground "
                          f"feature f(")
    assert err.count("\n") == 1 and not out.exists()


def test_answer_reports_a_query_at_another_arity(workspace):
    (workspace / "queries.txt").write_text("about(a)\nhasWord(a)\n"
                                           "about(a,Z)\nmystery(a)\n")
    for exact in ([], ["--exact"]):
        out = workspace / "answers.tsv"
        assert run(["answer", *common(workspace), "--queries",
                    workspace / "queries.txt", *exact, "--out", out]) == 0
        blocks = read_answer_blocks(out)
        assert blocks["about(a)"] == [
            ["error", "about queried with arity 1, arity in rules is 2"]]
        assert blocks["hasWord(a)"] == [
            ["error", "hasWord queried with arity 1, stored arity is 2"]]
        assert len(blocks["about(a,Z)"]) == 2
        # a predicate known nowhere is an empty relation
        assert blocks["mystery(a)"] == []


@pytest.mark.parametrize("command", ["ground", "train"])
def test_ground_and_train_stop_at_a_query_at_another_arity(workspace, capsys,
                                                           command):
    train = workspace / "train.tsv"
    train.write_text("about(a,X)\t+about(a,fashion)\n"
                     "about(a)\t+about(a)\n")
    out = workspace / "out.tsv"
    target = ["--out", out] if command == "ground" else ["--params-out", out]
    assert run([command, *common(workspace), "--train", train,
                *target]) == 1
    err = capsys.readouterr().err
    assert err == (f"error\t{train} line 2: about(a): about queried with "
                   f"arity 1, arity in rules is 2\n")
    assert not out.exists()


@pytest.mark.parametrize("line,message", [
    ("badline", "line 2: expected name<TAB>weight, got 'badline'"),
    ("prop\tnan", "line 2: weight 'nan' of 'prop' is not a finite number"),
    ("prop\t-inf", "line 2: weight '-inf' of 'prop' is not a finite number"),
    ("prop\tx", "line 2: weight 'x' of 'prop' is not a finite number"),
], ids=["no-tab", "nan", "-inf", "not-a-number"])
def test_params_in_refuses_a_bad_line(workspace, capsys, line, message):
    weights = workspace / "w.tsv"
    weights.write_text(f"base\t1.5\n{line}\n")
    with pytest.raises(ValueError) as e:
        load_params(weights.read_text())
    assert str(e.value) == message
    for exact in ([], ["--exact"]):
        assert run(["answer", *common(workspace), "--queries",
                    workspace / "queries.txt", "--params-in", weights,
                    *exact]) == 1
        assert capsys.readouterr().err == f"error\t{weights} {message}\n"


def test_answer_rejects_negative_horizon(workspace, capsys):
    code = run(["answer", *common(workspace), "--queries",
                workspace / "queries.txt", "--exact", "--max-t", "-1"])
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith("error\t") and err.count("\n") == 1
    assert "max_T" in err


def test_answer_exact_reports_weight_overflow(tmp_path):
    (tmp_path / "rules.pl").write_text("p(X) :- q(X) # f.")
    (tmp_path / "facts.tsv").write_text("q\ta\n")
    (tmp_path / "queries.txt").write_text("p(Y)\n")
    (tmp_path / "w.tsv").write_text("f\t1e4\n")
    out = tmp_path / "answers.tsv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["answer", "--rules", tmp_path / "rules.pl",
                    "--facts", tmp_path / "facts.tsv",
                    "--queries", tmp_path / "queries.txt",
                    "--params-in", tmp_path / "w.tsv", "--weightfn", "exp",
                    "--exact", "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "query\tp(Y)"
    assert lines[1].startswith("error\tnonpositive or non-finite weight "
                               "on edge 0->1")
    assert len(lines) == 2


@pytest.mark.parametrize("args", [
    ["train", "--rules", "r.pl", "--facts", "f.tsv", "--train", "t.tsv",
     "--threads", "2"],
    ["answer", "--queries", "q.txt"],
    ["answer", "--rules", "r.pl", "--facts", "f.tsv", "--queries", "q.txt",
     "--seed", "1"],
    ["ground", "--rules", "r.pl", "--facts", "f.tsv", "--train", "t.tsv",
     "--max-t", "5"],
    ["train", "--rules", "r.pl", "--facts", "f.tsv", "--train", "t.tsv",
     "--out", "w.tsv"],
], ids=["unknown-flag", "missing-rules", "answer-seed", "ground-max-t",
        "train-out"])
def test_usage_error_is_one_error_line(args, capsys):
    with pytest.raises(SystemExit) as exit_:
        run(args)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error\t")
    assert err.count("\n") == 1


def test_every_flag_is_read(workspace):
    ws = workspace
    answers, graphs = ws / "answers.tsv", ws / "graphs.tsv"
    runs = [
        ["answer", *common(ws), "--queries", ws / "queries.txt",
         "--out", answers],
        ["answer", *common(ws), "--queries", ws / "queries.txt", "--exact",
         "--out", ws / "exact.tsv"],
        ["ground", *common(ws), "--train", ws / "train.tsv", "--out", graphs],
        ["train", *common(ws), "--train", ws / "train.tsv", "--epochs", "1",
         "--params-out", ws / "w1.tsv"],
        ["train", *common(ws), "--train", ws / "train.tsv", "--epochs", "1",
         "--groundings", graphs, "--params-out", ws / "w2.tsv"],
        ["eval", "--answers", answers, "--labels", ws / "train.tsv",
         "--out", ws / "scores.tsv"],
        ["synth", "--task", "hyperlink", "--entities", "8", "--queries", "2",
         "--out-dir", ws / "h"],
        ["synth", "--task", "citation", "--papers", "4", "--out-dir", ws / "c"],
    ]
    read: set[str] = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    declared: dict[str, set[str]] = {}
    used: dict[str, set[str]] = {}
    for argv in runs:
        args = build_parser().parse_args(list(map(str, argv)),
                                         namespace=Recording())
        read.clear()
        assert args.func(args) == 0, argv
        declared.setdefault(argv[0], set()).update(
            set(vars(args)) - {"command", "func"})
        used.setdefault(argv[0], set()).update(read)
    assert set(declared) == {"answer", "ground", "train", "eval", "synth"}
    unread = {cmd: sorted(declared[cmd] - used[cmd]) for cmd in declared}
    assert unread == {cmd: [] for cmd in declared}


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_:
        run(["train", "--help"])
    assert exit_.value.code == 0
    assert "--rules" in capsys.readouterr().out


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error\t") and err.count("\n") == 1
    return err


def test_train_refuses_label_without_sign(workspace, capsys):
    bad = workspace / "bad.tsv"
    bad.write_text("about(a,X)\t+about(a,fashion)\n"
                   "about(b,X)\t+about(b,fashion)\tabout(b,sport)\n")
    assert run(["train", *common(workspace), "--train", bad]) != 0
    err = one_error_line(capsys)
    assert str(bad) in err and "line 2" in err and "about(b,sport)" in err


def test_eval_refuses_answer_before_query(tmp_path, capsys):
    (tmp_path / "answers.tsv").write_text(
        "1\t0.4\tq(a,p1)\nquery\tq(a,X)\n2\t0.3\tq(a,n1)\n")
    (tmp_path / "labels.tsv").write_text("q(a,X)\t+q(a,p1)\t-q(a,n1)\n")
    assert run(["eval", "--answers", tmp_path / "answers.tsv",
                "--labels", tmp_path / "labels.tsv"]) != 0
    err = one_error_line(capsys)
    assert str(tmp_path / "answers.tsv") in err and "line 1" in err


def test_eval_refuses_empty_labels(tmp_path, capsys):
    (tmp_path / "answers.tsv").write_text("query\tq(a,X)\n1\t0.4\tq(a,p1)\n")
    (tmp_path / "labels.tsv").write_text("\n")
    assert run(["eval", "--answers", tmp_path / "answers.tsv",
                "--labels", tmp_path / "labels.tsv"]) != 0
    err = one_error_line(capsys)
    assert str(tmp_path / "labels.tsv") in err and "no examples" in err


@pytest.mark.parametrize("bad", ["1\t0.4", "1\tx\tq(a,n1)"])
def test_eval_refuses_bad_rank_line(tmp_path, capsys, bad):
    # too few fields, or a probability that is not a number
    (tmp_path / "answers.tsv").write_text(f"query\tq(a,X)\n1\t0.4\tq(a,p1)\n"
                                          f"{bad}\n")
    (tmp_path / "labels.tsv").write_text("q(a,X)\t+q(a,p1)\t-q(a,n1)\n")
    assert run(["eval", "--answers", tmp_path / "answers.tsv",
                "--labels", tmp_path / "labels.tsv"]) != 0
    err = one_error_line(capsys)
    assert f"{tmp_path / 'answers.tsv'} line 3: " in err


@pytest.mark.parametrize("bad,message", [
    ("1\tnan\tq(a,p1)", "probability 'nan' is not a finite number"),
    ("1\tinf\tq(a,p1)", "probability 'inf' is not a finite number"),
    ("1\t-inf\tq(a,p1)", "probability '-inf' is not a finite number"),
    ("foo\t0.4\tq(a,p1)", "rank 'foo' is not a positive integer"),
    ("0\t0.4\tq(a,p1)", "rank '0' is not a positive integer"),
    ("-1\t0.4\tq(a,p1)", "rank '-1' is not a positive integer"),
    ("1.5\t0.4\tq(a,p1)", "rank '1.5' is not a positive integer"),
], ids=["nan", "inf", "-inf", "word", "zero", "negative", "fraction"])
def test_eval_refuses_a_rank_line_it_would_misread(tmp_path, capsys, bad,
                                                   message):
    # a NaN-scored positive would lose to every negative and eval would
    # print its MAP and AUC as if the file were sound
    answers = tmp_path / "answers.tsv"
    answers.write_text(f"query\tq(a,X)\n{bad}\n2\t0.3\tq(a,n1)\n")
    (tmp_path / "labels.tsv").write_text("q(a,X)\t+q(a,p1)\t-q(a,n1)\n")
    out = tmp_path / "scores.tsv"
    assert run(["eval", "--answers", answers, "--labels",
                tmp_path / "labels.tsv", "--out", out]) == 1
    assert one_error_line(capsys) == f"error\t{answers} line 2: {message}\n"
    assert not out.exists()


def test_answer_refuses_unparsable_query(workspace, capsys):
    bad = workspace / "bad_queries.txt"
    bad.write_text("about(a,Z)\nabout(b,\n")
    assert run(["answer", *common(workspace), "--queries", bad]) != 0
    err = one_error_line(capsys)
    assert f"{bad} line 2: 'about(b,' column 9: " in err


def test_eval_refuses_unparsable_example_atom(tmp_path, capsys):
    (tmp_path / "answers.tsv").write_text("query\tq(a,X)\n1\t0.4\tq(a,p1)\n")
    (tmp_path / "labels.tsv").write_text("q(b,X)\t+q(b,p1)\n"
                                         "q(a,X\t+q(a,p1)\n")
    assert run(["eval", "--answers", tmp_path / "answers.tsv",
                "--labels", tmp_path / "labels.tsv"]) != 0
    err = one_error_line(capsys)
    assert f"{tmp_path / 'labels.tsv'} line 2: 'q(a,X' column 6: " in err
    assert "line 1" not in err
