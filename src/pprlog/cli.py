"""Command-line interface.

Subcommands:

* ``answer`` -- rank answers for each query (approximate by default,
  ``--exact`` for full grounding plus power iteration)
* ``ground`` -- write serialized grounded graphs for training queries
* ``train``  -- learn feature weights from labeled examples
* ``eval``   -- score an answer file against labeled examples
* ``synth``  -- generate synthetic hyperlink or citation datasets

All commands exit 0 on success; failures print a machine-parseable
``error<TAB>message`` line to stderr and exit nonzero.  Only ``answer``
records a query that fails in its output and goes on; ``ground`` and
``train`` end at the first example that fails to ground, naming the
examples file, the line and the query (``ground`` writes no records,
since ``train --groundings`` needs one record per example).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from .facts import FactError, load_facts
from .graph import deserialize, serialize
from .grounder import GroundingParams, approximate_ground, ground_full
from .inference import auc, average_precision, extract_answers, power_iterate
from .learner import (SgdConfig, TrainingExample, label_grounding,
                      train_on_groundings)
from .parser import ParseError, ProgramError, parse_atom, parse_program
from .weights import (WEIGHT_FNS, ParameterVector, left_sum, load_params,
                      save_params)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--rules", required=True, help="rules file")
    p.add_argument("--facts", required=True, help="TSV facts file")
    p.add_argument("--params-in", help="load learned weights (TSV)")
    p.add_argument("--alpha", type=float, default=0.2)
    p.add_argument("--alpha-prime", type=float, default=0.1)
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--weightfn", choices=sorted(WEIGHT_FNS), default="linear")


def _weighting(args):
    """The grounding parameters, weights and weighting function."""
    params = GroundingParams(args.alpha, args.alpha_prime, args.epsilon)
    w = (load_params(Path(args.params_in).read_text())
         if args.params_in else ParameterVector())
    return params, w, WEIGHT_FNS[args.weightfn]


def _setup(args):
    path = args.rules       # the file an input error names
    try:
        program = parse_program(Path(path).read_text())
        path = args.facts
        store = load_facts(Path(path).read_text())
    except (ParseError, ProgramError, FactError) as e:
        raise ValueError(f"{path} {e}") from None
    try:
        program.check_against_facts(store.predicates())
    except ProgramError as e:
        raise ValueError(f"{args.rules} and {args.facts}: {e}") from None
    return (program, store, *_weighting(args))


def _emit(path, text: str):
    """Write ``text`` to the file ``path``, or to stdout if it is None."""
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _atom(text: str, where: str):
    """``parse_atom(text)`` for a field of an input line ``where``."""
    try:
        return parse_atom(text)
    except ParseError as e:
        raise ValueError(f"{where}: {text!r} column {e.col}: {e.message}"
                         ) from None


def _read_queries(path: str):
    return [_atom(line.strip(), f"{path} line {lineno}") for lineno, line
            in enumerate(Path(path).read_text().splitlines(), 1)
            if line.strip() and not line.lstrip().startswith("%")]


def _read_examples(path: str):
    """The examples of a labeled examples file, each with its line number."""
    examples = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        where = f"{path} line {lineno}"
        query, *labels = line.split("\t")
        for f in labels:
            if f[:1] not in ("+", "-"):
                raise ValueError(f"{where}: label {f!r} does not start "
                                 f"with + or -")
        pos = tuple(repr(_atom(f[1:], where)) for f in labels if f[0] == "+")
        neg = tuple(repr(_atom(f[1:], where)) for f in labels if f[0] == "-")
        examples.append((lineno, TrainingExample(_atom(query, where), pos,
                                                 neg)))
    if not examples:
        raise ValueError(f"{path} has no examples")
    return examples


def cmd_answer(args) -> int:
    t0 = time.perf_counter()
    program, store, params, w, fn = _setup(args)
    t_load = time.perf_counter() - t0
    params = replace(params, max_T=args.max_t)
    queries = _read_queries(args.queries)
    out, t_ground, t_ppr = [], 0.0, 0.0
    for q in queries:
        try:
            if args.exact:
                t0 = time.perf_counter()
                g = ground_full(q, program, store, params)
                t_ground += time.perf_counter() - t0
                t0 = time.perf_counter()
                v = power_iterate(g, w, fn, params.max_T,
                                  alpha_prime=params.alpha_prime)
                t_ppr += time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                g, p, _ = approximate_ground(q, program, store, params, w, fn)
                t_ground += time.perf_counter() - t0
                v = [0.0] * g.num_nodes
                for nid, mass in p.items():
                    v[nid] = mass
            answers = extract_answers(g, v)
            out.append(f"query\t{q!r}")
            for rank, (answer, prob) in enumerate(answers, 1):
                out.append(f"{rank}\t{prob!r}\t{answer}")
        except Exception as e:  # per-query failures don't abort the run
            out.append(f"query\t{q!r}")
            out.append(f"error\t{e}")
    print(f"time\tload\t{t_load:.6f}", file=sys.stderr)
    print(f"time\tgrounding\t{t_ground:.6f}", file=sys.stderr)
    print(f"time\tppr\t{t_ppr:.6f}", file=sys.stderr)
    _emit(args.out, "\n".join(out) + "\n")
    return 0


def _ground_numbered(path, numbered, program, store, params, w, fn):
    """Ground and label each ``(lineno, example)`` of the examples file
    ``path``; the first that fails to ground ends the run, named by its
    file, line and query."""
    groundings = []
    for lineno, ex in numbered:
        try:
            g, _, _ = approximate_ground(ex.query, program, store, params, w,
                                         fn)
        except Exception as e:
            raise ValueError(f"{path} line {lineno}: {ex.query!r}: {e}"
                             ) from None
        groundings.append(label_grounding(ex, g))
    return groundings


def cmd_ground(args) -> int:
    program, store, params, w, fn = _setup(args)
    groundings = _ground_numbered(args.train, _read_examples(args.train),
                                  program, store, params, w, fn)
    for lg in groundings:
        if not (lg.pos_nodes or lg.neg_nodes):
            print(f"warning\tno labeled solutions for {lg.example.query!r}",
                  file=sys.stderr)
    _emit(args.out, "\n".join(serialize(lg.graph) for lg in groundings))
    return 0


def cmd_train(args) -> int:
    # records hold their groundings: no rules or facts are read for them
    if args.groundings:
        params, w, fn = _weighting(args)
    else:
        program, store, params, w, fn = _setup(args)
    numbered = _read_examples(args.train)
    examples = [ex for _, ex in numbered]
    cfg = SgdConfig(mu=args.mu, eta=args.eta, epochs=args.epochs,
                    loss=args.loss)
    if args.groundings:
        graphs = deserialize(Path(args.groundings).read_text())
        if len(graphs) != len(examples):
            print(f"error\t{args.groundings} holds {len(graphs)} groundings "
                  f"but {args.train} holds {len(examples)} examples",
                  file=sys.stderr)
            return 2
        for i, ((lineno, ex), g) in enumerate(zip(numbered, graphs), 1):
            if g.query != repr(ex.query):
                print(f"error\t{args.groundings} record {i}: query {g.query} "
                      f"does not match {args.train} line {lineno} "
                      f"{ex.query!r}", file=sys.stderr)
                return 2
        groundings = [label_grounding(ex, g)
                      for ex, g in zip(examples, graphs)]
    else:
        groundings = _ground_numbered(args.train, numbered, program, store,
                                      params, w, fn)
    usable = [lg for lg in groundings if lg.usable]
    if not usable:
        print("error\tno usable training examples "
              "(each needs a positive and a negative in its grounding)",
              file=sys.stderr)
        return 2
    result = train_on_groundings(groundings, cfg, args.seed,
                                 params.alpha_prime, fn)
    for epoch, loss in enumerate(result.epoch_losses, 1):
        print(f"epoch\t{epoch}\t{loss:.6f}", file=sys.stderr)
    if result.skipped_examples:
        print(f"skipped\t{result.skipped_examples}", file=sys.stderr)
    _emit(args.params_out, save_params(result.weights))
    return 0


def _read_answers(path: str):
    per_query: dict[str, dict[str, float]] = {}
    scores = None   # the current query's answers
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        kind, _, rest = line.partition("\t")
        if kind == "query":
            scores = per_query.setdefault(rest, {})
        elif kind == "error":
            continue
        elif scores is None:
            raise ValueError(f"{path} line {lineno}: an answer before any "
                             f"query line")
        else:
            try:
                prob, answer = rest.split("\t")
                scores[answer] = float(prob)
            except ValueError:
                raise ValueError(f"{path} line {lineno}: expected rank<TAB>"
                                 f"probability<TAB>answer") from None
    return per_query


def cmd_eval(args) -> int:
    per_query = _read_answers(args.answers)
    examples = [ex for _, ex in _read_examples(args.labels)]
    lines = []
    maps = []
    wins = pairs = 0.0
    for ex in examples:
        scores = per_query.get(repr(ex.query), {})
        relevant = set(ex.positives)
        universe = set(scores) | relevant | set(ex.negatives)
        ranked = sorted(universe, key=lambda a: (-scores.get(a, 0.0), a))
        ap = average_precision(ranked, relevant) if relevant else 0.0
        maps.append(ap)
        for p in ex.positives:
            for n in ex.negatives:
                sp, sn = scores.get(p, 0.0), scores.get(n, 0.0)
                wins += 1.0 if sp > sn else (0.5 if sp == sn else 0.0)
                pairs += 1
        try:
            q_auc = auc(scores, relevant, universe)
            lines.append(f"{ex.query!r}\t{ap:.6f}\t{q_auc:.6f}")
        except ValueError:
            lines.append(f"{ex.query!r}\t{ap:.6f}\tNA")
    global_auc = wins / pairs if pairs else float("nan")
    lines.append(f"summary\tMAP\t{left_sum(maps) / len(maps):.6f}")
    lines.append(f"summary\tAUC\t{global_auc:.6f}")
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_synth(args) -> int:
    from .synth import (CITATION_RULES, HYPERLINK_RULES, SyntheticDbSpec,
                        citation_corpus, hyperlink_db)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.task == "hyperlink":
        spec = SyntheticDbSpec(args.entities, args.degree, args.vocab,
                               args.seed)
        facts, queries = hyperlink_db(spec, num_queries=args.queries)
        (outdir / "rules.pl").write_text(HYPERLINK_RULES)
        (outdir / "facts.tsv").write_text(facts)
        (outdir / "queries.txt").write_text(queries)
    else:
        facts, train, test = citation_corpus(num_papers=args.papers,
                                             seed=args.seed)
        (outdir / "rules.pl").write_text(CITATION_RULES)
        (outdir / "facts.tsv").write_text(facts)
        (outdir / "train.tsv").write_text(train)
        (outdir / "test.tsv").write_text(test)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors print one ``error<TAB>message`` line and exit 2."""

    def error(self, message):
        self.exit(2, f"error\t{self.prog}: {message} (see --help)\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="pprlog", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("answer", help="rank answers for queries")
    _add_common(p)
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--max-t", type=int, default=100,
                   help="--exact: grounding depth and power iterations")
    p.add_argument("--queries", required=True)
    p.add_argument("--exact", action="store_true",
                   help="full grounding + power iteration")
    p.set_defaults(func=cmd_answer)

    p = sub.add_parser("ground", help="serialize grounded training graphs")
    _add_common(p)
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--train", required=True, help="labeled examples file")
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("train", help="learn feature weights")
    _add_common(p)
    p.add_argument("--train", required=True)
    p.add_argument("--groundings", help="reuse serialized groundings "
                   "(then --rules and --facts are not read)")
    p.add_argument("--params-out", help="weights file (default stdout)")
    p.add_argument("--seed", type=int, default=0,
                   help="initial weights and example order")
    p.add_argument("--mu", type=float, default=0.001)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--loss", choices=["squared", "log"], default="squared")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score answers against labels")
    p.add_argument("--answers", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate synthetic data")
    p.add_argument("--task", choices=["hyperlink", "citation"],
                   default="hyperlink")
    p.add_argument("--entities", type=int, default=64)
    p.add_argument("--degree", type=float, default=4.0)
    p.add_argument("--vocab", type=int, default=50)
    p.add_argument("--papers", type=int, default=12)
    p.add_argument("--queries", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as e:
        print(f"error\t{e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
