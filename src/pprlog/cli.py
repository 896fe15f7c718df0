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
import math
import sys
import time
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


def _add_common(p: argparse.ArgumentParser, required: bool = True):
    p.add_argument("--rules", required=required, help="rules file")
    p.add_argument("--facts", required=required, help="TSV facts file")
    p.add_argument("--params-in", help="load learned weights (TSV)")
    # these, when not given, keep GroundingParams's defaults
    p.add_argument("--alpha", type=float)
    p.add_argument("--alpha-prime", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--weightfn", choices=sorted(WEIGHT_FNS), default="linear")


class _Refused(Exception):
    """A run refused before it starts: ``main`` prints it as one
    ``error<TAB>message`` line and exits 2."""


def _misused(args) -> tuple[str, list[str]]:
    """(why, options): the options given that the run would not read, or
    the ones it needs and lacks; no options if there are none."""
    def given(*options: str) -> list[str]:
        return [o for o in options
                if getattr(args, o[2:].replace("-", "_")) is not None]
    if args.command == "answer" and not args.exact:
        return "not read without --exact", given("--max-t")
    if args.command == "synth":
        return f"not read with --task {args.task}", given(*(
            ("--papers",) if args.task == "hyperlink" else
            ("--entities", "--degree", "--vocab", "--queries")))
    if args.command != "train":
        return "", []
    if args.groundings:     # the records hold what these options shape
        return "not read with --groundings", given("--params-in", "--alpha",
                                                   "--epsilon")
    return "required without --groundings", [
        o for o in ("--rules", "--facts") if not given(o)]


def _given(**values) -> dict:
    """The ``values`` of the options given: the library's defaults hold
    for the ones left out."""
    return {key: value for key, value in values.items() if value is not None}


def _weighting(args):
    """The grounding parameters, weights and weighting function."""
    params = GroundingParams(**_given(
        alpha=args.alpha, alpha_prime=args.alpha_prime, epsilon=args.epsilon,
        max_T=getattr(args, "max_t", None)))
    w = ParameterVector()
    if args.params_in:
        try:
            w = load_params(Path(args.params_in).read_text())
        except ValueError as e:
            raise ValueError(f"{args.params_in} {e}") from None
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
                v = [p.get(nid, 0.0) for nid in range(g.num_nodes)]
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


def _ground_examples(args):
    """(groundings, params, fn): each example of the examples file
    ``args.train`` grounded from the rules and facts, and labeled.  The
    first that fails to ground ends the run, named by its file, line and
    query."""
    program, store, params, w, fn = _setup(args)
    groundings = []
    for lineno, ex in _read_examples(args.train):
        try:
            g, _, _ = approximate_ground(ex.query, program, store, params, w,
                                         fn)
        except Exception as e:
            raise ValueError(f"{args.train} line {lineno}: {ex.query!r}: {e}"
                             ) from None
        groundings.append(label_grounding(ex, g))
    return groundings, params, fn


def cmd_ground(args) -> int:
    groundings, _, _ = _ground_examples(args)
    for lg in groundings:
        if not (lg.pos_nodes or lg.neg_nodes):
            print(f"warning\tno labeled solutions for {lg.example.query!r}",
                  file=sys.stderr)
    _emit(args.out, "\n".join(serialize(lg.graph) for lg in groundings))
    return 0


def cmd_train(args) -> int:
    cfg = SgdConfig(**_given(mu=args.mu, eta=args.eta, epochs=args.epochs,
                             loss=args.loss))
    if args.groundings:
        # records hold their groundings: no rules or facts are read for them
        params, w, fn = _weighting(args)
        numbered = _read_examples(args.train)
        graphs = deserialize(Path(args.groundings).read_text())
        if len(graphs) != len(numbered):
            raise _Refused(f"{args.groundings} holds {len(graphs)} groundings "
                           f"but {args.train} holds {len(numbered)} examples")
        for i, ((lineno, ex), g) in enumerate(zip(numbered, graphs), 1):
            if g.query != repr(ex.query):
                raise _Refused(f"{args.groundings} record {i}: query "
                               f"{g.query} does not match {args.train} line "
                               f"{lineno} {ex.query!r}")
        groundings = [label_grounding(ex, g)
                      for (_, ex), g in zip(numbered, graphs)]
    else:
        groundings, params, fn = _ground_examples(args)
    if not any(lg.usable for lg in groundings):
        raise _Refused("no usable training examples "
                       "(each needs a positive and a negative in its grounding)")
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
        kind, _, rest = line.partition("\t")
        if kind == "query":
            scores = per_query.setdefault(rest, {})
        elif kind == "error" or not line.strip():
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
            if not (kind.isdecimal() and int(kind) > 0):
                raise ValueError(f"{path} line {lineno}: rank {kind!r} is "
                                 f"not a positive integer")
            if not math.isfinite(scores[answer]):
                raise ValueError(f"{path} line {lineno}: probability "
                                 f"{prob!r} is not a finite number")
    return per_query


def cmd_eval(args) -> int:
    per_query = _read_answers(args.answers)
    lines = []
    maps = []
    wins = pairs = 0.0
    for _, ex in _read_examples(args.labels):
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
    if args.task == "hyperlink":
        spec = SyntheticDbSpec(seed=args.seed, **_given(
            entity_count=args.entities, link_density=args.degree,
            vocab_size=args.vocab))
        facts, queries = hyperlink_db(spec, **_given(num_queries=args.queries))
        files = {"rules.pl": HYPERLINK_RULES, "queries.txt": queries}
    else:
        facts, train, test = citation_corpus(seed=args.seed, **_given(
            num_papers=args.papers))
        files = {"rules.pl": CITATION_RULES, "train.tsv": train,
                 "test.tsv": test}
    # nothing is written unless all the data could be made
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in {**files, "facts.tsv": facts}.items():
        (outdir / name).write_text(text)
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
    p.add_argument("--max-t", type=int, help="--exact: grounding depth and "
                   "power iterations (default 100)")
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
    _add_common(p, required=False)
    p.add_argument("--train", required=True)
    p.add_argument("--groundings", help="reuse serialized groundings "
                   "(then --rules and --facts are not read)")
    p.add_argument("--params-out", help="weights file (default stdout)")
    p.add_argument("--seed", type=int, default=0,
                   help="initial weights and example order")
    # these, when not given, keep SgdConfig's defaults
    p.add_argument("--mu", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--loss", choices=["squared", "log"])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score answers against labels")
    p.add_argument("--answers", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate synthetic data")
    p.add_argument("--task", choices=["hyperlink", "citation"],
                   default="hyperlink")
    # these keep the generators' defaults where not given
    p.add_argument("--entities", type=int, help="hyperlink (default 64)")
    p.add_argument("--degree", type=float, help="hyperlink (default 4.0)")
    p.add_argument("--vocab", type=int, help="hyperlink (default 50)")
    p.add_argument("--papers", type=int, help="citation (default 12)")
    p.add_argument("--queries", type=int, help="hyperlink (default 16)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        why, options = _misused(args)
        if options:
            raise _Refused(f"pprlog {args.command}: the following arguments "
                           f"are {why}: {', '.join(options)} (see --help)")
        return args.func(args)
    except Exception as e:
        print(f"error\t{e}", file=sys.stderr)
        return 2 if isinstance(e, _Refused) else 1


if __name__ == "__main__":
    sys.exit(main())
