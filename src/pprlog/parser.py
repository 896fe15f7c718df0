"""Parser for feature-annotated rule files.

Grammar (one clause per '.', '%' comments):

    clause      := atom ( ":-" atomlist )? ( "#" featurelist )? "."
    atomlist    := atom ("," atom)* | "true"
    featurelist := atom ("," atom)*

Variables are uppercase-initial identifiers (or "_"-initial); constants are
lowercase-initial identifiers, numbers, or single-quoted strings in which
a backslash escapes the next character (``'it\\'s'`` is ``it's``) and
which hold no tab and no line break.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .terms import Atom, Const, Term, Var


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class ProgramError(Exception):
    """Load-time consistency violation (arity conflict, rule/fact overlap)."""


@dataclass(frozen=True)
class Clause:
    head: Atom
    body: tuple[Atom, ...]
    features: tuple[Atom, ...]
    id: str

    def atoms(self):
        return (self.head, *self.body)

    def __repr__(self):
        s = repr(self.head)
        if self.body:
            s += " :- " + ",".join(map(repr, self.body))
        elif self.features:
            s += " :- true"
        if self.features:
            s += " # " + ",".join(map(repr, self.features))
        return s + "."


@dataclass
class Program:
    clauses: list[Clause] = field(default_factory=list)
    by_pred: dict[str, list[Clause]] = field(default_factory=dict)
    arities: dict[str, int] = field(default_factory=dict)

    def check_against_facts(self, fact_predicates: dict[str, int]):
        """Reject predicates defined both by rules and by facts, and
        arity conflicts between the two."""
        for pred, arity in fact_predicates.items():
            if pred in self.by_pred:
                raise ProgramError(
                    f"predicate {pred}/{arity} is defined both by rules "
                    f"and by database facts")
            if pred in self.arities and self.arities[pred] != arity:
                raise ProgramError(
                    f"arity conflict for {pred}: {self.arities[pred]} in "
                    f"rules vs {arity} in facts")


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<punct>:-|[().,#])
  | (?P<quoted>'(?:[^'\\]|\\.)*')
  | (?P<name>[A-Za-z0-9_][A-Za-z0-9_-]*)
""", re.VERBOSE | re.DOTALL)


class _Tokenizer:
    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens: list[tuple[str, str, int, int]] = []
        self._scan()
        self.idx = 0

    def _scan(self):
        while self.pos < len(self.source):
            m = _TOKEN_RE.match(self.source, self.pos)
            if not m:
                raise ParseError(f"unexpected character {self.source[self.pos]!r}",
                                 self.line, self.col)
            text = m.group(0)
            kind = m.lastgroup
            # every file a name reaches splits its fields at tabs and
            # its records at line boundaries
            if kind == "quoted" and ("\t" in text
                                     or len(text.splitlines()) > 1):
                raise ParseError("a quoted name may not hold a tab or a "
                                 "line break", self.line, self.col)
            if kind not in ("ws", "comment"):
                self.tokens.append((kind, text, self.line, self.col))
            nl = text.count("\n")
            if nl:
                self.line += nl
                self.col = len(text) - text.rfind("\n")
            else:
                self.col += len(text)
            self.pos = m.end()
        self.tokens.append(("eof", "", self.line, self.col))

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        if tok[0] != "eof":
            self.idx += 1
        return tok

    def expect(self, text: str):
        kind, tok, line, col = self.next()
        if tok != text:
            raise ParseError(f"expected {text!r}, found {tok or 'end of input'!r}",
                             line, col)


def _unquote(text: str) -> str:
    return re.sub(r"\\(.)", r"\1", text[1:-1], flags=re.S)


class _ClauseParser:
    def __init__(self, tok: _Tokenizer):
        self.tok = tok
        self.vars: dict[str, Var] = {}
        self.next_var = 0
        self.places: list[tuple[int, int]] = []   # each atom's line, column

    def _term(self) -> Term:
        kind, text, line, col = self.tok.next()
        if kind == "quoted":
            return Const(_unquote(text))
        if kind != "name":
            raise ParseError(f"expected a term, found {text!r}", line, col)
        if text[0].isupper() or text[0] == "_":
            if text not in self.vars:
                self.vars[text] = Var(self.next_var, text)
                self.next_var += 1
            return self.vars[text]
        return Const(text)

    def atom(self) -> Atom:
        kind, text, line, col = self.tok.next()
        self.places.append((line, col))
        if kind == "quoted":
            pred = _unquote(text)
        elif kind == "name" and not (text[0].isupper() or text[0] == "_"):
            pred = text
        else:
            raise ParseError(f"expected a predicate symbol, found {text!r}",
                             line, col)
        args: list[Term] = []
        if self.tok.peek()[1] == "(":
            self.tok.next()
            args.append(self._term())
            while self.tok.peek()[1] == ",":
                self.tok.next()
                args.append(self._term())
            self.tok.expect(")")
        return Atom(pred, tuple(args))

    def atomlist(self) -> list[Atom]:
        atoms = [self.atom()]
        while self.tok.peek()[1] == ",":
            self.tok.next()
            atoms.append(self.atom())
        return atoms

    def clause(self, clause_id: str) -> Clause:
        head = self.atom()
        body: list[Atom] = []
        features: list[Atom] = []
        if self.tok.peek()[1] == ":-":
            self.tok.next()
            body = self.atomlist()
            # "true" as the sole body literal means an empty body.
            if len(body) == 1 and body[0] == Atom("true"):
                body = []
        if self.tok.peek()[1] == "#":
            self.tok.next()
            features = self.atomlist()
        self.tok.expect(".")
        if not features:
            features = [Atom("id", (Const(clause_id),))]
        return Clause(head, tuple(body), tuple(features), clause_id)


def parse_atom(text: str) -> Atom:
    """Parse a single atom, e.g. a query from the command line."""
    tok = _Tokenizer(text)
    atom = _ClauseParser(tok).atom()
    kind, t, line, col = tok.peek()
    if kind != "eof" and t != ".":
        raise ParseError(f"trailing input {t!r}", line, col)
    return atom


def parse_program(source: str) -> Program:
    """Parse a rules file into a Program, validating arities."""
    tok = _Tokenizer(source)
    prog = Program()
    n = 0
    while tok.peek()[0] != "eof":
        n += 1
        parser = _ClauseParser(tok)
        clause = parser.clause(f"c{n}")
        # the head and body atoms were parsed first: a body of "true"
        # alone is empty, and the features come after it
        for atom, (line, col) in zip(clause.atoms(), parser.places):
            known = prog.arities.setdefault(atom.pred, atom.arity)
            if known != atom.arity:
                raise ProgramError(
                    f"line {line}, column {col}: arity conflict for "
                    f"{atom.pred}: used with {atom.arity} args but "
                    f"previously {known}")
        prog.clauses.append(clause)
        prog.by_pred.setdefault(clause.head.pred, []).append(clause)
    return prog
