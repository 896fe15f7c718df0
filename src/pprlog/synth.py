"""Synthetic datasets: a hyperlink database for scalability runs and a
citation-matching corpus for training experiments.

Both generators are fully determined by their spec (including the seed)
and write the same TSV facts / query / example formats the CLI consumes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

HYPERLINK_RULES = """\
about(X,Z) :- handLabeled(X,Z)    # base.
about(X,Z) :- sim(X,Y),about(Y,Z)   # prop.
sim(X,Y) :- links(X,Y)              # sim,link.
sim(X,Y) :- hasWord(X,W),hasWord(Y,W),linkedBy(X,Y,W) # sim,word.
linkedBy(X,Y,W) :- true             # by(W).
"""

CITATION_RULES = """\
samebib(BC1,BC2) :- author(BC1,A1),sameauthor(A1,A2),authorinverse(A2,BC2) # author.
samebib(BC1,BC2) :- title(BC1,A1),sametitle(A1,A2),titleinverse(A2,BC2) # title.
samebib(BC1,BC2) :- venue(BC1,A1),samevenue(A1,A2),venueinverse(A2,BC2) # venue.
samebib(BC1,BC2) :- samebib(BC1,BC3),samebib(BC3,BC2) # tcbib.
sameauthor(A1,A2) :- haswordauthor(A1,W),haswordauthorinverse(W,A2),keyauthorword(W) # authorword.
sameauthor(A1,A2) :- sameauthor(A1,A3),sameauthor(A3,A2) # tcauthor.
sametitle(A1,A2) :- sametitle(A1,A3),sametitle(A3,A2) # tctitle.
samevenue(A1,A2) :- samevenue(A1,A3),samevenue(A3,A2) # tcvenue.
sametitle(A1,A2) :- haswordtitle(A1,W),haswordtitleinverse(W,A2),keytitleword(W) # titleword.
samevenue(A1,A2) :- haswordvenue(A1,W),haswordvenueinverse(W,A2),keyvenueword(W) # venueword.
keyauthorword(W) :- true # authorWord(W).
keytitleword(W) :- true # titleWord(W).
keyvenueword(W) :- true # venueWord(W).
"""

# hyperlink_db: words per document, and the chance a document is labeled
WORDS_PER_DOC = 3
LABELED_FRACTION = 0.25
# citation_corpus: key words per field of a paper, the decoy words of each
# field to draw from, and the share of partner pairs put in the test split
KEY_WORDS = 1
DECOY_POOL = 3
TEST_FRACTION = 0.34


@dataclass(frozen=True)
class SyntheticDbSpec:
    entity_count: int = 64
    link_density: float = 4.0   # fixed per-entity out-degree
    vocab_size: int = 50
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.link_density):
            raise ValueError("link_density must be finite")
        for name, low in (("entity_count", 2), ("link_density", 1),
                          ("vocab_size", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")


def hyperlink_db(spec: SyntheticDbSpec, num_queries: int = 16):
    """Facts and query lines for a hyperlink-style database.

    Per-entity out-degree and words-per-document are fixed, so local
    neighborhoods do not grow with entity_count.
    """
    if num_queries < 0:
        raise ValueError("num_queries must be >= 0")
    rng = random.Random(spec.seed)
    n = spec.entity_count
    degree = int(round(spec.link_density))
    docs = [f"d{i}" for i in range(n)]
    labels = ("sport", "fashion")
    lines = []
    for i, d in enumerate(docs):
        others = [docs[j] for j in rng.sample(range(n), min(degree + 1, n))
                  if j != i][:degree]
        for o in others:
            lines.append(f"links\t{d}\t{o}")
        for wid in rng.sample(range(spec.vocab_size),
                              min(WORDS_PER_DOC, spec.vocab_size)):
            lines.append(f"hasWord\t{d}\tw{wid}")
        if rng.random() < LABELED_FRACTION:
            lines.append(f"handLabeled\t{d}\t{rng.choice(labels)}")
    queries = [f"about({d},Z)"
               for d in rng.sample(docs, min(num_queries, n))]
    return "\n".join(lines) + "\n", "\n".join(queries) + "\n"


def citation_corpus(num_papers: int = 12, decoys_per_field: int = 2,
                    seed: int = 0):
    """A citation-matching corpus: facts plus train/test example lines.

    Papers come in partner pairs.  Each paper has two citations; the
    pair of citations shares the paper's key author word, and only that
    (the second citation's title and venue words are unique to it).  The
    first citation of each paper additionally carries decoy words in all
    three fields, drawn from a small global pool and shared with the
    partner paper's first citation.  With unit weights the three fields
    of decoy paths outweigh the single key-word path, so the partner's
    citation outranks the true match; learning has to downweight the
    (globally reused, hence transferable) decoy-word features.
    """
    if num_papers % 2 or num_papers < 4:
        raise ValueError("num_papers must be even and >= 4 (one pair per split)")
    rng = random.Random(seed)
    facts = []
    fields = ("author", "title", "venue")
    paper_cites: dict[int, list[str]] = {}
    pair_decoys = {}
    for pair in range(num_papers // 2):
        pair_decoys[pair] = {
            f: [f"{f}decoy{j}" for j in rng.sample(range(DECOY_POOL),
                                                   decoys_per_field)]
            for f in fields}
    for p in range(num_papers):
        key = {f: [f"{f}k{p}_{i}" for i in range(KEY_WORDS)] for f in fields}
        for c in range(2):
            bc = f"bc{p}_{c}"
            paper_cites.setdefault(p, []).append(bc)
            for f in fields:
                ent = f"{f[0]}_{bc}"
                facts.append(f"{f}\t{bc}\t{ent}")
                facts.append(f"{f}inverse\t{ent}\t{bc}")
                if c == 0:
                    words = key[f] + pair_decoys[p // 2][f]
                elif f == "author":
                    words = list(key[f])  # the only overlap with c0
                else:
                    words = [f"{f}u{p}_{i}" for i in range(KEY_WORDS)]
                for wrd in words:
                    facts.append(f"hasword{f}\t{ent}\t{wrd}")
                    facts.append(f"hasword{f}inverse\t{wrd}\t{ent}")

    pairs = list(range(num_papers // 2))
    test_pairs = set(rng.sample(pairs,
                                max(1, int(len(pairs) * TEST_FRACTION))))
    train_lines, test_lines = [], []
    for p, cites in paper_cites.items():
        partner = [bc for bc in paper_cites[p ^ 1]]
        other = [bc for q, cs in paper_cites.items()
                 if q != p and q != p ^ 1 for bc in cs]
        for bc in cites:
            pos = [b for b in cites if b != bc]
            neg = partner + rng.sample(other, min(len(other), 2))
            line = "\t".join([f"samebib({bc},X)"]
                             + [f"+samebib({bc},{b})" for b in pos]
                             + [f"-samebib({bc},{b})" for b in neg])
            (test_lines if p // 2 in test_pairs else train_lines).append(line)
    return ("\n".join(facts) + "\n",
            "\n".join(train_lines) + "\n",
            "\n".join(test_lines) + "\n")
