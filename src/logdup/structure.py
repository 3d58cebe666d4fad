"""SCC-level comparison: same recursive structure, similarity and
closeness, and extraction of the common-core generalization."""

from __future__ import annotations

import itertools
from fractions import Fraction

from .depgraph import SCC, ClauseSegments
from .metrics import Limits, anti_unify, goal_similarity, max_weight_matching
from .syntax import Atom, Clause, Goal, PredSymbol, Record, align


class ArgPermutation(Record):
    """Bijection on argument positions: old position i moves to
    ``mapping[i-1]`` (1-based), matching the append/concat example where
    pi = {1->2, 2->3, 3->1} sends append's first argument to concat's
    second position."""

    __slots__ = _fields = ("mapping",)

    def __init__(self, mapping: tuple):
        self.mapping = mapping  # tuple[int, ...], a permutation of 1..n

    def apply(self, args: tuple) -> tuple:
        out = [None] * len(args)
        for i, arg in enumerate(args):
            out[self.mapping[i] - 1] = arg
        return tuple(out)


class StructureWitness(Record):
    """A bijection between the clauses of two SCCs, as index pairs into
    SCC.clauses, with the predicate bijection it induces, an argument
    permutation per left predicate and a renaming per clause pair."""

    __slots__ = _fields = ("pairs", "pred_map", "arg_permutations", "renamings")

    def __init__(self, pairs: tuple, pred_map: tuple, arg_permutations: tuple,
                 renamings: tuple):
        self.pairs = pairs  # tuple[(left index, right index), ...]
        self.pred_map = pred_map  # tuple[(PredSymbol, PredSymbol), ...]
        self.arg_permutations = arg_permutations  # tuple[(PredSymbol, ArgPermutation), ...]
        self.renamings = renamings  # per clause pair: sorted tuple[(from, to), ...]


class SimilarityResult(Record):
    __slots__ = _fields = ("sigma", "closeness", "denominators", "witness",
                           "segment_alignments", "approximate")

    def __init__(self, sigma: int, closeness: tuple, denominators: tuple,
                 witness: StructureWitness, segment_alignments: tuple,
                 approximate: bool = False):
        self.sigma = sigma
        self.closeness = closeness  # (Fraction, Fraction)
        self.denominators = denominators  # (self-similarity of the left SCC, of the right)
        self.witness = witness
        self.segment_alignments = segment_alignments  # per clause pair: tuple[GoalAlignment, ...]
        self.approximate = approximate


# ---------------------------------------------------------------------------
# Witness machinery
# ---------------------------------------------------------------------------

def _arg_table(lseg: ClauseSegments, rseg: ClauseSegments) -> list | None:
    """Stage 1 of the witness search, shared by every combination: per
    head or recursive-call atom pair, the two predicates and, per (left
    position, right position), the ``align`` variable pairs of the two
    arguments, or None where they differ in more than variable names.
    None when the clauses have different numbers of recursive calls."""
    if len(lseg.recursive_calls) != len(rseg.recursive_calls):
        return None
    return [(la.pred, ra.pred, [[pairs if exact else None
                                 for _, pairs, exact in (align(x, y) for y in ra.args)]
                                for x in la.args])
            for la, ra in zip((lseg.head,) + lseg.recursive_calls,
                              (rseg.head,) + rseg.recursive_calls)]


def _table_rho(table: list, pred_map: dict, perms: dict) -> dict | None:
    """Stage 2: the consistent, injective renaming under which pi maps
    the left head and recursive calls of a clause pair onto the right
    ones, read from the pair's argument table; None when there is none."""
    rho: dict = {}
    for lpred, rpred, cells in table:
        if pred_map[lpred] != rpred:
            return None
        for row, m in zip(cells, perms[lpred].mapping):
            pairs = row[m - 1]
            if pairs is None:
                return None
            for x, y in pairs:
                if rho.setdefault(x, y) != y:
                    return None
    return rho if len(set(rho.values())) == len(rho) else None


def _combo_rhos(options: list, pred_map: dict, perms: dict) -> dict | None:
    """The renaming of each clause pair that a combination makes
    compatible, from ``options``: per left clause i, (i, [(j, argument
    table), ...]).  None as soon as a left clause has no compatible
    partner."""
    rhos = {}
    for i, row in options:
        before = len(rhos)
        for j, table in row:
            rho = _table_rho(table, pred_map, perms)
            if rho is not None:
                rhos[i, j] = rho
        if len(rhos) == before:
            return None
    return rhos


def _pred_bijections(s1: SCC, s2: SCC, cap: int):
    """Arity/clause-count-respecting bijections between member predicates,
    in deterministic order, from the first ``cap`` permutations of each group."""
    groups1, groups2 = {}, {}
    for scc, groups in ((s1, groups1), (s2, groups2)):
        for p in scc.members:
            groups.setdefault((p.arity, len(scc.clause_indices[p])), []).append(p)
    if {k: len(v) for k, v in groups1.items()} != {k: len(v) for k, v in groups2.items()}:
        return
    per_group = [[tuple(zip(groups1[k], perm))
                  for perm in itertools.islice(itertools.permutations(groups2[k]), cap)]
                 for k in sorted(groups1)]
    for combo in itertools.product(*per_group):
        yield {p: q for group in combo for p, q in group}


def _perm_combos(members, arity: int, cap: int):
    """Argument permutation combinations from the first ``cap`` permutations
    of each predicate; one above ``arity`` gets only the first, the identity."""
    spaces = [[ArgPermutation(p)
               for p in itertools.islice(itertools.permutations(range(1, q.arity + 1)),
                                         cap if q.arity <= arity else 1)]
              for q in members]
    for combo in itertools.product(*spaces):
        yield dict(zip(members, combo))


def _witness_combos(s1: SCC, s2: SCC, limits: Limits):
    """The (predicate bijection, argument permutations) combinations of two
    SCCs, in deterministic order, as ``(pred_map, perms, groups, rhos)``.
    ``groups`` holds, per member of s1, its clause indices and those of
    its image in s2; ``rhos`` maps each compatible clause pair (i, j) to
    its variable renaming, and is None when some clause of s1 has no
    compatible partner (the combination is dead).  Each list of the
    lexicographic product is cut at ``witness_cap + 1`` entries; its k-th
    combination takes at most the k-th entry of each list, so the first
    ``witness_cap + 1``, all that closeness reads, are unchanged."""
    cap = limits.witness_cap + 1
    tables: dict = {}  # (i, j) -> _arg_table of that clause pair
    for pred_map in _pred_bijections(s1, s2, cap):
        groups = [(left, s2.clause_indices[pred_map[q]]) for q, left in s1.clause_indices.items()]
        for left, right in groups:
            for i, j in itertools.product(left, right):
                if (i, j) not in tables:
                    tables[i, j] = _arg_table(s1.segmented[i], s2.segmented[j])
        options = [(i, [(j, tables[i, j]) for j in right if tables[i, j] is not None])
                   for left, right in groups for i in left]
        for perms in _perm_combos(s1.members, limits.arity, cap):
            yield pred_map, perms, groups, _combo_rhos(options, pred_map, perms)


def _witness(s1: SCC, pred_map: dict, perms: dict, mapping):
    """The witness of a clause mapping given as (i, j, rho) triples sorted
    by i."""
    return StructureWitness(
        tuple((i, j) for i, j, _ in mapping),
        tuple(sorted((q, pred_map[q]) for q in s1.members)),
        tuple(sorted(perms.items())),
        tuple(tuple(sorted(rho.items())) for _, _, rho in mapping),
    )


def validate_witness(s1: SCC, s2: SCC, w: StructureWitness) -> bool:
    """Check that pi maps the head and recursive calls of every mapped
    left clause onto the right ones under the witness's renaming of the
    pair, one that is injective; a variable the renaming leaves out maps
    to itself."""
    pred_map = dict(w.pred_map)
    perms = dict(w.arg_permutations)
    for (i, j), renaming in zip(w.pairs, w.renamings):
        table = _arg_table(s1.segmented[i], s2.segmented[j])
        if table is None or any(p not in pred_map or p not in perms for p, _, _ in table):
            return False
        rho = _table_rho(table, pred_map, perms)
        renaming = dict(renaming)
        if rho is None or any(renaming.get(x, x) != y for x, y in rho.items()):
            return False
    return True


# ---------------------------------------------------------------------------
# Similarity and closeness
# ---------------------------------------------------------------------------

# The Definition-9 contribution of a mapped clause pair is the clause
# neck, the strict commonality of the heads and of the recursive calls
# under the witness, and the similarity of each segment pair.  A witness
# maps the left head and recursive calls onto the right ones exactly, so
# their strict commonality is the node total of the right ones whatever
# the witness: the whole contribution depends on the two clauses alone,
# and closeness computes it once per clause pair.

def _pair_key(lshape: tuple, rshape: tuple) -> tuple:
    """The memo key of a segment pair from the ``shape`` of each
    side: both shapes and the constants of both sides numbered jointly by
    first occurrence.  Two pairs with one key differ by a bijective
    renaming of constants, which keeps every equality between them."""
    constants = lshape[1] + rshape[1]
    ids = dict(zip(dict.fromkeys(constants), itertools.count()))
    return lshape[0], rshape[0], tuple(map(ids.__getitem__, constants))


def _clause_pair_score(lseg: ClauseSegments, rseg: ClauseSegments, limits: Limits,
                       memo: dict):
    """The Definition-9 contribution of a clause pair mapped by some
    witness, with the segment alignments that realize it and whether any
    of them is approximate.

    ``memo`` maps the ``_pair_key`` of a segment pair to its alignment
    under ``limits``.
    ``goal_similarity`` sees constants only through equality, predicates
    through equality and order, variables by name and atoms by index, all
    of which the key keeps, so pairs with one key have one alignment.
    Only pairs that search an atom pairing, where a predicate occurs more
    than once on both sides, are worth a key."""
    score = rseg.matched_nodes
    alignments = []
    approximate = False
    for k, (lq, rq) in enumerate(zip(lseg.segments, rseg.segments)):
        if not lseg.repeated_preds[k].isdisjoint(rseg.repeated_preds[k]):
            key = _pair_key(lseg.shapes[k], rseg.shapes[k])
            align = memo.get(key)
            if align is None:
                align = memo[key] = goal_similarity(lq, rq, limits)
        else:
            align = goal_similarity(lq, rq, limits)
        score += align.value
        alignments.append(align)
        approximate = approximate or align.approximate
    return score, tuple(alignments), approximate


def scc_similarity(s1: SCC, s2: SCC, w: StructureWitness, limits: Limits = Limits()) -> int:
    """Similarity sigma([p],[p'],phi) for a given witness."""
    if not validate_witness(s1, s2, w):
        raise ValueError("invalid structure witness")
    memo: dict = {}
    return sum(_clause_pair_score(s1.segmented[i], s2.segmented[j], limits, memo)[0]
               for i, j in w.pairs)


def self_similarity(s: SCC) -> int:
    """The closeness denominator N_[s]: sigma(s, s) under the identity
    witness, which matches every node of every clause.  A segment's
    commonality with any goal is at most its node total, so no witness
    matches more, and closeness is (1,1) for duplicates by construction."""
    return sum(seg.matched_nodes + seg.segment_nodes for seg in s.segmented)


def closeness(s1: SCC, s2: SCC, limits: Limits = Limits(),
              memo: dict | None = None) -> SimilarityResult | None:
    """Closeness gamma: sigma maximized over witnesses, divided by each
    side's self-similarity.  None when no structure witness exists.

    ``memo`` lets the calls of one run share their segment-pair searches:
    it maps each ``Limits`` to the alignments found under it, by
    ``_pair_key``, so a call never reads a search made under other limits.
    Left as None, the searches are shared within this call only.

    Instead of enumerating clause bijections one by one, each (predicate
    bijection, argument permutation) combination is scored with a
    max-weight assignment over compatible clause pairs, which maximizes
    sigma exactly in polynomial time per combination.  The result is
    approximate when argument permutations were skipped above
    ``limits.arity``, the witness cap cut the enumeration or the best
    combination's segment alignments are greedy."""
    best = None
    # every combination skips the same permutations
    approximate = any(q.arity > limits.arity for q in s1.members)
    scores: dict = {}  # (i, j) -> _clause_pair_score of that clause pair
    # _pair_key -> alignment of a segment pair, under these limits
    memo = {} if memo is None else memo.setdefault(limits, {})
    combos = _witness_combos(s1, s2, limits)
    for pred_map, perms, groups, rhos in itertools.islice(combos, limits.witness_cap):
        if rhos is None:
            continue
        for i, j in rhos:
            if (i, j) not in scores:
                scores[i, j] = _clause_pair_score(s1.segmented[i], s2.segmented[j], limits,
                                                   memo)
        total = 0
        mapping = []
        for left, right in groups:
            matching = max_weight_matching(
                [[scores[i, j][0] if (i, j) in rhos else -1 for j in right] for i in left])
            if matching is None:
                break
            for a, b in matching:
                i, j = left[a], right[b]
                total += scores[i, j][0]
                mapping.append((i, j, rhos[i, j]))
        else:
            if best is None or total > best[0]:
                best = (total, pred_map, perms, sorted(mapping, key=lambda m: m[0]))
    approximate = approximate or next(combos, None) is not None

    if best is None:
        return None
    total, pred_map, perms, mapping = best
    approximate = approximate or any(scores[i, j][2] for i, j, _ in mapping)
    n1 = self_similarity(s1)
    n2 = self_similarity(s2)
    gamma = (Fraction(total, n1) if n1 else Fraction(0),
             Fraction(total, n2) if n2 else Fraction(0))
    return SimilarityResult(total, gamma, (n1, n2), _witness(s1, pred_map, perms, mapping),
                            tuple(scores[i, j][1] for i, j, _ in mapping),
                            approximate=approximate)


# ---------------------------------------------------------------------------
# Common-core extraction
# ---------------------------------------------------------------------------

def common_core(s1: SCC, s2: SCC, result: SimilarityResult) -> tuple:
    """Generalize every mapped clause pair into a fresh common-core
    predicate definition: heads and recursive calls are kept (renamed to
    fresh predicates), and only the sigma-aligned atoms of each segment
    survive, anti-unified pairwise."""
    if result.approximate:
        raise ValueError("refusing to extract a common core from an approximate result")
    pred_map = dict(result.witness.pred_map)
    fresh = {pred_map[q]: PredSymbol(f"core_{q.name}_{pred_map[q].name}", q.arity)
             for q in s1.members}

    clauses = []
    for (i, j), aligns in zip(result.witness.pairs, result.segment_alignments):
        lseg, rseg = s1.segmented[i], s2.segmented[j]
        generalized: dict = {}
        body_atoms = []
        for si, (lq, rq, seg_align) in enumerate(zip(lseg.segments, rseg.segments, aligns)):
            kept = []
            for (_, ri), (la, ra) in zip(seg_align.atom_pairing, seg_align.renamed_pairs(lq, rq)):
                args = tuple(anti_unify(x, y, "G", generalized) for x, y in zip(la.args, ra.args))
                kept.append((ri, Atom(ra.pred, args)))
            body_atoms.extend(atom for _, atom in sorted(kept, key=lambda kv: kv[0]))
            if si < len(rseg.recursive_calls):
                rcall = rseg.recursive_calls[si]
                body_atoms.append(Atom(fresh[rcall.pred], rcall.args))
        head = Atom(fresh[rseg.head.pred], rseg.head.args)
        clauses.append(Clause(head, Goal(tuple(body_atoms)), s2.clauses[j].origin))
    return tuple(clauses)
