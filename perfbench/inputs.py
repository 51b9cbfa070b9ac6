"""Seeded inputs for the three workloads, with reference answers.

Every input comes with the answer it must get, and no answer is
computed by lambrack: request goals are instances of sequent schemas
whose provability is known from the logic, and parse strings are
decided by plain predicates for the languages the bundled grammar
files document.  The seed picks atoms, type shapes, partitions,
strings and the order of each round; what a round holds (kinds, sizes,
calculi) is fixed, so every seed asks for the same amount of work.
"""

import random

# Sequent text is built here as strings, so that parsing stays inside
# the timed requests.  A compound type is parenthesised wherever it is
# an operand or an antecedent leaf.

BRACKET_CALCULI = ("Ldia", "LstarDia", "L1starDiaM")
FLAT_CALCULI = ("L", "Lstar")
CALCULI = BRACKET_CALCULI + FLAT_CALCULI

# Size of a goal: antecedent leaves plus antecedent bracket pairs.
SIZE_BUCKETS = ((1, 8), (9, 32), (33, 128), (129, 330), (331, 1000))

REFERENCE_UNDERIVABLE = "dia boxd p dia boxd q => dia boxd (p * q)"


def bucket_of(size):
    for lo, hi in SIZE_BUCKETS:
        if lo <= size <= hi:
            return f"{lo}-{hi}"
    raise ValueError(f"size {size} is outside every bucket")


def _wrap(t):
    return f"({t})" if " " in t else t


def _under(a, b):
    return f"{_wrap(a)} \\ {_wrap(b)}"


def _over(a, b):
    return f"{_wrap(a)} / {_wrap(b)}"


def _prod(a, b):
    return f"{_wrap(a)} * {_wrap(b)}"


def _mod(word, body, idx):
    return f"{word}{idx} {_wrap(body)}"


def _hedge(leaves):
    return " ".join(_wrap(t) for t in leaves)


def _index(calc):
    return ":1" if calc == "L1starDiaM" else ""


def _bracket(inner, idx):
    return f"[{idx} {inner} ]{idx}"


def random_type(rng, leaves, atoms, idx=None):
    """A random type with ``leaves`` primitive occurrences.

    ``idx`` is None for a bracket-free calculus; otherwise modalities
    may appear, written with that index suffix.
    """
    if leaves == 1:
        t = rng.choice(atoms)
    else:
        k = rng.randint(1, leaves - 1)
        a = random_type(rng, k, atoms, idx)
        b = random_type(rng, leaves - k, atoms, idx)
        t = rng.choice((_under, _over, _prod))(a, b)
    if idx is not None and rng.random() < 0.25:
        t = _mod(rng.choice(("dia", "boxd")), t, idx)
    return t


class Goal:
    """One request goal: calculus, sequent text and known verdict."""

    __slots__ = ("calc", "text", "provable", "schema", "size", "flat_row")

    def __init__(self, calc, text, provable, schema, size, flat_row=None):
        self.calc = calc
        self.text = text
        self.provable = provable
        self.schema = schema
        self.size = size
        # for flat goals: the antecedent types, for seeded partitions
        self.flat_row = flat_row


# --- schema instances over small random types -----------------------------

def _schema_goals(rng, calc, atoms):
    """One instance of each provable schema valid in ``calc``."""
    idx = _index(calc) if calc in BRACKET_CALCULI else None
    A, B, C = (random_type(rng, rng.randint(1, 3), atoms, idx)
               for _ in range(3))
    out = [
        ("identity", [A], A),
        ("application_under", [A, _under(A, B)], B),
        ("application_over", [_over(B, A), A], B),
        ("lifting_over", [A], _over(B, _under(A, B))),
        ("lifting_under", [A], _under(_over(B, A), B)),
        ("composition_under", [_under(A, B), _under(B, C)], _under(A, C)),
        ("composition_over", [_over(C, B), _over(B, A)], _over(C, A)),
        ("assoc_left", [_over(_under(A, B), C)], _under(A, _over(B, C))),
        ("assoc_right", [_under(A, _over(B, C))], _over(_under(A, B), C)),
    ]
    goals = [Goal(calc, f"{_hedge(row)} => {succ}", True, name, len(row),
                  row)
             for name, row, succ in out]
    if idx is not None:
        dia_boxd = _mod("dia", _mod("boxd", A, idx), idx)
        box_dia = _mod("boxd", _mod("dia", A, idx), idx)
        goals += [
            Goal(calc, f"{_wrap(dia_boxd)} => {A}", True, "dia_boxd_elim",
                 1, [dia_boxd]),
            Goal(calc, f"{_wrap(A)} => {box_dia}", True, "boxd_dia_intro",
                 1, [A]),
            Goal(calc, f"{_bracket(_wrap(A), idx)} => {_mod('dia', A, idx)}",
                 True, "bracket_dia", 2),
            Goal(calc, f"{_bracket(_wrap(_mod('boxd', A, idx)), idx)} => {A}",
                 True, "bracket_boxd", 2),
        ]
    return goals


def _converse_goals(rng, calc, atoms):
    """Unprovable goals: converses on distinct primitives, and a
    free-group-unbalanced goal."""
    p, q = rng.sample(atoms, 2)
    out = [
        ("lifting_converse_over", [_over(q, _under(p, q))], p),
        ("lifting_converse_under", [_under(_over(q, p), q)], p),
        ("application_converse", [q], _prod(p, _under(p, q))),
        ("unbalanced_pair", [p, p], p),
        ("unbalanced_application", [p, _under(p, q)], p),
    ]
    goals = [Goal(calc, f"{_hedge(row)} => {succ}", False, name, len(row))
             for name, row, succ in out]
    if calc in BRACKET_CALCULI:
        idx = _index(calc)
        goals += [
            Goal(calc, f"{_mod('boxd', _mod('dia', p, idx), idx)} => {p}",
                 False, "boxd_dia_elim_converse", 1),
            Goal(calc, f"{p} => {_mod('dia', _mod('boxd', p, idx), idx)}",
                 False, "dia_boxd_intro_converse", 1),
        ]
    if calc == "Ldia":
        goals.append(Goal(calc, REFERENCE_UNDERIVABLE, False,
                          "reference_underivable", 2))
    return goals


# --- size ladders ----------------------------------------------------------

def _alternating(rng, atoms, n):
    """x0, x1, ..., x_n alternating between two seeded atoms.

    The pattern is fixed so that a chain of a given size costs the same
    under every seed; only the atom names vary.
    """
    pair = rng.sample(atoms, 2)
    return [pair[i % 2] for i in range(n + 1)]


def ladder_goal(rng, family, calc, atoms, size):
    """A goal of the given size from one family of chains."""
    idx = _index(calc)
    if family == "chain_under":       # x0 (x0\x1) (x1\x2) ... => x_n
        xs = _alternating(rng, atoms, size - 1)
        row = [xs[0]] + [_under(xs[i], xs[i + 1]) for i in range(size - 1)]
        return Goal(calc, f"{_hedge(row)} => {xs[-1]}", True, family, size)
    if family == "chain_over":        # ... (x1/x2) (x0/x1)... mirrored
        xs = _alternating(rng, atoms, size - 1)
        row = [_over(xs[i + 1], xs[i]) for i in reversed(range(size - 1))]
        row.append(xs[0])
        return Goal(calc, f"{_hedge(row)} => {xs[-1]}", True, family, size)
    if family == "composition":       # (x0\x1) ... (x_{n-1}\x_n) => x0\x_n
        xs = _alternating(rng, atoms, size)
        row = [_under(xs[i], xs[i + 1]) for i in range(size)]
        return Goal(calc, f"{_hedge(row)} => {_under(xs[0], xs[-1])}",
                    True, family, size)
    if family == "unbalanced_chain":  # a chain ending in the wrong atom
        xs = _alternating(rng, atoms, size - 1)
        other = next(a for a in atoms if a != xs[-1])
        row = [xs[0]] + [_under(xs[i], xs[i + 1]) for i in range(size - 1)]
        return Goal(calc, f"{_hedge(row)} => {other}", False, family, size)
    if family == "reversed_chain":    # (x\x) ... (x\x) x => x
        x = rng.choice(atoms)
        row = [_under(x, x)] * (size - 1) + [x]
        return Goal(calc, f"{_hedge(row)} => {x}", False, family, size)
    if family == "bracket_nest":      # [ [ ... [ x ] ... ] ] => dia ... dia x
        x = rng.choice(atoms)
        depth = size - 1
        ante, succ = x, x
        for _ in range(depth):
            ante = _bracket(ante, idx)
            succ = _mod("dia", succ, idx)
        return Goal(calc, f"{ante} => {succ}", True, family, size)
    if family == "boxd_nest":         # [ ... [ boxd ... boxd x ] ... ] => x
        x = rng.choice(atoms)
        depth = size - 1
        body = x
        for _ in range(depth):
            body = _mod("boxd", body, idx)
        ante = _wrap(body)
        for _ in range(depth):
            ante = _bracket(ante, idx)
        return Goal(calc, f"{ante} => {x}", True, family, size)
    raise ValueError(f"unknown family {family!r}")


FLAT_FAMILIES = ("chain_under", "chain_over", "composition",
                 "unbalanced_chain", "reversed_chain")
BRACKET_FAMILIES = ("bracket_nest", "boxd_nest")


# --- the requests stream ---------------------------------------------------

# A run is a sequence of rounds with the same make-up, so a metric can be
# taken per round and its median reported; each round draws fresh atoms,
# so the interning and word caches are cold for its goals.

# Ladder goals in every round: (family, sizes).  The sizes are fixed, so
# every seed asks for the same work; the seed picks atoms.  They stay
# clear of the recursion limit on both sides: goals up to 300 are
# provable and checkable today; from 400 up they fail with today's
# RecursionError (a chain of 420 in ``check``, of 1000 in the search,
# the nested-modality families in the sequent parser, which recurses
# once per level).  The boundary itself, near 330 for chains, is not
# sampled, so a traced run fails on the same goals.
LADDERS = (
    ("chain_under", (13, 25)), ("chain_over", (13, 25)),
    ("composition", (13, 25)), ("reversed_chain", (13, 25)),
    ("unbalanced_chain", (13, 25)), ("bracket_nest", (13, 25)),
    ("boxd_nest", (13, 25)),
    ("chain_under", (70,)), ("chain_over", (50,)), ("composition", (70,)),
    ("reversed_chain", (70,)), ("unbalanced_chain", (70,)),
    ("bracket_nest", (70,)), ("boxd_nest", (60,)),
    ("chain_under", (200,)), ("composition", (160,)),
    ("unbalanced_chain", (200,)), ("bracket_nest", (190,)),
    ("unbalanced_chain", (700,)), ("bracket_nest", (700,)),
    ("boxd_nest", (700,)),
)
# One deep chain per round, alternating: 420 fails in check, 1000 in
# the search; both cost about the same.
DEEP_CHAIN = (420, 1000)
SCHEMA_SETS = 2         # full schema sets per calculus in a round
INTERPOLATE_OPS = 30    # per round
REDUCE_OPS = 20         # per round
REQUEST_ROUND_S = 2.3   # nominal round time on the reference box

ATOM_POOL = tuple("abcdefghijklmnopqrstuvwxyz")


def rounds_for(seconds, round_s, fixed_s=0.0):
    """Rounds that fill about ``seconds`` at the nominal round time."""
    return max(1, round((seconds - fixed_s) / round_s))


def _spans(goal):
    """Seedable partitions (parent, lo, hi) of a goal's antecedent."""
    if goal.flat_row is not None:
        n = len(goal.flat_row)
        return [((), lo, hi) for lo in range(n) for hi in range(lo + 1, n + 1)]
    return [((), 0, 1), ((0,), 0, 1)]    # "[ A ] => ..."


def _reduce_row(rng, width):
    """A provable flat row over {p, q} with types of length at most 2.

    Starting from a one-atom row, an atom y is replaced by x (x\y) or
    by (y/x) x, and two adjacent atoms x y may become x*y; each step is
    a Cut with a provable two-type sequent, so the row stays provable.
    """
    goal = rng.choice("pq")
    row = [goal]
    while len(row) < width:
        atoms = [i for i, t in enumerate(row) if len(t) == 1]
        i = rng.choice(atoms)
        y, x = row[i], rng.choice("pq")
        if rng.random() < 0.5:
            row[i:i + 1] = [x, _under(x, y)]
        else:
            row[i:i + 1] = [_over(y, x), x]
    pairs = [i for i in range(len(row) - 1)
             if len(row[i]) == 1 and len(row[i + 1]) == 1]
    if pairs and rng.random() < 0.3:
        i = rng.choice(pairs)
        row[i:i + 2] = [_prod(row[i], row[i + 1])]
    return row, goal


def request_rounds(seed, seconds):
    """The seeded requests: a list of rounds of (kind, goal, extra).

    ``extra`` is the partition for ``interpolate`` and None otherwise.
    Interpolation goals come from the unindexed calculi: ``thin_index``
    renames an unindexed proof apart and asserts that deindexing gives
    the original back, which an indexed proof with modalities cannot
    satisfy.
    """
    rng = random.Random(seed)
    rounds = []
    for r in range(rounds_for(seconds, REQUEST_ROUND_S)):
        atoms = rng.sample(ATOM_POOL, 3)
        ops = []
        pool = []
        for _ in range(SCHEMA_SETS):
            for calc in CALCULI:
                goals = _schema_goals(rng, calc, atoms)
                if calc != "L1starDiaM":
                    pool.extend(g for g in goals if g.size <= 3)
                ops += [("prove", g, None) for g in goals]
                ops += [("prove", g, None)
                        for g in _converse_goals(rng, calc, atoms)]
        ladders = LADDERS + (("chain_under", (DEEP_CHAIN[r % 2],)),)
        for cell, (family, sizes) in enumerate(ladders):
            calcs = (BRACKET_CALCULI if family in BRACKET_FAMILIES
                     else CALCULI)
            for i, size in enumerate(sizes):
                calc = calcs[(cell + i) % len(calcs)]
                ops.append(("prove", ladder_goal(rng, family, calc, atoms,
                                                 size), None))
        for _ in range(INTERPOLATE_OPS):
            g = rng.choice(pool)
            ops.append(("interpolate", g, rng.choice(_spans(g))))
        for i in range(REDUCE_OPS):
            row, goal = _reduce_row(rng, 3 + i % 6)
            ops.append(("reduce", Goal("Ldia", f"{_hedge(row)} => {goal}",
                                       True, "reduce_row", len(row), row),
                        None))
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


# --- the grammars stream ---------------------------------------------------

def anbn_member(tokens):
    n = len(tokens) // 2
    return n >= 1 and list(tokens) == ["a"] * n + ["b"] * n


def brackets_member(tokens):
    return (len(tokens) >= 1 and tokens[0] in ("a", "b")
            and all(t == "c" for t in tokens[1:]))


def starred_member(tokens):
    return all(t == "b" for t in tokens)


# bundled grammar -> (calculus, alphabet, member predicate, longest string)
LANGUAGES = {
    "anbn.lg": ("Ldia", "ab", anbn_member, 10),
    "brackets.lg": ("Ldia", "abc", brackets_member, 12),
    "starred.lg": ("LstarDia", "b", starred_member, 12),
}
# Parse requests per round.  anbn's compiled grammar has 4293
# productions, so its parses are the slowest requests; a run holds at
# least 11 of them, so the tail percentile falls among them.
PARSE_OPS = {"anbn.lg": 4, "brackets.lg": 10, "starred.lg": 10}
CUT_DERIVE_OPS = 10     # per round
CUT_BASE_M = 3
GRAMMAR_ROUND_S = 1.8   # nominal round time on the reference box
COMPILE_S = 5.0         # nominal time of the compile phase


def _member_of(name, rng, length):
    if name == "anbn.lg":
        n = max(1, length // 2)
        return ["a"] * n + ["b"] * n
    if name == "brackets.lg":
        return [rng.choice("ab")] + ["c"] * (length - 1)
    return ["b"] * length


def _near_miss(name, rng, length, alphabet, member):
    """A string of about ``length`` close to the language, not in it."""
    base = _member_of(name, rng, length)
    for _ in range(100):
        s = list(base)
        move = rng.randrange(3)
        if move == 0 and len(s) > 1:
            i = rng.randrange(len(s) - 1)
            s[i], s[i + 1] = s[i + 1], s[i]
        elif move == 1:
            s[rng.randrange(len(s))] = rng.choice(alphabet)
        else:
            s.insert(rng.randrange(len(s) + 1), rng.choice(alphabet))
        if not member(s):
            return s
    return None


def _parse_round(rng):
    """One round of parse requests: (grammar, tokens, expected)."""
    out = []
    for name, k in PARSE_OPS.items():
        _, alphabet, member, longest = LANGUAGES[name]
        for i in range(k):
            # lengths spread over 1..longest, members and near-misses
            # alternating
            length = 1 + (i * longest + rng.randrange(longest)) // k
            s = None
            if i % 2 == 1:
                s = _near_miss(name, rng, length, alphabet, member)
            if s is None:
                s = _member_of(name, rng, length)
            out.append((name, s, member(s)))
    return out


def _cut_goal(rng, i):
    """A bracketed goal over {p} for the Cut-only search.

    Every type has length at most 3, inside the rule base's bound.  Even
    ``i`` gives a goal built to be provable: an application chain whose
    head may be a box-down leaf in its bracket, under a bracket when the
    goal is a diamond.  Odd ``i`` swaps two adjacent trees of such a
    goal, which usually breaks it.  Whether each is derivable is decided
    afterwards by the prover, not here: Cut-completeness says the two
    must agree.
    """
    trees = [rng.choice(("p", "[ boxd p ]"))] + ["(p \\ p)"] * (i % 4)
    if rng.random() < 0.5:
        trees.insert(0, "(p / p)")
    if i % 2 == 1:
        j = rng.randrange(len(trees) - 1) if len(trees) > 1 else 0
        trees[j:j + 2] = reversed(trees[j:j + 2])
    if rng.random() < 0.5:
        return f"[ {' '.join(trees)} ] => dia p"
    return f"{' '.join(trees)} => p"


def grammar_rounds(seed, seconds):
    """Rounds of ("parse", (grammar, tokens, expected)) and
    ("cut_derive", goal text) requests, after the compile phase."""
    rng = random.Random(seed)
    rounds = []
    for _ in range(rounds_for(seconds, GRAMMAR_ROUND_S, COMPILE_S)):
        ops = [("parse", p) for p in _parse_round(rng)]
        ops += [("cut_derive", _cut_goal(rng, i))
                for i in range(CUT_DERIVE_OPS)]
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds
