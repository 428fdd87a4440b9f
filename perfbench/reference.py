"""Independent references the benchmark checks posprop's outputs against.

Nothing here imports posprop.  Formulas are plain nested tuples:
``("p", i)`` for the atom p<i>, ``("->", a, b)``, ``("v", a, b)`` and
``("&", a, b)``.  A posprop formula is read into this form through its
public attributes only (class name, ``index``, ``left``, ``right``), and
every comparison below is tuple equality, i.e. by structure.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# formulas

PREC = {"->": 1, "v": 2, "&": 3}


def atoms(t, out=None) -> set:
    out = set() if out is None else out
    if t[0] == "p":
        out.add(t[1])
    else:
        atoms(t[1], out)
        atoms(t[2], out)
    return out


def connectives(t) -> int:
    return 0 if t[0] == "p" else 1 + connectives(t[1]) + connectives(t[2])


def has_op(t, op: str) -> bool:
    if t[0] == "p":
        return False
    return t[0] == op or has_op(t[1], op) or has_op(t[2], op)


def evaluate(t, v: dict) -> bool:
    """Classical value of t under v (atom index -> bool)."""
    op = t[0]
    if op == "p":
        return v[t[1]]
    if op == "->":
        return (not evaluate(t[1], v)) or evaluate(t[2], v)
    if op == "v":
        return evaluate(t[1], v) or evaluate(t[2], v)
    return evaluate(t[1], v) and evaluate(t[2], v)


def truth_table(t, n_atoms: int) -> int:
    """Truth table over p1..p<n_atoms> as a bit mask: bit k is the value
    under the assignment whose atom p<i> is bit i-1 of k."""
    rows = 1 << n_atoms
    full = (1 << rows) - 1
    op = t[0]
    if op == "p":
        return sum(1 << k for k in range(rows) if k >> (t[1] - 1) & 1)
    a = truth_table(t[1], n_atoms)
    b = truth_table(t[2], n_atoms)
    if op == "->":
        return (~a | b) & full
    if op == "v":
        return a | b
    return a & b


def is_tautology(t) -> bool:
    n = max(atoms(t))
    return truth_table(t, n) == (1 << (1 << n)) - 1


def pretty(t) -> str:
    """The concrete syntax with minimal parentheses: & binds tighter than
    v, which binds tighter than ->, and all three associate to the right."""
    if t[0] == "p":
        return f"p{t[1]}"
    prec = PREC[t[0]]

    def side(g, is_left):
        s = pretty(g)
        if g[0] != "p" and (PREC[g[0]] < prec or (is_left and PREC[g[0]] == prec)):
            return f"({s})"
        return s

    return f"{side(t[1], True)} {t[0]} {side(t[2], False)}"


def enumerate_formulas(max_connectives: int, n_atoms: int, ops) -> list:
    """Every formula over p1..p<n_atoms> with at most max_connectives
    connectives drawn from ops, as (tuple, truth-table mask), smallest
    first."""
    rows = 1 << n_atoms
    full = (1 << rows) - 1
    combine = {"->": lambda a, b: (~a | b) & full,
               "v": lambda a, b: a | b,
               "&": lambda a, b: a & b}
    levels = [[(("p", i), truth_table(("p", i), n_atoms))
               for i in range(1, n_atoms + 1)]]
    for n in range(1, max_connectives + 1):
        level = []
        for i in range(n):
            for lt, lm in levels[i]:
                for rt, rm in levels[n - 1 - i]:
                    for op in ops:
                        level.append(((op, lt, rt), combine[op](lm, rm)))
        levels.append(level)
    return [item for level in levels for item in level]


# ---------------------------------------------------------------------------
# reading posprop objects

_OP_OF_CLASS = {"Impl": "->", "Disj": "v", "Conj": "&"}


class Reader:
    """Converts posprop formulas to tuples.  The memo is keyed by id() and
    holds the object, so an id cannot be reused while the memo lives; it
    only saves work, since equal tuples compare equal either way."""

    def __init__(self):
        self.memo: dict = {}

    def __call__(self, f):
        hit = self.memo.get(id(f))
        if hit is not None:
            return hit[1]
        name = type(f).__name__
        if name == "Atom":
            t = ("p", f.index)
        else:
            t = (_OP_OF_CLASS[name], self(f.left), self(f.right))
        self.memo[id(f)] = (f, t)
        return t


# ---------------------------------------------------------------------------
# the reference proof checker

_A, _B, _C = ("mv", "A"), ("mv", "B"), ("mv", "C")
SCHEMES = {
    "Ax1": ("->", _A, ("->", _B, _A)),
    "Ax2": ("->", ("->", _A, ("->", _B, _C)),
            ("->", ("->", _A, _B), ("->", _A, _C))),
    "Ax3": ("->", ("->", ("->", _A, _B), _A), _A),
    "Ax4": ("->", _A, ("v", _A, _B)),
    "Ax5": ("->", _A, ("v", _B, _A)),
    "Ax6": ("->", ("->", _A, _C),
            ("->", ("->", _B, _C), ("->", ("v", _A, _B), _C))),
    "Ax7": ("->", ("&", _A, _B), _A),
    "Ax8": ("->", ("&", _A, _B), _B),
    "Ax9": ("->", _A, ("->", _B, ("&", _A, _B))),
}

CALCULI = {  # label -> (axiom schemes, connectives)
    "I": ({"Ax1", "Ax2", "Ax3"}, {"->"}),
    "ID": ({"Ax1", "Ax2", "Ax3", "Ax4", "Ax5", "Ax6"}, {"->", "v"}),
    "IC": ({"Ax1", "Ax2", "Ax3", "Ax7", "Ax8", "Ax9"}, {"->", "&"}),
    "P": (set(SCHEMES), {"->", "v", "&"}),
}


def matches(pattern, t, subst: dict) -> bool:
    if pattern[0] == "mv":
        bound = subst.get(pattern[1])
        if bound is None:
            subst[pattern[1]] = t
            return True
        return bound == t
    return (t[0] == pattern[0] and matches(pattern[1], t[1], subst)
            and matches(pattern[2], t[2], subst))


def _uses_only(t, allowed, seen: set) -> bool:
    if t[0] == "p" or id(t) in seen:
        return True
    seen.add(id(t))
    return (t[0] in allowed and _uses_only(t[1], allowed, seen)
            and _uses_only(t[2], allowed, seen))


def check_closed_proof(d, calculus: str, conclusion) -> list:
    """Problems found in d read as a closed derivation of `conclusion` in
    `calculus`; an empty list means the proof is good."""
    problems = []
    if str(d.calculus) != calculus:
        problems.append(f"calculus {d.calculus}, expected {calculus}")
    if d.hypotheses:
        problems.append(f"{len(d.hypotheses)} declared hypotheses")
    schemes, allowed = CALCULI[calculus]
    read = Reader()
    seen: set = set()
    formulas = []
    for i, step in enumerate(d.steps):
        t = read(step.formula)
        formulas.append(t)
        kind = type(step).__name__
        if not _uses_only(t, allowed, seen):
            problems.append(f"step {i + 1}: outside the {calculus} language")
        elif kind == "AxiomStep":
            scheme = str(step.scheme)
            if scheme not in schemes:
                problems.append(f"step {i + 1}: {scheme} not in {calculus}")
            elif not matches(SCHEMES[scheme], t, {}):
                problems.append(f"step {i + 1}: not an instance of {scheme}")
        elif kind == "MPStep":
            j, k = step.major, step.minor
            if not (0 <= j < i and 0 <= k < i):
                problems.append(f"step {i + 1}: cites steps {j + 1}, {k + 1}")
            elif formulas[j] != ("->", formulas[k], t):
                problems.append(f"step {i + 1}: modus ponens does not apply")
        else:
            problems.append(f"step {i + 1}: {kind} in a closed proof")
    if not formulas:
        problems.append("no steps")
    elif formulas[-1] != conclusion:
        problems.append(f"concludes {pretty(formulas[-1])}, "
                        f"expected {pretty(conclusion)}")
    return problems


def proof_text(d) -> str:
    """The canonical text of a closed derivation in posprop's proof-file
    format: header, then one numbered line per step."""
    read = Reader()
    lines = [f"calculus: {d.calculus}"]
    for n, step in enumerate(d.steps, start=1):
        body = pretty(read(step.formula))
        kind = type(step).__name__
        if kind == "AxiomStep":
            lines.append(f"{n}. axiom {step.scheme} {body}")
        elif kind == "MPStep":
            lines.append(f"{n}. mp {step.major + 1} {step.minor + 1} {body}")
        else:
            lines.append(f"{n}. hyp {body}")
    return "\n".join(lines) + "\n"


def same_derivation(d, e) -> bool:
    """Structural equality of two derivations, step by step."""
    if (str(d.calculus) != str(e.calculus) or len(d.steps) != len(e.steps)
            or len(d.hypotheses) != len(e.hypotheses)):
        return False
    rd, re_ = Reader(), Reader()
    if {rd(h) for h in d.hypotheses} != {re_(h) for h in e.hypotheses}:
        return False
    for s, t in zip(d.steps, e.steps):
        if type(s).__name__ != type(t).__name__ or rd(s.formula) != re_(t.formula):
            return False
        if type(s).__name__ == "AxiomStep" and str(s.scheme) != str(t.scheme):
            return False
        if type(s).__name__ == "MPStep" and (s.major, s.minor) != (t.major, t.minor):
            return False
    return True
