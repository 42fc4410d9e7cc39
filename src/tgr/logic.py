"""Finite-trace temporal formulas: LTLf (future) and PLTLf (pure past).

A formula is a tree of immutable nodes. Atoms are ground predicate
applications. The two dialects share the propositional connectives and
must not mix temporal operators; `dialect` enforces that.

Evaluation is over finite traces (sequences of sets of atoms). An LTLf
formula is read at the first position, a PLTLf formula at the last.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Sequence

from .errors import FormulaParseError, MixedDialectError, TgrError


@dataclass(frozen=True, order=True)
class Atom:
    """A ground atom: predicate name applied to object names."""

    predicate: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        if self.args:
            return "(" + " ".join((self.predicate,) + self.args) + ")"
        return self.predicate


# Node kinds, grouped by dialect.
FUTURE_KINDS = ("next", "weak_next", "until", "eventually", "always")
PAST_KINDS = ("yesterday", "since", "once", "historically")

# Concrete syntax for each temporal/boolean operator.
KIND_SYMBOL = {
    "not": "!", "and": "&", "or": "|",
    "next": "X", "weak_next": "N", "until": "U",
    "eventually": "F", "always": "G",
    "yesterday": "Y", "since": "S", "once": "O", "historically": "H",
}


def _hash_once(self) -> int:
    """The hash of a frozen dataclass's fields, computed on first use and
    kept on the instance; equality stays the dataclass's own. The hash is
    set as an attribute, not through `__dict__`, which would give every
    instance a dict of its own."""
    h = getattr(self, "_hash", None)
    if h is None:
        h = hash(tuple(getattr(self, f.name) for f in fields(self)))
        object.__setattr__(self, "_hash", h)
    return h


def _state_without_hash(self) -> dict:
    """Pickled state without the kept hash, which depends on the process's
    string hash seed."""
    return {k: v for k, v in self.__dict__.items() if k != "_hash"}


@dataclass(frozen=True)
class Formula:
    """Immutable formula node.

    `kind` is one of: atom, true, false, not, and, or, next, weak_next,
    until, eventually, always, yesterday, since, once, historically.
    `atom` is set only for kind == "atom". The hash is the dataclass's
    own, computed once per node, since memo lookups and tree walks hash
    the same nodes again and again.
    """

    kind: str
    children: tuple["Formula", ...] = ()
    atom: Atom | None = field(default=None)

    __hash__ = _hash_once
    __getstate__ = _state_without_hash

    def __str__(self) -> str:
        k = self.kind
        if k == "atom":
            return str(self.atom)
        if k in ("true", "false"):
            return k
        sym = KIND_SYMBOL[k]
        if len(self.children) == 1:
            return f"{sym}({self.children[0]})"
        left, right = self.children
        return f"({left} {sym} {right})"


TRUE = Formula("true")
FALSE = Formula("false")


def atom(predicate: str, *args: str) -> Formula:
    return Formula("atom", atom=Atom(predicate, tuple(args)))


def from_atom(a: Atom) -> Formula:
    return Formula("atom", atom=a)


def lnot(f: Formula) -> Formula:
    return Formula("not", (f,))


def land(left: Formula, right: Formula) -> Formula:
    return Formula("and", (left, right))


def lor(left: Formula, right: Formula) -> Formula:
    return Formula("or", (left, right))


def implies(left: Formula, right: Formula) -> Formula:
    """Material implication, kept in desugared form."""
    return lor(lnot(left), right)


def next_(f: Formula) -> Formula:
    return Formula("next", (f,))


def weak_next(f: Formula) -> Formula:
    return Formula("weak_next", (f,))


def until(left: Formula, right: Formula) -> Formula:
    return Formula("until", (left, right))


def eventually(f: Formula) -> Formula:
    return Formula("eventually", (f,))


def always(f: Formula) -> Formula:
    return Formula("always", (f,))


def yesterday(f: Formula) -> Formula:
    return Formula("yesterday", (f,))


def since(left: Formula, right: Formula) -> Formula:
    return Formula("since", (left, right))


def once(f: Formula) -> Formula:
    return Formula("once", (f,))


def historically(f: Formula) -> Formula:
    return Formula("historically", (f,))


def conj(parts: Sequence[Formula]) -> Formula:
    """Right-nested conjunction of `parts`; empty conjunction is true."""
    if not parts:
        return TRUE
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = land(p, out)
    return out


def disj(parts: Sequence[Formula]) -> Formula:
    """Right-nested disjunction of `parts`; empty disjunction is false."""
    if not parts:
        return FALSE
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = lor(p, out)
    return out


def subformulas(f: Formula) -> list[Formula]:
    """All distinct subformulas in postorder (children before parents)."""
    seen: dict[Formula, None] = {}
    _postorder(f, seen)
    return list(seen)


def _postorder(g: Formula, seen: dict[Formula, None]) -> None:
    # A module-level function, not a closure that calls itself: such a
    # closure is a reference cycle left to the cyclic collector.
    if g in seen:
        return
    for c in g.children:
        _postorder(c, seen)
    seen[g] = None


def map_atoms(f: Formula, to: Callable[[Atom], Formula]) -> Formula:
    """`f` with every atom `a` replaced by the formula `to(a)`."""
    if f.kind == "atom":
        return to(f.atom)
    if not f.children:
        return f
    return Formula(f.kind, tuple(map_atoms(c, to) for c in f.children))


def atoms(f: Formula) -> frozenset[Atom]:
    """The set of atoms occurring in `f`."""
    return frozenset(g.atom for g in subformulas(f)
                     if g.kind == "atom" and g.atom is not None)


def dialect(f: Formula) -> str:
    """Return "LTLf" or "PLTLf"; raise MixedDialectError if the formula
    uses operators from both dialects. Purely propositional formulas
    default to LTLf."""
    future_op = None
    past_op = None
    for g in subformulas(f):
        if g.kind in FUTURE_KINDS and future_op is None:
            future_op = KIND_SYMBOL[g.kind]
        elif g.kind in PAST_KINDS and past_op is None:
            past_op = KIND_SYMBOL[g.kind]
    if future_op and past_op:
        raise MixedDialectError(future_op, past_op)
    return "PLTLf" if past_op else "LTLf"


def is_propositional(f: Formula) -> bool:
    """Whether `f` has no temporal operator. The walk starts at the root
    and stops at the first temporal node, so `F(...)` is answered at
    once."""
    stack, seen = [f], {f}
    while stack:
        g = stack.pop()
        if g.kind in FUTURE_KINDS or g.kind in PAST_KINDS:
            return False
        for c in g.children:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return True


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<impl>->)
      | (?P<bang>!)
      | (?P<amp>&)
      | (?P<pipe>\|)
      | (?P<ident>[A-Za-z0-9_]+(?:-[A-Za-z0-9_]+)*)
    """,
    re.VERBOSE,
)

_UNARY_OPS = {"X": "next", "N": "weak_next", "F": "eventually", "G": "always",
              "Y": "yesterday", "O": "once", "H": "historically"}
_BINARY_OPS = {"U": "until", "S": "since"}
_RESERVED = set(_UNARY_OPS) | set(_BINARY_OPS) | {"true", "false"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup or ""
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), line, pos - line_start + 1))
        else:
            for i, ch in enumerate(m.group()):
                if ch == "\n":
                    line += 1
                    line_start = pos + i + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    """Recursive descent over the token list.

    Precedence, tightest first: unary (! X N F G Y O H), U/S, &, |, ->.
    Binary operators associate to the right.
    """

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None) -> FormulaParseError:
        tok = tok or self.peek()
        return FormulaParseError(message, tok.line, tok.column)

    def parse(self) -> Formula:
        f = self.impl()
        tok = self.peek()
        if tok.kind != "eof":
            raise self.error(f"unexpected token {tok.text!r}")
        return f

    def impl(self) -> Formula:
        left = self.disjunction()
        if self.peek().kind == "impl":
            self.take()
            return implies(left, self.impl())
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        if self.peek().kind == "pipe":
            self.take()
            return lor(left, self.disjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.until_since()
        if self.peek().kind == "amp":
            self.take()
            return land(left, self.conjunction())
        return left

    def until_since(self) -> Formula:
        left = self.unary()
        tok = self.peek()
        if tok.kind == "ident" and tok.text in _BINARY_OPS:
            self.take()
            right = self.until_since()
            return Formula(_BINARY_OPS[tok.text], (left, right))
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "bang":
            self.take()
            return lnot(self.unary())
        if tok.kind == "ident" and tok.text in _UNARY_OPS:
            self.take()
            return Formula(_UNARY_OPS[tok.text], (self.unary(),))
        return self.primary()

    def primary(self) -> Formula:
        tok = self.take()
        if tok.kind == "ident":
            if tok.text == "true":
                return TRUE
            if tok.text == "false":
                return FALSE
            if tok.text in _RESERVED:
                raise self.error(f"operator {tok.text!r} used as an atom", tok)
            return self._atom_from_ident(tok)
        if tok.kind == "lparen":
            inner = self._try_paren_atom()
            if inner is not None:
                return inner
            f = self.impl()
            closing = self.take()
            if closing.kind != "rparen":
                raise self.error("expected ')'", closing)
            return f
        raise self.error(f"expected a formula, found {tok.text or 'end of input'!r}", tok)

    def _try_paren_atom(self) -> Formula | None:
        """After '(': parse `(pred obj ...)` if everything up to the next
        ')' is a run of plain identifiers. Otherwise rewind and let the
        caller parse a grouped formula."""
        start = self.pos
        tokens = []
        while self.peek().kind == "ident" and self.peek().text not in _RESERVED:
            tokens.append(self.take())
        if tokens and self.peek().kind == "rparen":
            self.take()
            if len(tokens) == 1:
                # "(vAt_33)" is a grouped bare atom: split as usual.
                return self._atom_from_ident(tokens[0])
            parts = [t.text for t in tokens]
            return Formula("atom", atom=Atom(parts[0], tuple(parts[1:])))
        self.pos = start
        return None

    def _atom_from_ident(self, tok: _Token) -> Formula:
        parts = tok.text.split("_")
        if any(not p for p in parts):
            raise self.error(f"empty segment in atom {tok.text!r}", tok)
        return Formula("atom", atom=Atom(parts[0], tuple(parts[1:])))


def parse_formula(text: str) -> Formula:
    """Parse the concrete syntax into a Formula.

    Atoms are written either `pred_obj1_obj2` or `(pred obj1 obj2)`.
    Raises FormulaParseError on bad syntax or nesting too deep to parse,
    and MixedDialectError when future and past operators are combined.
    """
    parser = _Parser(_tokenize(text))
    try:
        f = parser.parse()
        dialect(f)
    except RecursionError:
        raise parser.error("formula is nested too deeply") from None
    return f


# ---------------------------------------------------------------------------
# Evaluation

def _eval_empty(f: Formula) -> bool:
    """Truth on the empty trace, defined recursively so that each operator
    and its dual disagree (e.g. G holds, F does not)."""
    k = f.kind
    if k == "true":
        return True
    if k == "not":
        return not _eval_empty(f.children[0])
    if k == "and":
        return _eval_empty(f.children[0]) and _eval_empty(f.children[1])
    if k == "or":
        return _eval_empty(f.children[0]) or _eval_empty(f.children[1])
    if k in ("weak_next", "always", "historically"):
        return True
    # atom, false, next, until, eventually, yesterday, since, once
    return False


def evaluate(f: Formula, trace: Sequence[Iterable[Atom]],
             as_dialect: str | None = None) -> bool:
    """Evaluate `f` on a finite trace of atom sets.

    LTLf formulas are evaluated at position 0, PLTLf formulas at the last
    position. Purely propositional formulas default to the LTLf reading;
    pass as_dialect="PLTLf" to force the other one. The empty trace is
    handled by `_eval_empty`.
    """
    which = dialect(f)
    if as_dialect is not None:
        if as_dialect not in ("LTLf", "PLTLf"):
            raise TgrError(f"unknown dialect {as_dialect!r}")
        if not is_propositional(f) and as_dialect != which:
            raise TgrError(
                f"formula is {which} but was asked to evaluate as {as_dialect}")
        which = as_dialect
    n = len(trace)
    if n == 0:
        return _eval_empty(f)
    positions = [v if isinstance(v, (set, frozenset)) else frozenset(v)
                 for v in trace]
    memo: dict[Formula, list[bool]] = {}

    def table(g: Formula) -> list[bool]:
        hit = memo.get(g)
        if hit is not None:
            return hit
        k = g.kind
        if k == "atom":
            t = [g.atom in positions[i] for i in range(n)]
        elif k == "true":
            t = [True] * n
        elif k == "false":
            t = [False] * n
        elif k == "not":
            c = table(g.children[0])
            t = [not v for v in c]
        elif k == "and":
            a, b = table(g.children[0]), table(g.children[1])
            t = [a[i] and b[i] for i in range(n)]
        elif k == "or":
            a, b = table(g.children[0]), table(g.children[1])
            t = [a[i] or b[i] for i in range(n)]
        elif k == "next":
            c = table(g.children[0])
            t = [c[i + 1] if i + 1 < n else False for i in range(n)]
        elif k == "weak_next":
            c = table(g.children[0])
            t = [c[i + 1] if i + 1 < n else True for i in range(n)]
        elif k == "eventually":
            c = table(g.children[0])
            t = [False] * n
            t[n - 1] = c[n - 1]
            for i in range(n - 2, -1, -1):
                t[i] = c[i] or t[i + 1]
        elif k == "always":
            c = table(g.children[0])
            t = [False] * n
            t[n - 1] = c[n - 1]
            for i in range(n - 2, -1, -1):
                t[i] = c[i] and t[i + 1]
        elif k == "until":
            a, b = table(g.children[0]), table(g.children[1])
            t = [False] * n
            t[n - 1] = b[n - 1]
            for i in range(n - 2, -1, -1):
                t[i] = b[i] or (a[i] and t[i + 1])
        elif k == "yesterday":
            c = table(g.children[0])
            t = [c[i - 1] if i > 0 else False for i in range(n)]
        elif k == "since":
            a, b = table(g.children[0]), table(g.children[1])
            t = [False] * n
            t[0] = b[0]
            for i in range(1, n):
                t[i] = b[i] or (a[i] and t[i - 1])
        elif k == "once":
            c = table(g.children[0])
            t = [False] * n
            t[0] = c[0]
            for i in range(1, n):
                t[i] = c[i] or t[i - 1]
        elif k == "historically":
            c = table(g.children[0])
            t = [False] * n
            t[0] = c[0]
            for i in range(1, n):
                t[i] = c[i] and t[i - 1]
        else:  # pragma: no cover
            raise TgrError(f"unknown formula kind {k!r}")
        memo[g] = t
        return t

    result = table(f)
    return result[0] if which == "LTLf" else result[n - 1]


# ---------------------------------------------------------------------------
# Negation normal form (future dialect)

def to_nnf(f: Formula) -> Formula:
    """Push negations down to atoms, using the X/N and F/G dualities and
    the expansion of a negated until. Future-dialect formulas only."""
    if dialect(f) == "PLTLf":
        raise TgrError("to_nnf applies to future-dialect formulas only")
    return _nnf(f, False)


def _nnf(f: Formula, neg: bool) -> Formula:
    k = f.kind
    if k == "atom":
        return lnot(f) if neg else f
    if k == "true":
        return FALSE if neg else TRUE
    if k == "false":
        return TRUE if neg else FALSE
    if k == "not":
        return _nnf(f.children[0], not neg)
    if k == "and":
        parts = (_nnf(f.children[0], neg), _nnf(f.children[1], neg))
        return Formula("or" if neg else "and", parts)
    if k == "or":
        parts = (_nnf(f.children[0], neg), _nnf(f.children[1], neg))
        return Formula("and" if neg else "or", parts)
    if k == "next":
        return weak_next(_nnf(f.children[0], True)) if neg \
            else next_(_nnf(f.children[0], False))
    if k == "weak_next":
        return next_(_nnf(f.children[0], True)) if neg \
            else weak_next(_nnf(f.children[0], False))
    if k == "eventually":
        return always(_nnf(f.children[0], True)) if neg \
            else eventually(_nnf(f.children[0], False))
    if k == "always":
        return eventually(_nnf(f.children[0], True)) if neg \
            else always(_nnf(f.children[0], False))
    if k == "until":
        left, right = f.children
        if not neg:
            return until(_nnf(left, False), _nnf(right, False))
        # !(a U b)  ==  G !b  |  (!b U (!b & !a))
        na, nb = _nnf(left, True), _nnf(right, True)
        return lor(always(nb), until(nb, land(nb, na)))
    raise TgrError(f"to_nnf: unexpected kind {k!r}")  # pragma: no cover
